#include "cf/peer_finder.h"

#include <utility>

#include <gtest/gtest.h>

#include "sim/peer_adapter.h"
#include "sim/peer_index.h"
#include "tests/oracle/naive_peers.h"

namespace fairrec {
namespace {

/// Similarity looked up from a fixed table (symmetric).
class TableSimilarity final : public UserSimilarity {
 public:
  explicit TableSimilarity(std::vector<std::vector<double>> table)
      : table_(std::move(table)) {}
  double Compute(UserId a, UserId b) const override {
    return table_[static_cast<size_t>(a)][static_cast<size_t>(b)];
  }
  std::string name() const override { return "table"; }

 private:
  std::vector<std::vector<double>> table_;
};

TableSimilarity FourUsers() {
  // sim(0,*) = {-, 0.9, 0.5, 0.1}; sim(1,2)=0.7, sim(1,3)=0.2, sim(2,3)=0.6
  return TableSimilarity({{1.0, 0.9, 0.5, 0.1},
                          {0.9, 1.0, 0.7, 0.2},
                          {0.5, 0.7, 1.0, 0.6},
                          {0.1, 0.2, 0.6, 1.0}});
}

/// Def. 1 through the one query path — a PeerFinder over a DensePeerAdapter
/// built at the query delta with no cap — checked against the naive O(U)
/// oracle before it is returned.
std::vector<Peer> FindPeers(const UserSimilarity& sim, int32_t num_users,
                            PeerFinderOptions options, UserId u,
                            const Group& exclude = {}) {
  PeerIndexOptions build_options;
  build_options.delta = options.delta;
  const DensePeerAdapter provider(sim, num_users, build_options);
  const PeerFinder finder(&provider, options);
  std::vector<Peer> peers = finder.FindPeers(u, exclude);
  EXPECT_EQ(peers, NaivePeers(sim, num_users, u, options, exclude))
      << "u=" << u << " delta=" << options.delta
      << " max_peers=" << options.max_peers;
  return peers;
}

TEST(PeerFinderTest, ThresholdFiltersAndSorts) {
  const TableSimilarity sim = FourUsers();
  PeerFinderOptions options;
  options.delta = 0.5;
  const std::vector<Peer> peers = FindPeers(sim, 4, options, 0);
  // Def. 1: qualifying peers of user 0 are 1 (0.9) and 2 (0.5), in
  // descending similarity order.
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0], (Peer{1, 0.9}));
  EXPECT_EQ(peers[1], (Peer{2, 0.5}));
}

TEST(PeerFinderTest, ThresholdIsInclusive) {
  const TableSimilarity sim = FourUsers();
  PeerFinderOptions options;
  options.delta = 0.9;
  const std::vector<Peer> peers = FindPeers(sim, 4, options, 0);
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].user, 1);
}

TEST(PeerFinderTest, SelfIsNeverAPeer) {
  const TableSimilarity sim = FourUsers();
  PeerFinderOptions options;
  options.delta = 0.0;
  for (const Peer& p : FindPeers(sim, 4, options, 2)) EXPECT_NE(p.user, 2);
}

TEST(PeerFinderTest, ExcludeListRespected) {
  const TableSimilarity sim = FourUsers();
  PeerFinderOptions options;
  options.delta = 0.0;
  const std::vector<Peer> peers = FindPeers(sim, 4, options, 0, {1, 2});
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].user, 3);
}

TEST(PeerFinderTest, MaxPeersCapsAfterSorting) {
  const TableSimilarity sim = FourUsers();
  PeerFinderOptions options;
  options.delta = 0.0;
  options.max_peers = 2;
  const std::vector<Peer> peers = FindPeers(sim, 4, options, 0);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].user, 1);  // the two *most similar* survive
  EXPECT_EQ(peers[1].user, 2);
}

TEST(PeerFinderTest, TieBreaksByAscendingId) {
  const TableSimilarity sim({{1.0, 0.5, 0.5}, {0.5, 1.0, 0.5}, {0.5, 0.5, 1.0}});
  PeerFinderOptions options;
  options.delta = 0.5;
  const std::vector<Peer> peers = FindPeers(sim, 3, options, 0);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].user, 1);
  EXPECT_EQ(peers[1].user, 2);
}

TEST(PeerFinderTest, NoQualifyingPeers) {
  const TableSimilarity sim = FourUsers();
  PeerFinderOptions options;
  options.delta = 0.95;
  EXPECT_TRUE(FindPeers(sim, 4, options, 3).empty());
}

TEST(PeerFinderTest, OutOfRangeExcludeEntriesIgnored) {
  const TableSimilarity sim = FourUsers();
  PeerFinderOptions options;
  options.delta = 0.0;
  EXPECT_EQ(FindPeers(sim, 4, options, 0, {-5, 99}).size(), 3u);
}

// ---- The thin filter over a provider built below the query delta ---------

/// Every oracle expectation must hold verbatim when the provider is built at
/// the loosest threshold, so the query delta (not the build) filters.
void ExpectMatchesOracle(const UserSimilarity& sim, int32_t num_users,
                         PeerFinderOptions options, const Group& exclude = {}) {
  PeerIndexOptions build_options;
  build_options.delta = 0.0;
  const DensePeerAdapter provider(sim, num_users, build_options);
  const PeerFinder sparse(&provider, options);
  for (UserId u = 0; u < num_users; ++u) {
    EXPECT_EQ(sparse.FindPeers(u, exclude),
              NaivePeers(sim, num_users, u, options, exclude))
        << "u=" << u << " delta=" << options.delta
        << " max_peers=" << options.max_peers;
  }
}

TEST(PeerFinderSparseTest, AgreesWithNaiveOracleAcrossOptions) {
  const TableSimilarity sim = FourUsers();
  for (const double delta : {0.0, 0.5, 0.9}) {
    for (const int32_t max_peers : {0, 1, 2}) {
      PeerFinderOptions options;
      options.delta = delta;
      options.max_peers = max_peers;
      ExpectMatchesOracle(sim, 4, options);
    }
  }
}

TEST(PeerFinderSparseTest, ExclusionRefillsFromDeeperEntries) {
  // With an unbounded provider, excluding the top peer must surface the next
  // one, exactly like the oracle — max_peers applies after exclusion.
  const TableSimilarity sim = FourUsers();
  PeerFinderOptions options;
  options.delta = 0.0;
  options.max_peers = 2;
  ExpectMatchesOracle(sim, 4, options, /*exclude=*/{1});

  PeerIndexOptions build_options;
  build_options.delta = 0.0;
  const DensePeerAdapter provider(sim, 4, build_options);
  const PeerFinder sparse(&provider, options);
  const std::vector<Peer> peers = sparse.FindPeers(0, {1});
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].user, 2);  // 0.5
  EXPECT_EQ(peers[1].user, 3);  // 0.1, promoted by the exclusion
}

TEST(PeerFinderSparseTest, QueryDeltaMayBeStricterThanBuildDelta) {
  const TableSimilarity sim = FourUsers();
  PeerIndexOptions build_options;
  build_options.delta = 0.0;
  const DensePeerAdapter provider(sim, 4, build_options);

  PeerFinderOptions options;
  options.delta = 0.6;  // stricter than the build threshold
  const PeerFinder sparse(&provider, options);
  const std::vector<Peer> peers = sparse.FindPeers(0);
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0], (Peer{1, 0.9}));
}

TEST(PeerFinderSparseTest, HandBuiltIndexServesDirectly) {
  PeerIndex::Builder builder(3, {});
  builder.OfferPair(0, 1, 0.8);
  builder.OfferPair(0, 2, 0.3);
  const PeerIndex index = std::move(builder).Build();

  PeerFinderOptions options;
  options.delta = 0.2;
  const PeerFinder finder(&index, options);
  EXPECT_EQ(finder.num_users(), 3);
  const std::vector<Peer> peers = finder.FindPeers(0);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0], (Peer{1, 0.8}));
  EXPECT_EQ(peers[1], (Peer{2, 0.3}));
  EXPECT_EQ(finder.FindPeers(1), (std::vector<Peer>{{0, 0.8}}));
}

}  // namespace
}  // namespace fairrec
