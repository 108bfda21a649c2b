// PairMomentShuffle: the external-sort boundary under every layout must
// deliver the identical group stream — same keys, same order, bit-identical
// folded moments — whether everything fit in the buffer or spilled across
// many runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/blob_io.h"
#include "common/random.h"
#include "sim/moment_shuffle.h"

namespace fairrec {
namespace {

struct Group {
  UserId a;
  UserId b;
  int32_t shard;
  PairMoments total;
};

std::vector<Group> DrainAll(PairMomentShuffle& shuffle) {
  std::vector<Group> groups;
  const Status drained = shuffle.Drain(
      [&groups](UserId a, UserId b, int32_t shard,
                const PairMoments& total) -> Status {
        groups.push_back({a, b, shard, total});
        return Status::OK();
      });
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  return groups;
}

void ExpectSameGroups(const std::vector<Group>& got,
                      const std::vector<Group>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << label << " group " << i;
    EXPECT_EQ(got[i].b, want[i].b) << label << " group " << i;
    EXPECT_EQ(got[i].shard, want[i].shard) << label << " group " << i;
    EXPECT_EQ(got[i].total.n, want[i].total.n) << label << " group " << i;
    // Bit-identity, not tolerance: the whole point of the unique-key merge.
    EXPECT_EQ(got[i].total.sum_a, want[i].total.sum_a) << label << " " << i;
    EXPECT_EQ(got[i].total.sum_b, want[i].total.sum_b) << label << " " << i;
    EXPECT_EQ(got[i].total.sum_aa, want[i].total.sum_aa) << label << " " << i;
    EXPECT_EQ(got[i].total.sum_bb, want[i].total.sum_bb) << label << " " << i;
    EXPECT_EQ(got[i].total.sum_ab, want[i].total.sum_ab) << label << " " << i;
  }
}

/// A synthetic record stream with unique (a, b, shard, item) keys, emitted
/// in a scrambled order (like concurrent reducers would).
std::vector<PairMomentShuffle::Record> ScrambledRecords(uint64_t seed) {
  std::vector<PairMomentShuffle::Record> records;
  Rng rng(seed);
  for (UserId a = 0; a < 9; ++a) {
    for (UserId b = 0; b < 9; ++b) {
      if (a == b) continue;
      for (ItemId item = 0; item < 14; ++item) {
        if (!rng.NextBool(0.55)) continue;
        PairMomentShuffle::Record r;
        r.a = a;
        r.b = b;
        r.shard = static_cast<int32_t>(item % 3);
        r.item = item;
        r.moments.Add(static_cast<Rating>(rng.UniformInt(1, 5)),
                      static_cast<Rating>(rng.UniformInt(1, 5)));
        records.push_back(r);
      }
    }
  }
  // Deterministic scramble.
  for (size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1],
              records[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(i) - 1))]);
  }
  return records;
}

Result<PairMomentShuffle> MakeShuffle(size_t max_buffer_bytes,
                                      const std::string& tag) {
  MomentShuffleOptions options;
  options.max_buffer_bytes = max_buffer_bytes;
  if (max_buffer_bytes > 0) {
    options.temp_dir = testing::TempDir() + "/fairrec_shuffle_" + tag;
    EXPECT_TRUE(EnsureDirectory(options.temp_dir).ok());
  }
  return PairMomentShuffle::Create(options);
}

TEST(MomentShuffleTest, EveryBufferBudgetDeliversTheIdenticalGroupStream) {
  const auto records = ScrambledRecords(0x5ca1e);
  ASSERT_GT(records.size(), 200u);

  auto reference_shuffle = MakeShuffle(0, "ref");
  ASSERT_TRUE(reference_shuffle.ok());
  for (const auto& r : records) {
    ASSERT_TRUE(
        reference_shuffle->Add(r.a, r.b, r.shard, r.item, r.moments).ok());
  }
  const std::vector<Group> reference = DrainAll(*reference_shuffle);
  ASSERT_GT(reference.size(), 50u);
  EXPECT_EQ(reference_shuffle->stats().runs_spilled, 0);
  // Ascending (a, b, shard) group order is part of the contract.
  for (size_t i = 1; i < reference.size(); ++i) {
    EXPECT_LT(std::make_tuple(reference[i - 1].a, reference[i - 1].b,
                              reference[i - 1].shard),
              std::make_tuple(reference[i].a, reference[i].b,
                              reference[i].shard));
  }

  const size_t record_bytes = sizeof(PairMomentShuffle::Record);
  int probe = 0;
  for (const size_t budget :
       {record_bytes, record_bytes * 7, record_bytes * 64,
        record_bytes * records.size() * 2}) {
    auto shuffle = MakeShuffle(budget, "b" + std::to_string(probe++));
    ASSERT_TRUE(shuffle.ok()) << shuffle.status().ToString();
    for (const auto& r : records) {
      ASSERT_TRUE(shuffle->Add(r.a, r.b, r.shard, r.item, r.moments).ok());
    }
    const std::vector<Group> groups = DrainAll(*shuffle);
    ExpectSameGroups(groups, reference,
                     "budget " + std::to_string(budget));
    if (budget < record_bytes * records.size()) {
      EXPECT_GT(shuffle->stats().runs_spilled, 0) << budget;
      EXPECT_GT(shuffle->stats().spilled_bytes, 0u) << budget;
    }
    EXPECT_LE(shuffle->stats().peak_buffer_bytes,
              std::max(budget, record_bytes));
    EXPECT_EQ(shuffle->stats().records_in,
              static_cast<int64_t>(records.size()));
    EXPECT_EQ(shuffle->stats().groups_out,
              static_cast<int64_t>(reference.size()));
  }
}

TEST(MomentShuffleTest, CreateValidatesTheBudgetedConfiguration) {
  MomentShuffleOptions no_dir;
  no_dir.max_buffer_bytes = 1 << 20;
  EXPECT_TRUE(PairMomentShuffle::Create(no_dir).status().IsInvalidArgument());

  MomentShuffleOptions tiny;
  tiny.max_buffer_bytes = 1;  // below one record
  tiny.temp_dir = testing::TempDir() + "/fairrec_shuffle_tiny";
  EXPECT_TRUE(PairMomentShuffle::Create(tiny).status().IsInvalidArgument());
}

TEST(MomentShuffleTest, EmptyShuffleDrainsCleanly) {
  auto shuffle = MakeShuffle(0, "empty");
  ASSERT_TRUE(shuffle.ok());
  EXPECT_TRUE(DrainAll(*shuffle).empty());
  EXPECT_EQ(shuffle->stats().groups_out, 0);
}

}  // namespace
}  // namespace fairrec
