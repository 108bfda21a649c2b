#include "ratings/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/csv.h"
#include "common/string_util.h"

namespace fairrec {

DatasetStats Dataset::ComputeStats() const {
  DatasetStats stats;
  stats.num_users = matrix.num_users();
  stats.num_items = matrix.num_items();
  stats.num_ratings = matrix.num_ratings();
  stats.density = matrix.Density();

  double sum = 0.0;
  int32_t min_deg = stats.num_users > 0 ? matrix.UserDegree(0) : 0;
  int32_t max_deg = 0;
  int64_t total_deg = 0;
  for (UserId u = 0; u < stats.num_users; ++u) {
    const int32_t deg = matrix.UserDegree(u);
    min_deg = std::min(min_deg, deg);
    max_deg = std::max(max_deg, deg);
    total_deg += deg;
    for (const ItemRating& entry : matrix.ItemsRatedBy(u)) {
      sum += entry.value;
      const int bucket =
          std::clamp(static_cast<int>(std::lround(entry.value)), 1, 5) - 1;
      stats.histogram[static_cast<size_t>(bucket)]++;
    }
  }
  stats.mean_rating =
      stats.num_ratings > 0 ? sum / static_cast<double>(stats.num_ratings) : 0.0;
  stats.min_user_degree = stats.num_users > 0 ? min_deg : 0;
  stats.max_user_degree = max_deg;
  stats.mean_user_degree =
      stats.num_users > 0
          ? static_cast<double>(total_deg) / static_cast<double>(stats.num_users)
          : 0.0;
  return stats;
}

Result<Dataset> LoadDatasetCsv(const std::string& path) {
  FAIRREC_ASSIGN_OR_RETURN(std::vector<CsvRow> rows, ReadCsvFile(path));
  Dataset dataset;
  RatingMatrixBuilder builder;
  bool first = true;
  for (const CsvRow& row : rows) {
    if (row.size() != 3) {
      return Status::InvalidArgument("expected 3 columns, got " +
                                     std::to_string(row.size()));
    }
    const Result<int32_t> user = ParseInt<int32_t>(Trim(row[0]));
    const Result<int32_t> item = ParseInt<int32_t>(Trim(row[1]));
    const Result<double> value = ParseDouble(Trim(row[2]));
    if (!user.ok() || !item.ok() || !value.ok()) {
      if (first) {
        first = false;  // header row
        continue;
      }
      return Status::InvalidArgument("unparseable CSV row: " + Join(row, ","));
    }
    first = false;
    FAIRREC_RETURN_NOT_OK(builder.Add(*user, *item, *value));
  }
  FAIRREC_ASSIGN_OR_RETURN(dataset.matrix, builder.Build());
  return dataset;
}

Status SaveDatasetCsv(const Dataset& dataset, const std::string& path) {
  std::vector<CsvRow> rows;
  rows.push_back({"user", "item", "rating"});
  for (const RatingTriple& t : dataset.matrix.ToTriples()) {
    rows.push_back({std::to_string(t.user), std::to_string(t.item),
                    FormatDouble(t.value, 3)});
  }
  return WriteCsvFile(path, rows);
}

}  // namespace fairrec
