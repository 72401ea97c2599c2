#include "tpcd/census.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "engine/executor.h"

namespace congress::tpcd {
namespace {

CensusConfig SmallConfig() {
  CensusConfig config;
  config.num_people = 20000;
  config.num_states = 20;
  config.seed = 9;
  return config;
}

TEST(CensusTest, GeneratesRequestedPopulation) {
  auto table = GenerateCensus(SmallConfig());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 20000u);
  EXPECT_EQ(table->num_columns(), 4u);
  EXPECT_EQ(table->schema().field(kState).name, "st");
  EXPECT_EQ(table->schema().field(kSalary).type, DataType::kDouble);
}

TEST(CensusTest, StatePopulationsSkewed) {
  auto table = GenerateCensus(SmallConfig());
  ASSERT_TRUE(table.ok());
  auto counts = CountGroups(*table, {kState});
  EXPECT_EQ(counts.size(), 20u);
  uint64_t largest = 0;
  uint64_t smallest = UINT64_MAX;
  for (const auto& [key, count] : counts) {
    largest = std::max(largest, count);
    smallest = std::min(smallest, count);
  }
  // Zipf(1.0) over 20 states gives a >10x spread.
  EXPECT_GT(largest, 10 * smallest);
}

TEST(CensusTest, GendersRoughlyBalanced) {
  auto table = GenerateCensus(SmallConfig());
  ASSERT_TRUE(table.ok());
  auto counts = CountGroups(*table, {kGender});
  ASSERT_EQ(counts.size(), 2u);
  for (const auto& [key, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / 20000.0, 0.5, 0.03);
  }
}

TEST(CensusTest, SalariesPositiveAndStateLevelsDiffer) {
  auto table = GenerateCensus(SmallConfig());
  ASSERT_TRUE(table.ok());
  for (double s : table->DoubleColumn(kSalary)) {
    EXPECT_GT(s, 0.0);
  }
  GroupByQuery q;
  q.group_columns = {kState};
  q.aggregates = {AggregateSpec{AggregateKind::kAvg, kSalary}};
  auto result = ExecuteExact(*table, q);
  ASSERT_TRUE(result.ok());
  double min_avg = 1e18;
  double max_avg = 0.0;
  for (const ApproximateGroupRow& row : result->rows()) {
    min_avg = std::min(min_avg, row.estimates[0]);
    max_avg = std::max(max_avg, row.estimates[0]);
  }
  EXPECT_GT(max_avg, 1.2 * min_avg);
}

TEST(CensusTest, SsnsUnique) {
  auto table = GenerateCensus(SmallConfig());
  ASSERT_TRUE(table.ok());
  auto ids = table->Int64Column(kSsn);
  std::vector<int64_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(CensusTest, Validation) {
  CensusConfig config = SmallConfig();
  config.num_people = 0;
  EXPECT_FALSE(GenerateCensus(config).ok());
  config = SmallConfig();
  config.num_states = 0;
  EXPECT_FALSE(GenerateCensus(config).ok());
  config = SmallConfig();
  config.num_people = 5;
  config.num_states = 10;
  EXPECT_FALSE(GenerateCensus(config).ok());
}

}  // namespace
}  // namespace congress::tpcd
