#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/aqua.h"
#include "core/metrics.h"
#include "core/rewriter.h"
#include "engine/executor.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

namespace congress {
namespace {

using tpcd::GenerateLineitem;
using tpcd::LineitemConfig;
using tpcd::MakeQg0Set;
using tpcd::MakeQg2;
using tpcd::MakeQg3;

/// Shared fixture: one skewed TPC-D-style table plus synopses for all
/// four allocation strategies at the same space budget. This is a small
/// replica of the paper's Experiment 1 setup (Section 7.2.1).
class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LineitemConfig config;
    config.num_tuples = 100000;
    config.num_groups = 125;  // d = 5.
    config.group_skew_z = 1.5;
    config.seed = 21;
    auto data = GenerateLineitem(config);
    ASSERT_TRUE(data.ok());
    table_ = new Table(std::move(data->table));

    synopses_ = new std::map<std::string, AquaSynopsis>();
    for (auto [name, strategy] :
         std::initializer_list<std::pair<const char*, AllocationStrategy>>{
             {"house", AllocationStrategy::kHouse},
             {"senate", AllocationStrategy::kSenate},
             {"basic", AllocationStrategy::kBasicCongress},
             {"congress", AllocationStrategy::kCongress}}) {
      SynopsisConfig config2;
      config2.strategy = strategy;
      config2.sample_fraction = 0.07;
      config2.grouping_columns = tpcd::LineitemGroupingColumnNames();
      config2.seed = 33;
      auto synopsis = AquaSynopsis::Build(*table_, config2);
      ASSERT_TRUE(synopsis.ok());
      synopses_->emplace(name, std::move(synopsis).value());
    }
  }

  static void TearDownTestSuite() {
    delete synopses_;
    delete table_;
    synopses_ = nullptr;
    table_ = nullptr;
  }

  static const AquaSynopsis& Synopsis(const char* name) {
    return synopses_->at(name);
  }

  static double L1Error(const char* synopsis, const GroupByQuery& query) {
    auto exact = ExecuteExact(*table_, query);
    EXPECT_TRUE(exact.ok());
    auto approx = Synopsis(synopsis).Answer(query);
    EXPECT_TRUE(approx.ok());
    return CompareAnswers(*exact, *approx, 0).l1;
  }

  static Table* table_;
  static std::map<std::string, AquaSynopsis>* synopses_;
};

Table* EndToEndTest::table_ = nullptr;
std::map<std::string, AquaSynopsis>* EndToEndTest::synopses_ = nullptr;

TEST_F(EndToEndTest, SamplesUseConfiguredSpace) {
  for (const char* name : {"house", "senate", "basic", "congress"}) {
    const AquaSynopsis& synopsis = Synopsis(name);
    EXPECT_EQ(synopsis.sample().num_rows(), 7000u) << name;
    EXPECT_EQ(synopsis.sample().total_population(), 100000u);
  }
}

TEST_F(EndToEndTest, SenateAndCongressCoverAllGroupsOnQg3) {
  // The paper's first user requirement: every group present. Senate and
  // Congress guarantee minimum samples per finest group; House loses
  // small groups under z = 1.5 skew.
  auto exact = ExecuteExact(*table_, MakeQg3());
  ASSERT_TRUE(exact.ok());
  for (const char* name : {"senate", "congress"}) {
    auto approx = Synopsis(name).Answer(MakeQg3());
    ASSERT_TRUE(approx.ok());
    auto report = CompareAnswers(*exact, *approx, 0);
    EXPECT_EQ(report.missing_groups, 0u) << name;
  }
}

TEST_F(EndToEndTest, Figure15ShapeSenateBeatsHouseOnQg3) {
  double house = L1Error("house", MakeQg3());
  double senate = L1Error("senate", MakeQg3());
  double congress = L1Error("congress", MakeQg3());
  EXPECT_LT(senate, house);
  EXPECT_LT(congress, house);
}

TEST_F(EndToEndTest, Figure14ShapeHouseBeatsSenateOnQg0) {
  Random rng(55);
  auto queries = MakeQg0Set(table_->num_rows(), 0.07, 20, &rng);
  auto avg_error = [&](const char* name) {
    double total = 0.0;
    for (const auto& q : queries) {
      auto exact = ExecuteExact(*table_, q);
      EXPECT_TRUE(exact.ok());
      auto approx = Synopsis(name).Answer(q);
      EXPECT_TRUE(approx.ok());
      total += CompareAnswers(*exact, *approx, 0).l1;
    }
    return total / static_cast<double>(queries.size());
  };
  double house = avg_error("house");
  double senate = avg_error("senate");
  double congress = avg_error("congress");
  EXPECT_LT(house, senate);
  // Congress should track House closely (the paper's "surprisingly,
  // Congress's errors are low too"): within 3x of House.
  EXPECT_LT(congress, 3.0 * house + 1.0);
}

TEST_F(EndToEndTest, CongressCompetitiveOnQg2) {
  double house = L1Error("house", MakeQg2());
  double senate = L1Error("senate", MakeQg2());
  double congress = L1Error("congress", MakeQg2());
  // Congress is designed for the intermediate grouping: it must beat the
  // worse of the two extremes and be competitive with the better.
  EXPECT_LT(congress, std::max(house, senate));
  EXPECT_LT(congress, 2.0 * std::min(house, senate) + 1.0);
}

TEST_F(EndToEndTest, RewriteStrategiesAgreeOnRealWorkload) {
  GroupByQuery q = MakeQg2();
  Rewriter rewriter(Synopsis("congress").sample());
  auto reference = rewriter.Answer(q, RewriteStrategy::kIntegrated);
  ASSERT_TRUE(reference.ok());
  for (auto strategy :
       {RewriteStrategy::kNestedIntegrated, RewriteStrategy::kNormalized,
        RewriteStrategy::kKeyNormalized}) {
    auto result = rewriter.Answer(q, strategy);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_groups(), reference->num_groups());
    for (const GroupResult& row : reference->rows()) {
      const GroupResult* other = result->Find(row.key);
      ASSERT_NE(other, nullptr);
      EXPECT_NEAR(other->aggregates[0], row.aggregates[0],
                  1e-6 * std::abs(row.aggregates[0]));
    }
  }
}

TEST_F(EndToEndTest, ErrorBoundsMostlyCoverTruthOnQg2) {
  auto exact = ExecuteExact(*table_, MakeQg2());
  ASSERT_TRUE(exact.ok());
  auto approx = Synopsis("congress").Answer(MakeQg2());
  ASSERT_TRUE(approx.ok());
  int covered = 0;
  int total = 0;
  for (const GroupResult& row : exact->rows()) {
    const auto est = approx->Find(row.key);
    ASSERT_TRUE(est.has_value());
    ++total;
    if (std::abs(est->estimates[0] - row.aggregates[0]) <= est->bounds[0]) {
      ++covered;
    }
  }
  EXPECT_GE(covered, total - 1);  // Chebyshev at 90% is conservative.
}

TEST_F(EndToEndTest, LargerSampleReducesCongressError) {
  // Figure 17's monotone trend, at two sample sizes.
  SynopsisConfig small;
  small.strategy = AllocationStrategy::kCongress;
  small.sample_fraction = 0.01;
  small.grouping_columns = tpcd::LineitemGroupingColumnNames();
  small.seed = 44;
  SynopsisConfig large = small;
  large.sample_fraction = 0.30;
  auto s_small = AquaSynopsis::Build(*table_, small);
  auto s_large = AquaSynopsis::Build(*table_, large);
  ASSERT_TRUE(s_small.ok() && s_large.ok());
  auto exact = ExecuteExact(*table_, MakeQg2());
  ASSERT_TRUE(exact.ok());
  auto a_small = s_small->Answer(MakeQg2());
  auto a_large = s_large->Answer(MakeQg2());
  ASSERT_TRUE(a_small.ok() && a_large.ok());
  double e_small = CompareAnswers(*exact, *a_small, 0).l1;
  double e_large = CompareAnswers(*exact, *a_large, 0).l1;
  EXPECT_LT(e_large, e_small);
}

TEST_F(EndToEndTest, IncrementalMaintenanceConvergesOnNewData) {
  // Register an incremental Congress relation on half the data, stream
  // the other half through the engine, and verify queries reflect the
  // whole relation.
  LineitemConfig config;
  config.num_tuples = 20000;
  config.num_groups = 27;
  config.group_skew_z = 0.86;
  config.seed = 77;
  auto data = GenerateLineitem(config);
  ASSERT_TRUE(data.ok());
  const Table& full = data->table;

  Table first_half = full.CloneEmpty();
  for (size_t r = 0; r < 10000; ++r) first_half.AppendRowFrom(full, r);

  SynopsisConfig sconfig;
  sconfig.strategy = AllocationStrategy::kCongress;
  sconfig.sample_size = 2000;
  sconfig.grouping_columns = tpcd::LineitemGroupingColumnNames();
  sconfig.incremental = true;
  sconfig.seed = 13;
  AquaEngine engine;
  ASSERT_TRUE(
      engine.RegisterTable("lineitem", std::move(first_half), sconfig).ok());

  std::vector<Value> row;
  for (size_t r = 10000; r < full.num_rows(); ++r) {
    row.clear();
    for (size_t c = 0; c < full.num_columns(); ++c) {
      row.push_back(full.GetValue(r, c));
    }
    ASSERT_TRUE(engine.Insert("lineitem", row).ok());
  }
  ASSERT_TRUE(engine.Refresh("lineitem").ok());
  auto synopsis = engine.GetSynopsis("lineitem");
  ASSERT_TRUE(synopsis.ok());
  EXPECT_EQ((*synopsis)->sample().total_population(), 20000u);
  EXPECT_EQ((*synopsis)->tuples_seen(), 20000u);

  auto exact = ExecuteExact(full, MakeQg2());
  auto approx = (*synopsis)->Answer(MakeQg2());
  ASSERT_TRUE(exact.ok() && approx.ok());
  auto report = CompareAnswers(*exact, *approx, 0);
  EXPECT_EQ(report.missing_groups, 0u);
  EXPECT_LT(report.l1, 15.0);
}

}  // namespace
}  // namespace congress
