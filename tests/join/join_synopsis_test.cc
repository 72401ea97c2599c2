#include "join/join_synopsis.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "engine/executor.h"
#include "sampling/builder.h"
#include "sql/parser.h"
#include "testing/oracles.h"
#include "tpcd/star.h"
#include "util/random.h"

namespace congress {
namespace {

tpcd::StarData MakeStar(uint64_t lineitems = 30'000) {
  tpcd::StarSchemaConfig config;
  config.num_lineitems = lineitems;
  config.num_orders = 3'000;
  config.num_parts = 300;
  config.num_priorities = 5;
  config.num_brands = 10;
  config.skew_z = 1.2;
  config.seed = 5;
  auto data = tpcd::GenerateStarSchema(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

JoinSynopsisConfig BaseConfig() {
  JoinSynopsisConfig config;
  config.strategy = AllocationStrategy::kCongress;
  config.sample_fraction = 0.05;
  config.grouping_columns = {"o_orderpriority", "p_brand"};
  config.seed = 9;
  return config;
}

TEST(StarGeneratorTest, ReferentialIntegrityByConstruction) {
  tpcd::StarData data = MakeStar(5'000);
  EXPECT_TRUE(ValidateStarSchema(data.MakeSchema()).ok());
  EXPECT_EQ(data.lineitem.num_rows(), 5'000u);
  EXPECT_EQ(data.orders.num_rows(), 3'000u);
  EXPECT_EQ(data.part.num_rows(), 300u);
}

TEST(StarGeneratorTest, DimensionAttributesSkewed) {
  tpcd::StarData data = MakeStar(20'000);
  auto counts = CountGroups(data.orders, {1});  // o_orderpriority.
  ASSERT_GE(counts.size(), 4u);
  uint64_t biggest = 0;
  uint64_t smallest = UINT64_MAX;
  for (const auto& [key, count] : counts) {
    biggest = std::max(biggest, count);
    smallest = std::min(smallest, count);
  }
  EXPECT_GT(biggest, 3 * smallest);
}

TEST(StarGeneratorTest, Validation) {
  tpcd::StarSchemaConfig config;
  config.num_lineitems = 0;
  EXPECT_FALSE(tpcd::GenerateStarSchema(config).ok());
  config = tpcd::StarSchemaConfig{};
  config.num_priorities = 0;
  EXPECT_FALSE(tpcd::GenerateStarSchema(config).ok());
}

TEST(JoinSynopsisTest, BuildsOverDimensionAttributes) {
  tpcd::StarData data = MakeStar();
  auto synopsis = JoinSynopsis::Build(data.MakeSchema(), BaseConfig());
  ASSERT_TRUE(synopsis.ok()) << synopsis.status().ToString();
  EXPECT_EQ(synopsis->sample().num_rows(), 1500u);  // 5% of 30K.
  EXPECT_EQ(synopsis->sample().total_population(), 30'000u);
  // Strata are (priority, brand) pairs from the *dimensions*.
  EXPECT_GT(synopsis->sample().strata().size(), 10u);
  EXPECT_LE(synopsis->sample().strata().size(), 50u);
}

TEST(JoinSynopsisTest, SampleMatchesBuildOverMaterializedJoin) {
  // Differential: streaming the fact table through the widener draws the
  // same sample, bit for bit, as the two-pass builder over the fully
  // materialized join with the same grouping, strategy, size and RNG.
  tpcd::StarData data = MakeStar(8'000);
  StarSchema schema = data.MakeSchema();
  auto joined = MaterializeStarJoin(schema);
  ASSERT_TRUE(joined.ok());
  std::vector<size_t> grouping;
  for (const std::string& name : BaseConfig().grouping_columns) {
    auto idx = joined->schema().FieldIndex(name);
    ASSERT_TRUE(idx.ok());
    grouping.push_back(*idx);
  }
  for (AllocationStrategy strategy :
       {AllocationStrategy::kHouse, AllocationStrategy::kSenate,
        AllocationStrategy::kBasicCongress, AllocationStrategy::kCongress}) {
    for (uint64_t seed : {9u, 31u}) {
      JoinSynopsisConfig config = BaseConfig();
      config.strategy = strategy;
      config.sample_size = 400;
      config.seed = seed;
      auto synopsis = JoinSynopsis::Build(schema, config);
      ASSERT_TRUE(synopsis.ok()) << synopsis.status().ToString();
      Random rng(seed);
      auto reference = BuildSample(*joined, grouping, strategy, 400.0, &rng);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      Status same = testing::CheckSamplesIdentical(
          synopsis->sample(), *reference, "join synopsis",
          "BuildSample over the materialized join");
      EXPECT_TRUE(same.ok())
          << AllocationStrategyToString(strategy) << " seed " << seed << ": "
          << same.ToString();
    }
  }
}

TEST(JoinSynopsisTest, AnswersMatchExactOnMaterializedJoin) {
  tpcd::StarData data = MakeStar();
  StarSchema schema = data.MakeSchema();
  auto synopsis = JoinSynopsis::Build(schema, BaseConfig());
  ASSERT_TRUE(synopsis.ok());
  auto joined = MaterializeStarJoin(schema);
  ASSERT_TRUE(joined.ok());

  // Group by order priority (a dimension attribute), SUM over a fact
  // measure — a query that would need a join without the synopsis.
  auto priority_col = synopsis->widened_schema().FieldIndex("o_orderpriority");
  auto quantity_col = synopsis->widened_schema().FieldIndex("l_quantity");
  ASSERT_TRUE(priority_col.ok() && quantity_col.ok());
  GroupByQuery q;
  q.group_columns = {*priority_col};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, *quantity_col}};

  auto exact = ExecuteExact(*joined, q);
  auto approx = synopsis->Answer(q);
  ASSERT_TRUE(exact.ok() && approx.ok());
  auto report = CompareAnswers(*exact, *approx, 0);
  EXPECT_EQ(report.missing_groups, 0u);
  EXPECT_LT(report.l1, 10.0);
}

TEST(JoinSynopsisTest, CongressBeatsHouseOnRareDimensionGroups) {
  tpcd::StarData data = MakeStar(60'000);
  StarSchema schema = data.MakeSchema();
  auto joined = MaterializeStarJoin(schema);
  ASSERT_TRUE(joined.ok());

  auto build = [&](AllocationStrategy strategy) {
    JoinSynopsisConfig config = BaseConfig();
    config.strategy = strategy;
    config.sample_fraction = 0.01;
    auto synopsis = JoinSynopsis::Build(schema, config);
    EXPECT_TRUE(synopsis.ok());
    return std::move(synopsis).value();
  };
  JoinSynopsis house = build(AllocationStrategy::kHouse);
  JoinSynopsis congress = build(AllocationStrategy::kCongress);

  auto priority_col = house.widened_schema().FieldIndex("o_orderpriority");
  auto brand_col = house.widened_schema().FieldIndex("p_brand");
  auto quantity_col = house.widened_schema().FieldIndex("l_quantity");
  ASSERT_TRUE(priority_col.ok() && brand_col.ok() && quantity_col.ok());
  GroupByQuery q;
  q.group_columns = {*priority_col, *brand_col};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, *quantity_col}};

  auto exact = ExecuteExact(*joined, q);
  ASSERT_TRUE(exact.ok());
  auto house_answer = house.Answer(q);
  auto congress_answer = congress.Answer(q);
  ASSERT_TRUE(house_answer.ok() && congress_answer.ok());
  auto house_report = CompareAnswers(*exact, *house_answer, 0);
  auto congress_report = CompareAnswers(*exact, *congress_answer, 0);
  EXPECT_LT(congress_report.l1, house_report.l1);
}

TEST(JoinSynopsisTest, AbsoluteSampleSizeAndValidation) {
  tpcd::StarData data = MakeStar(5'000);
  StarSchema schema = data.MakeSchema();

  JoinSynopsisConfig config = BaseConfig();
  config.sample_size = 321;
  auto synopsis = JoinSynopsis::Build(schema, config);
  ASSERT_TRUE(synopsis.ok());
  EXPECT_EQ(synopsis->sample().num_rows(), 321u);

  config = BaseConfig();
  config.grouping_columns = {};
  EXPECT_FALSE(JoinSynopsis::Build(schema, config).ok());
  config = BaseConfig();
  config.grouping_columns = {"no_such_column"};
  EXPECT_FALSE(JoinSynopsis::Build(schema, config).ok());
  config = BaseConfig();
  config.sample_fraction = 0.0;
  EXPECT_FALSE(JoinSynopsis::Build(schema, config).ok());
}

TEST(JoinSynopsisTest, SqlOverTheWidenedRelation) {
  // The paper's point restated: after the join synopsis, a multi-table
  // query "can be conceptually rewritten as a query on a single join
  // synopsis relation" — so plain single-table SQL works against the
  // widened schema.
  tpcd::StarData data = MakeStar(20'000);
  StarSchema schema = data.MakeSchema();
  auto synopsis = JoinSynopsis::Build(schema, BaseConfig());
  ASSERT_TRUE(synopsis.ok());
  auto query = sql::ParseQuery(
      "SELECT o_orderpriority, SUM(l_quantity) FROM joined "
      "GROUP BY o_orderpriority",
      synopsis->widened_schema());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto approx = synopsis->Answer(*query);
  ASSERT_TRUE(approx.ok());
  auto joined = MaterializeStarJoin(schema);
  ASSERT_TRUE(joined.ok());
  auto exact = ExecuteExact(*joined, *query);
  ASSERT_TRUE(exact.ok());
  auto report = CompareAnswers(*exact, *approx, 0);
  EXPECT_EQ(report.missing_groups, 0u);
  EXPECT_LT(report.l1, 12.0);
}

TEST(JoinSynopsisTest, MixedFactAndDimensionGrouping) {
  tpcd::StarData data = MakeStar(20'000);
  StarSchema schema = data.MakeSchema();
  JoinSynopsisConfig config = BaseConfig();
  // One grouping column from a dimension, plus quantiles... use the fact
  // FK itself as a (fact-side) grouping attribute alongside a dimension
  // attribute.
  config.grouping_columns = {"o_orderpriority"};
  config.sample_fraction = 0.05;
  auto synopsis = JoinSynopsis::Build(schema, config);
  ASSERT_TRUE(synopsis.ok());
  auto quantity_col = synopsis->widened_schema().FieldIndex("l_quantity");
  auto priority_col = synopsis->widened_schema().FieldIndex("o_orderpriority");
  ASSERT_TRUE(quantity_col.ok() && priority_col.ok());
  GroupByQuery q;
  q.group_columns = {*priority_col};
  q.aggregates = {AggregateSpec{AggregateKind::kAvg, *quantity_col}};
  auto answer = synopsis->Answer(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_GE(answer->num_groups(), 4u);
}

}  // namespace
}  // namespace congress
