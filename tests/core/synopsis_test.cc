#include "core/synopsis.h"

#include <gtest/gtest.h>

#include "core/rewriter.h"
#include "engine/executor.h"

namespace congress {
namespace {

Table MakeBase() {
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"kind", DataType::kInt64},
                  Field{"amount", DataType::kDouble}})};
  int serial = 0;
  auto fill = [&](const char* region, int64_t kind, int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(t.AppendRow({Value(region), Value(kind),
                               Value(static_cast<double>(serial++ % 9 + 1))})
                      .ok());
    }
  };
  fill("east", 0, 500);
  fill("east", 1, 300);
  fill("west", 0, 150);
  fill("west", 1, 50);
  return t;
}

SynopsisConfig BaseConfig() {
  SynopsisConfig config;
  config.grouping_columns = {"region", "kind"};
  config.sample_fraction = 0.2;
  config.seed = 11;
  return config;
}

GroupByQuery SumQuery() {
  GroupByQuery q;
  q.group_columns = {0};
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 2}};
  return q;
}

TEST(AquaSynopsisTest, BuildAndAnswer) {
  Table base = MakeBase();
  auto synopsis = AquaSynopsis::Build(base, BaseConfig());
  ASSERT_TRUE(synopsis.ok());
  EXPECT_EQ(synopsis->sample().num_rows(), 200u);
  EXPECT_EQ(synopsis->sample().total_population(), 1000u);
  EXPECT_EQ(synopsis->grouping_column_indices(),
            (std::vector<size_t>{0, 1}));
  EXPECT_EQ(synopsis->target_size(), 200u);
  EXPECT_EQ(synopsis->tuples_seen(), 1000u);

  auto answer = synopsis->Answer(SumQuery());
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->num_groups(), 2u);

  auto exact = ExecuteExact(base, SumQuery());
  ASSERT_TRUE(exact.ok());
  for (const ApproximateGroupRow& row : exact->rows()) {
    const auto est = answer->Find(row.key);
    ASSERT_TRUE(est.has_value());
    // 20% Congress sample on mild data: within 25%.
    EXPECT_NEAR(est->estimates[0], row.estimates[0], 0.25 * row.estimates[0]);
  }
}

TEST(AquaSynopsisTest, AbsoluteSampleSizeOverridesFraction) {
  Table base = MakeBase();
  SynopsisConfig config = BaseConfig();
  config.sample_size = 75;
  config.sample_fraction = 0.9;  // Ignored.
  auto synopsis = AquaSynopsis::Build(base, config);
  ASSERT_TRUE(synopsis.ok());
  EXPECT_EQ(synopsis->sample().num_rows(), 75u);
}

TEST(AquaSynopsisTest, AnswerViaEachStrategy) {
  Table base = MakeBase();
  auto synopsis = AquaSynopsis::Build(base, BaseConfig());
  ASSERT_TRUE(synopsis.ok());
  GroupByQuery q = SumQuery();
  Rewriter rewriter(synopsis->sample());
  auto reference = rewriter.Answer(q, RewriteStrategy::kIntegrated);
  ASSERT_TRUE(reference.ok());
  for (auto strategy :
       {RewriteStrategy::kNestedIntegrated, RewriteStrategy::kNormalized,
        RewriteStrategy::kKeyNormalized}) {
    auto result = rewriter.Answer(q, strategy);
    ASSERT_TRUE(result.ok());
    for (const ApproximateGroupRow& row : reference->rows()) {
      const auto other = result->Find(row.key);
      ASSERT_TRUE(other.has_value());
      EXPECT_NEAR(other->estimates[0], row.estimates[0],
                  1e-6 * row.estimates[0]);
    }
  }
}

TEST(AquaSynopsisTest, BuildValidation) {
  Table base = MakeBase();
  SynopsisConfig config = BaseConfig();
  config.grouping_columns = {};
  EXPECT_FALSE(AquaSynopsis::Build(base, config).ok());

  config = BaseConfig();
  config.grouping_columns = {"nonexistent"};
  EXPECT_FALSE(AquaSynopsis::Build(base, config).ok());

  config = BaseConfig();
  config.sample_fraction = 0.0;
  EXPECT_FALSE(AquaSynopsis::Build(base, config).ok());

  config = BaseConfig();
  config.sample_fraction = 1.5;
  EXPECT_FALSE(AquaSynopsis::Build(base, config).ok());
}

TEST(AquaSynopsisTest, IncrementalCongressStrategy) {
  Table base = MakeBase();
  SynopsisConfig config = BaseConfig();
  config.incremental = true;
  config.strategy = AllocationStrategy::kCongress;
  auto synopsis = AquaSynopsis::Build(base, config);
  ASSERT_TRUE(synopsis.ok());
  EXPECT_GT(synopsis->sample().num_rows(), 0u);
  EXPECT_EQ(synopsis->tuples_seen(), 1000u);
  auto answer = synopsis->Answer(SumQuery());
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->num_groups(), 2u);
}

TEST(AquaSynopsisTest, FromSampleServesQueriesLikeItsSource) {
  Table base = MakeBase();
  auto built = AquaSynopsis::Build(base, BaseConfig());
  ASSERT_TRUE(built.ok());

  // Hand the sample alone to FromSample, as recovery would after a
  // crash. The sample, not the config, names the grouping columns.
  SynopsisConfig config = BaseConfig();
  config.grouping_columns = {"amount"};
  auto restored = AquaSynopsis::FromSample(built->sample(), config,
                                           /*target_sample_size=*/150,
                                           /*tuples_seen=*/1234);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->config().grouping_columns,
            (std::vector<std::string>{"region", "kind"}));
  EXPECT_EQ(restored->grouping_column_indices(),
            (std::vector<size_t>{0, 1}));
  EXPECT_EQ(restored->target_size(), 150u);
  EXPECT_EQ(restored->tuples_seen(), 1234u);
  EXPECT_EQ(restored->sample().strata().size(),
            built->sample().strata().size());
  EXPECT_EQ(restored->sample().num_rows(), built->sample().num_rows());

  // Queries answer identically to the synopsis the sample came from.
  auto original = built->Answer(SumQuery());
  auto recovered = restored->Answer(SumQuery());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(original->num_groups(), recovered->num_groups());
  for (const ApproximateGroupRow& row : original->rows()) {
    const auto other = recovered->Find(row.key);
    ASSERT_TRUE(other.has_value());
    EXPECT_DOUBLE_EQ(row.estimates[0], other->estimates[0]);
    EXPECT_DOUBLE_EQ(row.bounds[0], other->bounds[0]);
  }
}

TEST(AquaSynopsisTest, FromSampleRejectsBadGrouping) {
  Table base = MakeBase();
  // No grouping columns.
  StratifiedSample ungrouped(base.schema(), {});
  EXPECT_EQ(AquaSynopsis::FromSample(ungrouped, BaseConfig(), 1, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A grouping column past the end of the schema.
  StratifiedSample out_of_range(base.schema(), {7});
  EXPECT_EQ(AquaSynopsis::FromSample(out_of_range, BaseConfig(), 1, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace congress
