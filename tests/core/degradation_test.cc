#include "core/degradation.h"

#include <chrono>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/aqua.h"
#include "obs/metrics.h"
#include "resilience/failpoint.h"
#include "sql/parser.h"

namespace congress {
namespace {

using resilience::FailpointRegistry;
using resilience::ScopedFailpoint;

constexpr char kSql[] =
    "SELECT region, SUM(amount) FROM sales GROUP BY region";

Table SalesTable() {
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"kind", DataType::kInt64},
                  Field{"amount", DataType::kDouble}})};
  int serial = 0;
  auto fill = [&](const char* region, int64_t kind, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(region), Value(kind),
                               Value(static_cast<double>(serial++ % 9 + 1))})
                      .ok());
    }
  };
  fill("east", 0, 600);
  fill("east", 1, 200);
  fill("west", 0, 150);
  fill("west", 1, 50);
  return t;
}

SynopsisConfig SalesConfig() {
  SynopsisConfig config;
  config.grouping_columns = {"region", "kind"};
  config.sample_fraction = 0.2;
  config.seed = 3;
  return config;
}

class DegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        engine_.RegisterTable("sales", SalesTable(), SalesConfig()).ok());
  }
  void TearDown() override { FailpointRegistry::Global().DisableAll(); }

  /// Checkpoints the engine's relation and restores it into `restored`,
  /// which then has no base relation and no fallbacks. The image, not the
  /// restore config, supplies the target size and stream position.
  void CheckpointAndRestore(AquaEngine* restored) {
    const std::string path = ::testing::TempDir() + "/degradation_test.snap";
    ASSERT_TRUE(engine_.Checkpoint("sales", path).ok());
    SynopsisConfig config = SalesConfig();
    config.sample_size = 50;
    Status st = restored->RestoreTable("sales", path, config);
    std::remove(path.c_str());
    ASSERT_TRUE(st.ok()) << st.ToString();
    auto original = engine_.GetSynopsis("sales");
    auto recovered = restored->GetSynopsis("sales");
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ((*recovered)->target_size(), (*original)->target_size());
    EXPECT_EQ((*recovered)->target_size(), 200u);
    EXPECT_EQ((*recovered)->tuples_seen(), 1000u);
  }

  AquaEngine engine_;
};

TEST(DegradationLevelTest, Names) {
  EXPECT_STREQ(DegradationLevelToString(DegradationLevel::kNone), "none");
  EXPECT_STREQ(DegradationLevelToString(DegradationLevel::kBasicCongress),
               "basic_congress");
  EXPECT_STREQ(DegradationLevelToString(DegradationLevel::kHouse), "house");
  EXPECT_STREQ(DegradationLevelToString(DegradationLevel::kExactRebuild),
               "exact_rebuild");
}

TEST(DegradationReasonTest, ToStringAndDegraded) {
  DegradationReason none;
  EXPECT_FALSE(none.degraded());

  DegradationReason reason;
  reason.level = DegradationLevel::kHouse;
  reason.cause = "primary: IOError: boom";
  reason.bound_widening = 1.5;
  EXPECT_TRUE(reason.degraded());
  std::string text = reason.ToString();
  EXPECT_NE(text.find("house"), std::string::npos);
  EXPECT_NE(text.find("boom"), std::string::npos);
}

TEST_F(DegradationTest, PrimaryAnswersWithoutDegradation) {
  auto answer = engine_.QueryResilient(kSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->degradation.level, DegradationLevel::kNone);
  EXPECT_FALSE(answer->degradation.degraded());
  EXPECT_EQ(answer->degradation.bound_widening, 1.0);
  EXPECT_TRUE(answer->degradation.cause.empty());
  EXPECT_EQ(answer->result.num_groups(), 2u);
}

TEST_F(DegradationTest, ParseAndBindErrorsBypassTheLadder) {
  EXPECT_FALSE(engine_.QueryResilient("SELECT nonsense").ok());
  EXPECT_FALSE(
      engine_
          .QueryResilient("SELECT region, SUM(amount) FROM nope GROUP BY region")
          .ok());
  EXPECT_FALSE(
      engine_
          .QueryResilient(
              "SELECT bogus, SUM(amount) FROM sales GROUP BY bogus")
          .ok());
}

TEST_F(DegradationTest, RestoredSnapshotAnswersFromThePrimary) {
  AquaEngine restored;
  ASSERT_NO_FATAL_FAILURE(CheckpointAndRestore(&restored));

  auto answer = restored.QueryResilient(kSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->degradation.level, DegradationLevel::kNone);
  EXPECT_GT(answer->epoch, 0u);
  EXPECT_EQ(answer->result.num_groups(), 2u);

  auto exact = restored.QueryExact(kSql);
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kFailedPrecondition);

  // A restored relation has no ingest to drain, so Refresh publishes
  // nothing.
  const uint64_t epoch = restored.epoch();
  EXPECT_TRUE(restored.Refresh("sales").ok());
  EXPECT_EQ(restored.epoch(), epoch);
}

#ifndef CONGRESS_DISABLE_FAILPOINTS
TEST_F(DegradationTest, RestoredSnapshotHasNoRungBelowThePrimary) {
  AquaEngine restored;
  ASSERT_NO_FATAL_FAILURE(CheckpointAndRestore(&restored));
  ScopedFailpoint primary("aqua/primary_answer");
  auto answer = restored.QueryResilient(kSql);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInternal);
  const std::string text = answer.status().ToString();
  EXPECT_NE(text.find("primary"), std::string::npos);
  EXPECT_NE(text.find("basic_congress"), std::string::npos);
  EXPECT_NE(text.find("house"), std::string::npos);
  EXPECT_NE(text.find("exact"), std::string::npos);
  EXPECT_NE(text.find("fallback unavailable"), std::string::npos);
}

TEST_F(DegradationTest, UnscorableFallbacksAreTriedNotSkipped) {
  // The error model cannot score MAX, so both fallbacks predict +inf,
  // keep their order and derive no widening. The walk still tries each
  // one rather than skipping it as ineligible; their own estimator
  // refuses MAX too, so the exact rung answers.
  constexpr char kMaxSql[] =
      "SELECT region, MAX(amount) FROM sales GROUP BY region";
  ScopedFailpoint primary("aqua/primary_answer");
  auto answer = engine_.QueryResilient(kMaxSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->degradation.level, DegradationLevel::kExactRebuild);
  EXPECT_EQ(answer->degradation.bound_widening, 1.0);
  const std::string& cause = answer->degradation.cause;
  const size_t basic = cause.find("basic_congress: InvalidArgument");
  const size_t house = cause.find("house: InvalidArgument");
  ASSERT_NE(basic, std::string::npos) << cause;
  ASSERT_NE(house, std::string::npos) << cause;
  EXPECT_LT(basic, house);

  auto exact = engine_.QueryExact(kMaxSql);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(answer->result.num_groups(), exact->rows().size());
  for (const ApproximateGroupRow& row : exact->rows()) {
    const auto got = answer->result.Find(row.key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->estimates[0], row.estimates[0]);
  }
}

TEST_F(DegradationTest, PassedDeadlineStopsTheWalkAfterThePrimary) {
  ScopedFailpoint primary("aqua/primary_answer");
  auto answer = engine_.QueryResilient(
      kSql, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(answer.status().ToString().find("primary"), std::string::npos);
}

TEST_F(DegradationTest, FirstRungFallsBackToBasicCongress) {
  ScopedFailpoint primary("aqua/primary_answer");
  auto answer = engine_.QueryResilient(kSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->degradation.level, DegradationLevel::kBasicCongress);
  // The widening is derived from the fallback-to-primary predicted
  // variance ratio, clamped to [1, 8] — not a fixed haircut.
  EXPECT_GE(answer->degradation.bound_widening, 1.0);
  EXPECT_LE(answer->degradation.bound_widening, 8.0);
  EXPECT_NE(answer->degradation.cause.find("primary"), std::string::npos);
  EXPECT_EQ(answer->result.num_groups(), 2u);
  for (const ApproximateGroupRow& row : answer->result.rows()) {
    EXPECT_GT(row.bounds[0], 0.0);
  }
}

TEST_F(DegradationTest, SecondRungFallsBackToHouse) {
  ScopedFailpoint primary("aqua/primary_answer");
  ScopedFailpoint basic("aqua/fallback_basic");
  auto answer = engine_.QueryResilient(kSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->degradation.level, DegradationLevel::kHouse);
  EXPECT_GE(answer->degradation.bound_widening, 1.0);
  EXPECT_LE(answer->degradation.bound_widening, 8.0);
  EXPECT_NE(answer->degradation.cause.find("primary"), std::string::npos);
  EXPECT_NE(answer->degradation.cause.find("basic_congress"),
            std::string::npos);
}

TEST_F(DegradationTest, LastRungIsExactWithZeroWidthBounds) {
  ScopedFailpoint primary("aqua/primary_answer");
  ScopedFailpoint basic("aqua/fallback_basic");
  ScopedFailpoint house("aqua/fallback_house");
  auto answer = engine_.QueryResilient(kSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->degradation.level, DegradationLevel::kExactRebuild);
  EXPECT_NE(answer->degradation.cause.find("house"), std::string::npos);

  // The exact rung reproduces the exact answer with zero-width bounds.
  auto exact = engine_.QueryExact(kSql);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(answer->result.num_groups(), exact->rows().size());
  for (const ApproximateGroupRow& row : exact->rows()) {
    const auto est = answer->result.Find(row.key);
    ASSERT_TRUE(est.has_value());
    EXPECT_DOUBLE_EQ(est->estimates[0], row.estimates[0]);
    EXPECT_DOUBLE_EQ(est->std_errors[0], 0.0);
    EXPECT_DOUBLE_EQ(est->bounds[0], 0.0);
  }
}

TEST_F(DegradationTest, AllRungsFailingIsAnErrorNamingEveryRung) {
  ScopedFailpoint primary("aqua/primary_answer");
  ScopedFailpoint basic("aqua/fallback_basic");
  ScopedFailpoint house("aqua/fallback_house");
  ScopedFailpoint exact("aqua/exact_rebuild");
  auto answer = engine_.QueryResilient(kSql);
  ASSERT_FALSE(answer.ok());
  const std::string text = answer.status().ToString();
  EXPECT_NE(text.find("primary"), std::string::npos);
  EXPECT_NE(text.find("basic_congress"), std::string::npos);
  EXPECT_NE(text.find("house"), std::string::npos);
  EXPECT_NE(text.find("exact"), std::string::npos);
}

TEST_F(DegradationTest, WideningScalesFallbackBounds) {
  // Same rung, queried twice: the cached fallback synopsis answers both
  // and the widening is a deterministic function of the snapshot's
  // moments, so bounds and estimates are identical across repeats.
  ScopedFailpoint primary("aqua/primary_answer");
  auto first = engine_.QueryResilient(kSql);
  auto second = engine_.QueryResilient(kSql);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->result.num_groups(), second->result.num_groups());
  for (const ApproximateGroupRow& row : first->result.rows()) {
    const auto other = second->result.Find(row.key);
    ASSERT_TRUE(other.has_value());
    EXPECT_DOUBLE_EQ(row.bounds[0], other->bounds[0]);
    EXPECT_DOUBLE_EQ(row.estimates[0], other->estimates[0]);
  }
}

TEST_F(DegradationTest, WideningIsDerivedFromFallbackVarianceNotFixed) {
  // Regression for the old behavior: every BasicCongress fallback used to
  // get bounds x1.25 and every House fallback x1.5, regardless of how the
  // fallback's allocation actually compared to the primary's. The
  // widening must now equal the reported factor exactly — the fallback's
  // raw answer scaled by degradation.bound_widening — and on this data,
  // where the fallback allocations track the primary closely, the derived
  // factor is below the old haircuts.
  auto snapshot = engine_.GetSnapshot("sales");
  ASSERT_TRUE(snapshot.ok());
  ASSERT_NE((*snapshot)->fallback_basic, nullptr);

  ScopedFailpoint primary("aqua/primary_answer");
  auto answer = engine_.QueryResilient(kSql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->degradation.level, DegradationLevel::kBasicCongress);
  const double widening = answer->degradation.bound_widening;
  EXPECT_NE(widening, 1.25);
  EXPECT_NE(widening, 1.5);

  // The served bounds are exactly the fallback's own answer widened by
  // the reported factor.
  auto statement = sql::ParseSelect(kSql);
  ASSERT_TRUE(statement.ok());
  auto query = sql::Bind(*statement, (*snapshot)->table->schema());
  ASSERT_TRUE(query.ok());
  auto raw = (*snapshot)->fallback_basic->Answer(*query);
  ASSERT_TRUE(raw.ok());
  ASSERT_EQ(raw->num_groups(), answer->result.num_groups());
  for (const ApproximateGroupRow& row : raw->rows()) {
    const auto served = answer->result.Find(row.key);
    ASSERT_TRUE(served.has_value());
    EXPECT_DOUBLE_EQ(served->bounds[0], row.bounds[0] * widening);
    EXPECT_DOUBLE_EQ(served->std_errors[0], row.std_errors[0] * widening);
    EXPECT_DOUBLE_EQ(served->estimates[0], row.estimates[0]);
  }
}

#ifndef CONGRESS_DISABLE_OBS
TEST_F(DegradationTest, DegradedAnswersMetricIncrements) {
  auto& counter = obs::MetricsRegistry::Global().GetCounter(
      "resilience.degraded_answers");
  const uint64_t before = counter.value();
  ScopedFailpoint primary("aqua/primary_answer");
  ASSERT_TRUE(engine_.QueryResilient(kSql).ok());
  EXPECT_EQ(counter.value(), before + 1);
}
#endif  // CONGRESS_DISABLE_OBS
#endif  // CONGRESS_DISABLE_FAILPOINTS

}  // namespace
}  // namespace congress
