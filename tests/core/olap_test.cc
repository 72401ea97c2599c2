#include "core/olap.h"

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "tpcd/lineitem.h"

namespace congress {
namespace {

class OlapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpcd::LineitemConfig config;
    config.num_tuples = 27'000;
    config.num_groups = 27;
    config.group_skew_z = 0.86;
    config.seed = 31;
    auto data = tpcd::GenerateLineitem(config);
    ASSERT_TRUE(data.ok());
    base_ = new Table(std::move(data->table));

    SynopsisConfig sconfig;
    sconfig.strategy = AllocationStrategy::kCongress;
    sconfig.sample_fraction = 0.2;
    sconfig.grouping_columns = tpcd::LineitemGroupingColumnNames();
    sconfig.seed = 5;
    auto synopsis = AquaSynopsis::Build(*base_, sconfig);
    ASSERT_TRUE(synopsis.ok());
    synopsis_ = new AquaSynopsis(std::move(synopsis).value());
  }

  static void TearDownTestSuite() {
    delete synopsis_;
    delete base_;
    synopsis_ = nullptr;
    base_ = nullptr;
  }

  static OlapNavigator MakeNavigator() {
    return OlapNavigator(
        synopsis_, {AggregateSpec{AggregateKind::kSum, tpcd::kLQuantity}});
  }

  static Table* base_;
  static AquaSynopsis* synopsis_;
};

Table* OlapTest::base_ = nullptr;
AquaSynopsis* OlapTest::synopsis_ = nullptr;

TEST_F(OlapTest, StartsAtApex) {
  OlapNavigator nav = MakeNavigator();
  EXPECT_TRUE(nav.grouping().empty());
  auto apex = nav.Current();
  ASSERT_TRUE(apex.ok());
  EXPECT_EQ(apex->num_groups(), 1u);
  EXPECT_EQ(nav.AvailableDimensions().size(), 3u);
}

TEST_F(OlapTest, DrillDownAddsLevels) {
  OlapNavigator nav = MakeNavigator();
  ASSERT_TRUE(nav.DrillDown("l_returnflag").ok());
  auto level1 = nav.Current();
  ASSERT_TRUE(level1.ok());
  EXPECT_EQ(level1->num_groups(), 3u);

  ASSERT_TRUE(nav.DrillDown("l_linestatus").ok());
  auto level2 = nav.Current();
  ASSERT_TRUE(level2.ok());
  EXPECT_EQ(level2->num_groups(), 9u);

  ASSERT_TRUE(nav.DrillDown("l_shipdate").ok());
  auto level3 = nav.Current();
  ASSERT_TRUE(level3.ok());
  EXPECT_EQ(level3->num_groups(), 27u);
  EXPECT_TRUE(nav.AvailableDimensions().empty());
}

TEST_F(OlapTest, RollUpRemovesInnermost) {
  OlapNavigator nav = MakeNavigator();
  ASSERT_TRUE(nav.DrillDown("l_returnflag").ok());
  ASSERT_TRUE(nav.DrillDown("l_linestatus").ok());
  ASSERT_TRUE(nav.RollUp().ok());
  EXPECT_EQ(nav.grouping(), (std::vector<std::string>{"l_returnflag"}));
  ASSERT_TRUE(nav.RollUp().ok());
  EXPECT_TRUE(nav.grouping().empty());
  EXPECT_FALSE(nav.RollUp().ok());  // Apex.
}

TEST_F(OlapTest, RollUpSpecificColumn) {
  OlapNavigator nav = MakeNavigator();
  ASSERT_TRUE(nav.DrillDown("l_returnflag").ok());
  ASSERT_TRUE(nav.DrillDown("l_linestatus").ok());
  ASSERT_TRUE(nav.RollUpColumn("l_returnflag").ok());
  EXPECT_EQ(nav.grouping(), (std::vector<std::string>{"l_linestatus"}));
  EXPECT_FALSE(nav.RollUpColumn("l_returnflag").ok());
}

TEST_F(OlapTest, DrillValidation) {
  OlapNavigator nav = MakeNavigator();
  EXPECT_FALSE(nav.DrillDown("l_quantity").ok());  // Measure, not dim.
  EXPECT_FALSE(nav.DrillDown("nonexistent").ok());
  ASSERT_TRUE(nav.DrillDown("l_returnflag").ok());
  EXPECT_FALSE(nav.DrillDown("l_returnflag").ok());  // Duplicate.
}

TEST_F(OlapTest, SliceAppliesPredicate) {
  OlapNavigator nav = MakeNavigator();
  ASSERT_TRUE(nav.DrillDown("l_returnflag").ok());
  auto unsliced = nav.Current();
  ASSERT_TRUE(unsliced.ok());
  nav.Slice(MakeRangePredicate(tpcd::kLQuantity, 1.0, 2.0));
  auto sliced = nav.Current();
  ASSERT_TRUE(sliced.ok());
  for (const auto& row : sliced->rows()) {
    const auto full = unsliced->Find(row.key);
    ASSERT_TRUE(full.has_value());
    EXPECT_LT(row.estimates[0], full->estimates[0]);
  }
  nav.Slice(nullptr);
  auto back = nav.Current();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_groups(), unsliced->num_groups());
}

TEST_F(OlapTest, EstimatesTrackExactThroughTheDrillPath) {
  OlapNavigator nav = MakeNavigator();
  for (const char* column :
       {"l_returnflag", "l_linestatus", "l_shipdate"}) {
    ASSERT_TRUE(nav.DrillDown(column).ok());
    auto approx = nav.Current();
    ASSERT_TRUE(approx.ok());
    GroupByQuery q;
    for (const std::string& name : nav.grouping()) {
      auto idx = base_->schema().FieldIndex(name);
      ASSERT_TRUE(idx.ok());
      q.group_columns.push_back(*idx);
    }
    q.aggregates = {AggregateSpec{AggregateKind::kSum, tpcd::kLQuantity}};
    auto exact = ExecuteExact(*base_, q);
    ASSERT_TRUE(exact.ok());
    ASSERT_EQ(approx->num_groups(), exact->num_groups());
    for (const GroupResult& row : exact->rows()) {
      const auto est = approx->Find(row.key);
      ASSERT_TRUE(est.has_value());
      // 20% sample: within 30% relative error per group at every level.
      EXPECT_NEAR(est->estimates[0], row.aggregates[0],
                  0.3 * row.aggregates[0] + 1.0);
    }
  }
}

}  // namespace
}  // namespace congress
