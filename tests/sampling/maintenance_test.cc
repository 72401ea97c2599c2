#include "sampling/maintenance.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

namespace congress {
namespace {

Schema TwoColSchema() {
  return Schema({Field{"g", DataType::kInt64}, Field{"v", DataType::kDouble}});
}

Schema PairSchema() {
  return Schema({Field{"a", DataType::kInt64},
                 Field{"b", DataType::kInt64},
                 Field{"v", DataType::kDouble}});
}

std::vector<Value> Row(int64_t g, double v) {
  return {Value(g), Value(v)};
}

std::vector<Value> PairRow(int64_t a, int64_t b, double v) {
  return {Value(a), Value(b), Value(v)};
}

TEST(HouseMaintainerTest, KeepsAtMostX) {
  auto m = MakeHouseMaintainer(TwoColSchema(), {0}, 50, 1);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(m->Insert(Row(i % 10, i)).ok());
  }
  EXPECT_EQ(m->current_sample_size(), 50u);
  EXPECT_EQ(m->tuples_seen(), 1000u);
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_rows(), 50u);
  EXPECT_EQ(snap->total_population(), 1000u);
  EXPECT_EQ(snap->strata().size(), 10u);
}

TEST(HouseMaintainerTest, PopulationsExact) {
  auto m = MakeHouseMaintainer(TwoColSchema(), {0}, 10, 2);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(m->Insert(Row(i % 3, i)).ok());
  }
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  for (const Stratum& s : snap->strata()) {
    EXPECT_EQ(s.population, 100u);
  }
}

TEST(HouseMaintainerTest, RejectsBadRows) {
  auto m = MakeHouseMaintainer(TwoColSchema(), {0}, 10, 3);
  EXPECT_FALSE(m->Insert({Value(int64_t{1})}).ok());
  EXPECT_FALSE(m->Insert({Value(1.0), Value(1.0)}).ok());
}

TEST(ValidateRowTest, EveryMaintainerRefusesANaNGroupingCell) {
  // A NaN orders against nothing, so its stratum could never be found
  // again: every maintainer refuses it, by either insert path, and the
  // refused row leaves no trace.
  const Schema schema({Field{"g", DataType::kDouble},
                       Field{"v", DataType::kDouble}});
  const std::vector<Value> nan_row = {Value(std::nan("")), Value(1.0)};
  for (AllocationStrategy strategy :
       {AllocationStrategy::kHouse, AllocationStrategy::kSenate,
        AllocationStrategy::kBasicCongress, AllocationStrategy::kCongress}) {
    SCOPED_TRACE(AllocationStrategyToString(strategy));
    auto m = MakeMaintainer(strategy, schema, {0}, 20, 5);
    ASSERT_TRUE(m->Insert({Value(1.0), Value(2.0)}).ok());
    const Status insert = m->Insert(nan_row);
    EXPECT_EQ(insert.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(insert.message(),
              "grouping column 'g' holds NaN, which cannot stratify a sample");
    EXPECT_EQ(m->InsertWithKey(nan_row, {nan_row[0]}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(m->tuples_seen(), 1u);
    auto snap = MaterializeSnapshot(m.get(), 20);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ(snap->total_population(), 1u);
  }
  // A NaN outside the grouping columns is an ordinary measure value.
  EXPECT_TRUE(ValidateRow(schema, {1}, nan_row).ok());
  EXPECT_FALSE(ValidateRow(schema, {0}, nan_row).ok());
}

TEST(SenateMaintainerTest, EqualPerGroupSizes) {
  auto m = MakeSenateMaintainer(TwoColSchema(), {0}, 40, 4);
  // 4 groups x 250 tuples.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(m->Insert(Row(i % 4, i)).ok());
  }
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->strata().size(), 4u);
  for (const Stratum& s : snap->strata()) {
    EXPECT_EQ(s.sample_count, 10u);
    EXPECT_EQ(s.population, 250u);
  }
}

TEST(SenateMaintainerTest, NewGroupShrinksOthersLazily) {
  auto m = MakeSenateMaintainer(TwoColSchema(), {0}, 30, 5);
  // One group first: it absorbs the full target.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(m->Insert(Row(0, i)).ok());
  EXPECT_EQ(m->current_sample_size(), 30u);
  // Two more groups arrive: per-group target becomes 10.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(m->Insert(Row(1, i)).ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(m->Insert(Row(2, i)).ok());
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  for (const Stratum& s : snap->strata()) {
    EXPECT_EQ(s.sample_count, 10u);
  }
  EXPECT_EQ(snap->num_rows(), 30u);
}

TEST(SenateMaintainerTest, SmallGroupKeepsAllTuples) {
  auto m = MakeSenateMaintainer(TwoColSchema(), {0}, 100, 6);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(m->Insert(Row(0, i)).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(m->Insert(Row(1, i)).ok());
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  auto idx = snap->StratumIndex({Value(int64_t{1})});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(snap->strata()[*idx].sample_count, 3u);
  EXPECT_EQ(snap->strata()[*idx].population, 3u);
}

TEST(BasicCongressMaintainerTest, SizeFloatsAroundBudget) {
  auto m = MakeBasicCongressMaintainer(TwoColSchema(), {0}, 100, 7);
  // Skewed groups: 0 -> 800 tuples, 1..4 -> 50 each.
  for (int i = 0; i < 800; ++i) ASSERT_TRUE(m->Insert(Row(0, i)).ok());
  for (int g = 1; g <= 4; ++g) {
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(m->Insert(Row(g, i)).ok());
  }
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  // Pre-scaling Basic Congress keeps between Y and 2Y tuples.
  EXPECT_GE(snap->num_rows(), 100u);
  EXPECT_LE(snap->num_rows(), 200u);
  EXPECT_EQ(snap->total_population(), 1000u);
}

TEST(BasicCongressMaintainerTest, SmallGroupsGetSenateShare) {
  auto m = MakeBasicCongressMaintainer(TwoColSchema(), {0}, 100, 8);
  for (int i = 0; i < 900; ++i) ASSERT_TRUE(m->Insert(Row(0, i)).ok());
  for (int g = 1; g <= 4; ++g) {
    for (int i = 0; i < 25; ++i) ASSERT_TRUE(m->Insert(Row(g, i)).ok());
  }
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  // Senate target = Y/m = 20 per group; each small group (population 25)
  // must retain at least 20 tuples via its delta sample.
  for (int g = 1; g <= 4; ++g) {
    auto idx = snap->StratumIndex({Value(static_cast<int64_t>(g))});
    ASSERT_TRUE(idx.ok());
    EXPECT_GE(snap->strata()[*idx].sample_count, 20u) << "group " << g;
  }
  // The big group gets at least its House share.
  auto big = snap->StratumIndex({Value(int64_t{0})});
  ASSERT_TRUE(big.ok());
  EXPECT_GE(snap->strata()[*big].sample_count, 70u);
}

TEST(BasicCongressMaintainerTest, InvariantDeltaPlusReservoir) {
  // Theorem 6.1 invariant: every group retains at least
  // min(n_g, floor(Y/m)) tuples.
  auto m = MakeBasicCongressMaintainer(TwoColSchema(), {0}, 60, 9);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(m->Insert(Row(i % 6, i)).ok());
  }
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  const uint64_t target = 60 / 6;
  for (const Stratum& s : snap->strata()) {
    EXPECT_GE(s.sample_count, std::min<uint64_t>(s.population, target));
  }
}

TEST(BasicCongressMaintainerTest, UniformDataDegeneratesToHouse) {
  auto m = MakeBasicCongressMaintainer(TwoColSchema(), {0}, 100, 10);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(m->Insert(Row(i % 4, i)).ok());
  }
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  // Equal groups: House share == Senate share == 25; size stays ~Y.
  EXPECT_LE(snap->num_rows(), 130u);
  for (const Stratum& s : snap->strata()) {
    EXPECT_GE(s.sample_count, 20u);
    EXPECT_LE(s.sample_count, 40u);
  }
}

TEST(CongressMaintainerTest, TracksPopulations) {
  CongressMaintainer m(PairSchema(), {0, 1}, 50, 11);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(m.Insert(PairRow(i % 2, (i / 2) % 2, i)).ok());
  }
  EXPECT_EQ(m.tuples_seen(), 400u);
  auto snap = m.Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->strata().size(), 4u);
  for (const Stratum& s : snap->strata()) {
    EXPECT_EQ(s.population, 100u);
  }
}

TEST(CongressMaintainerTest, ScaledSnapshotRespectsBudget) {
  CongressMaintainer m(PairSchema(), {0, 1}, 80, 12);
  // Skewed: group (0,0) huge, others small.
  for (int i = 0; i < 900; ++i) ASSERT_TRUE(m.Insert(PairRow(0, 0, i)).ok());
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(m.Insert(PairRow(0, 1, i)).ok());
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(m.Insert(PairRow(1, 0, i)).ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(m.Insert(PairRow(1, 1, i)).ok());
  auto snap = m.SnapshotScaledTo(80);
  ASSERT_TRUE(snap.ok());
  EXPECT_LE(snap->num_rows(), 80u + 25u);  // Expected-size thinning jitter.
}

TEST(CongressMaintainerTest, ExpectedSizesTrackEq8) {
  // Statistical check: expected per-group sample sizes from the Eq.-8
  // maintainer should track the batch Congress allocation before
  // scaling. Use moderate sizes and average over seeds.
  const int trials = 30;
  const uint64_t y = 60;
  std::vector<double> avg(4, 0.0);
  for (int t = 0; t < trials; ++t) {
    CongressMaintainer m(PairSchema(), {0, 1}, y, 100 + t);
    // Figure-5-like shape: (0,0)=300, (0,1)=300, (0,2)... use 2x2:
    // (0,0)=600, (0,1)=200, (1,0)=150, (1,1)=50.
    struct G { int a, b, n; };
    for (const G& g : {G{0, 0, 600}, G{0, 1, 200}, G{1, 0, 150},
                       G{1, 1, 50}}) {
      for (int i = 0; i < g.n; ++i) {
        ASSERT_TRUE(m.Insert(PairRow(g.a, g.b, i)).ok());
      }
    }
    auto snap = m.Snapshot();
    ASSERT_TRUE(snap.ok());
    auto get = [&](int64_t a, int64_t b) {
      auto idx = snap->StratumIndex({Value(a), Value(b)});
      EXPECT_TRUE(idx.ok());
      return static_cast<double>(snap->strata()[*idx].sample_count);
    };
    avg[0] += get(0, 0);
    avg[1] += get(0, 1);
    avg[2] += get(1, 0);
    avg[3] += get(1, 1);
  }
  for (double& a : avg) a /= trials;
  // Eq. 8 targets (Y=60, before clamping): per group
  // p_g = max_T Y/(m_T n_{gT}); expected size = n_g * p_g.
  // Group (0,0): max(60/1000, 60/(2*800), 60/(2*750), 60/(4*600))*600
  //   = max(.06,.0375,.04,.025)*600 = 36.
  // (0,1): max(.06, 60/(2*800)=.0375, 60/(2*250)=.12, 60/(4*200)=.075)
  //   *200 = .12*200 = 24.
  // (1,0): max(.06, 60/(2*200)=.15, .04, .1)*150 = .15*150 = 22.5.
  // (1,1): max(.06, .15, .12, .3)*50 = 15.
  EXPECT_NEAR(avg[0], 36.0, 6.0);
  EXPECT_NEAR(avg[1], 24.0, 5.0);
  EXPECT_NEAR(avg[2], 22.5, 5.0);
  EXPECT_NEAR(avg[3], 15.0, 4.0);
}

TEST(CongressMaintainerTest, SnapshotThenMoreInserts) {
  CongressMaintainer m(TwoColSchema(), {0}, 30, 13);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(m.Insert(Row(i % 2, i)).ok());
  auto snap1 = m.Snapshot();
  ASSERT_TRUE(snap1.ok());
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(m.Insert(Row(i % 4, i)).ok());
  auto snap2 = m.Snapshot();
  ASSERT_TRUE(snap2.ok());
  EXPECT_EQ(snap2->strata().size(), 4u);
  EXPECT_EQ(snap2->total_population(), 400u);
}

TEST(CongressMaintainerTest, WithinGroupRetentionIsUniform) {
  // Statistical check of the [GM98] decay process: within one group,
  // every tuple must survive to the snapshot with equal probability, no
  // matter when it was inserted (early tuples are admitted at high p and
  // thinned; late tuples are admitted at the final p directly).
  const int group_size = 40;
  const int trials = 3000;
  std::vector<int> retained(group_size, 0);
  for (int trial = 0; trial < trials; ++trial) {
    CongressMaintainer m(TwoColSchema(), {0}, 20, 7000 + trial);
    // Two groups so the target probability decays as data arrives.
    for (int i = 0; i < group_size; ++i) {
      ASSERT_TRUE(m.Insert(Row(0, i)).ok());
      ASSERT_TRUE(m.Insert(Row(1, 1000 + i)).ok());
    }
    auto snap = m.Snapshot();
    ASSERT_TRUE(snap.ok());
    const Table& rows = snap->rows();
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      if (rows.Int64Column(0)[r] != 0) continue;
      retained[static_cast<size_t>(rows.DoubleColumn(1)[r])] += 1;
    }
  }
  // Chi-square goodness-of-fit against uniform retention; 39 dof, 99.9th
  // percentile ~ 72.1.
  double total = 0.0;
  for (int c : retained) total += c;
  double expected = total / group_size;
  ASSERT_GT(expected, 10.0);  // Enough mass for the test to mean anything.
  double chi2 = 0.0;
  for (int c : retained) {
    double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 72.1);
}

TEST(CongressTargetMaintainerTest, TracksEq4Targets) {
  // Figure-5-shaped stream: groups (a,b) with sizes 600/200/150/50 and
  // Y = 60. The Eq. 4 targets are max over T of (Y/m_T)(n_g/n_h):
  // (0,0): max(.06*600, 30*600/800, 30*600/750, 15) = 36? Compute:
  //   House 36, T={a}: (60/2)*(600/800)=22.5, T={b}: 24, T=AB: 15 -> 36.
  // (0,1): House 12, {a}: 7.5, {b}: (30)*(200/250)=24, AB: 15 -> 24.
  // (1,0): House 9, {a}: 30*(150/200)=22.5, {b}: 6, AB: 15 -> 22.5.
  // (1,1): House 3, {a}: 7.5, {b}: 6, AB: 15 -> 15.
  auto m = MakeCongressTargetMaintainer(PairSchema(), {0, 1}, 60, 21);
  struct G { int a, b, n; };
  for (const G& g :
       {G{0, 0, 600}, G{0, 1, 200}, G{1, 0, 150}, G{1, 1, 50}}) {
    for (int i = 0; i < g.n; ++i) {
      ASSERT_TRUE(m->Insert(PairRow(g.a, g.b, i)).ok());
    }
  }
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  auto get = [&](int64_t a, int64_t b) {
    auto idx = snap->StratumIndex({Value(a), Value(b)});
    EXPECT_TRUE(idx.ok());
    return snap->strata()[*idx].sample_count;
  };
  // Reservoir sizes equal ceil(target) exactly once enough tuples passed.
  EXPECT_EQ(get(0, 0), 36u);
  EXPECT_EQ(get(0, 1), 24u);
  EXPECT_EQ(get(1, 0), 23u);  // ceil(22.5).
  EXPECT_EQ(get(1, 1), 15u);
}

TEST(CongressTargetMaintainerTest, NewGroupsShrinkOldTargets) {
  auto m = MakeCongressTargetMaintainer(TwoColSchema(), {0}, 40, 22);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(m->Insert(Row(0, i)).ok());
  {
    auto snap = m->Snapshot();
    ASSERT_TRUE(snap.ok());
    // Single group: target = Y.
    EXPECT_EQ(snap->num_rows(), 40u);
  }
  for (int g = 1; g < 4; ++g) {
    for (int i = 0; i < 500; ++i) ASSERT_TRUE(m->Insert(Row(g, i)).ok());
  }
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  // Four equal groups: |G|=1 Congress = BasicCongress; every share is
  // max(Y/4 house, Y/4 senate) = 10.
  for (const Stratum& s : snap->strata()) {
    EXPECT_EQ(s.sample_count, 10u);
  }
}

TEST(CongressTargetMaintainerTest, PopulationsAndValidation) {
  auto m = MakeCongressTargetMaintainer(PairSchema(), {0, 1}, 30, 23);
  EXPECT_FALSE(m->Insert({Value(int64_t{1})}).ok());
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(m->Insert(PairRow(i % 3, 0, i)).ok());
  }
  EXPECT_EQ(m->tuples_seen(), 90u);
  auto snap = m->Snapshot();
  ASSERT_TRUE(snap.ok());
  for (const Stratum& s : snap->strata()) {
    EXPECT_EQ(s.population, 30u);
  }
}

TEST(BuildSampleOnePassTest, AllStrategiesProduceValidSamples) {
  Table t{TwoColSchema()};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(static_cast<int64_t>(i % 5)),
                     Value(static_cast<double>(i))})
            .ok());
  }
  for (auto strategy :
       {AllocationStrategy::kHouse, AllocationStrategy::kSenate,
        AllocationStrategy::kBasicCongress, AllocationStrategy::kCongress}) {
    auto sample = BuildSampleOnePass(t, {0}, strategy, 100, 14);
    ASSERT_TRUE(sample.ok()) << AllocationStrategyToString(strategy);
    EXPECT_EQ(sample->strata().size(), 5u);
    EXPECT_EQ(sample->total_population(), 1000u);
    EXPECT_GT(sample->num_rows(), 50u);
    EXPECT_LT(sample->num_rows(), 250u);
    // Every row's stratum assignment is consistent.
    for (size_t r = 0; r < sample->num_rows(); ++r) {
      const Stratum& s = sample->strata()[sample->row_strata()[r]];
      EXPECT_EQ(sample->rows().GetValue(r, 0), s.key[0]);
    }
  }
}

TEST(BuildSampleOnePassTest, OnePassSenateMatchesTwoPassExpectation) {
  Table t{TwoColSchema()};
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(static_cast<int64_t>(i % 3)),
                     Value(static_cast<double>(i))})
            .ok());
  }
  auto sample = BuildSampleOnePass(t, {0}, AllocationStrategy::kSenate, 90, 15);
  ASSERT_TRUE(sample.ok());
  for (const Stratum& s : sample->strata()) {
    EXPECT_EQ(s.sample_count, 30u);
  }
}

}  // namespace
}  // namespace congress
