#include "engine/zone_map.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/predicate.h"

namespace congress {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr uint32_t kZone = ZoneMap::kZoneRows;

/// A one-column table holding `cells`.
Table Int64Table(const std::vector<int64_t>& cells) {
  Table t{Schema({Field{"i", DataType::kInt64}})};
  for (int64_t v : cells) EXPECT_TRUE(t.AppendRow({Value(v)}).ok());
  return t;
}

Table DoubleTable(const std::vector<double>& cells) {
  Table t{Schema({Field{"d", DataType::kDouble}})};
  for (double v : cells) EXPECT_TRUE(t.AppendRow({Value(v)}).ok());
  return t;
}

/// Classifies rows [begin, end) of `table` and checks the answer against
/// the filter: kNone selects no row, kAll every row. Returns the answer.
ZoneMatch ClassifyChecked(const Table& table, const Predicate& predicate,
                          uint32_t begin, uint32_t end) {
  const ZoneMap zones = ZoneMap::Build(table);
  const ZoneMatch match = predicate.Classify(zones, begin, end);
  SelectionVector selected;
  predicate.MatchBatch(table, begin, end, nullptr, &selected);
  if (match == ZoneMatch::kNone) {
    EXPECT_TRUE(selected.empty()) << predicate.ToString();
  } else if (match == ZoneMatch::kAll) {
    EXPECT_EQ(selected.size(), end - begin) << predicate.ToString();
  }
  return match;
}

ZoneMatch ClassifyAll(const Table& table, const PredicatePtr& predicate) {
  return ClassifyChecked(table, *predicate, 0,
                         static_cast<uint32_t>(table.num_rows()));
}

TEST(ZoneMapTest, RecordsTypedBoundsPerZone) {
  // Three zones, the last one partial; a string column has no bounds.
  Table t{Schema({Field{"i", DataType::kInt64}, Field{"d", DataType::kDouble},
                  Field{"s", DataType::kString}})};
  const uint32_t n = 2 * kZone + 10;
  for (uint32_t r = 0; r < n; ++r) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(n - r)),
                             Value(static_cast<double>(r) * 0.5), Value("x")})
                    .ok());
  }
  const ZoneMap zones = ZoneMap::Build(t);
  EXPECT_EQ(zones.num_rows(), n);
  EXPECT_EQ(zones.num_zones(), 3u);
  EXPECT_EQ(zones.bytes(), 3 * 2 * 16u);

  auto ints = zones.Int64Bounds(0, kZone, 2 * kZone);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(ints->min, static_cast<int64_t>(n - (2 * kZone - 1)));
  EXPECT_EQ(ints->max, static_cast<int64_t>(n - kZone));
  // A range inside one zone reads that zone's bounds; one across zones
  // reads the union of the zones it touches.
  ints = zones.Int64Bounds(0, 2 * kZone + 1, 2 * kZone + 2);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(ints->min, 1);
  EXPECT_EQ(ints->max, 10);
  auto doubles = zones.DoubleBounds(1, kZone - 1, kZone + 1);
  ASSERT_TRUE(doubles.has_value());
  EXPECT_EQ(doubles->min, 0.0);
  EXPECT_EQ(doubles->max, (2 * kZone - 1) * 0.5);
  auto widened = zones.NumericBounds(0, 0, n);
  ASSERT_TRUE(widened.has_value());
  EXPECT_EQ(widened->min, 1.0);
  EXPECT_EQ(widened->max, static_cast<double>(n));

  // Wrong type, string, out-of-range column, empty or overlong range.
  EXPECT_FALSE(zones.Int64Bounds(1, 0, n).has_value());
  EXPECT_FALSE(zones.DoubleBounds(0, 0, n).has_value());
  EXPECT_FALSE(zones.NumericBounds(2, 0, n).has_value());
  EXPECT_FALSE(zones.NumericBounds(3, 0, n).has_value());
  EXPECT_FALSE(zones.NumericBounds(0, 5, 5).has_value());
  EXPECT_FALSE(zones.NumericBounds(0, 0, n + 1).has_value());

  const ZoneMap empty = ZoneMap::Build(t.CloneEmpty());
  EXPECT_EQ(empty.num_zones(), 0u);
  EXPECT_EQ(empty.bytes(), 0u);
}

TEST(ZoneMapTest, NaNZoneIsUnknown) {
  std::vector<double> cells(2 * kZone, 1.0);
  cells[kZone + 7] = kNaN;  // Only the second zone holds a NaN.
  const Table t = DoubleTable(cells);
  const ZoneMap zones = ZoneMap::Build(t);
  EXPECT_TRUE(zones.DoubleBounds(0, 0, kZone).has_value());
  EXPECT_FALSE(zones.DoubleBounds(0, kZone, 2 * kZone).has_value());
  EXPECT_FALSE(zones.DoubleBounds(0, 0, 2 * kZone).has_value());

  // The clean zone decides; any range touching the NaN zone is filtered.
  const PredicatePtr range = MakeRangePredicate(0, 0.0, 2.0);
  EXPECT_EQ(ClassifyChecked(t, *range, 0, kZone), ZoneMatch::kAll);
  EXPECT_EQ(ClassifyChecked(t, *range, kZone, 2 * kZone), ZoneMatch::kSome);
  EXPECT_EQ(ClassifyChecked(t, *range, 0, 2 * kZone), ZoneMatch::kSome);
  const PredicatePtr ne =
      MakeComparisonPredicate(0, CompareOp::kNe, Value(5.0));
  EXPECT_EQ(ClassifyChecked(t, *ne, kZone, 2 * kZone), ZoneMatch::kSome);
  // A zone of NaN only is unknown too.
  EXPECT_EQ(ClassifyAll(DoubleTable({kNaN, kNaN}), range), ZoneMatch::kSome);
}

TEST(ZoneMapTest, SignedZerosCompareEqual) {
  const Table t = DoubleTable({-0.0, 0.0, -0.0});
  EXPECT_EQ(ClassifyAll(t, MakeRangePredicate(0, 0.0, 0.0)), ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeRangePredicate(0, -0.0, -0.0)),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeEqualsPredicate(0, Value(0.0))),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeEqualsPredicate(0, Value(-0.0))),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kLt,
                                                   Value(0.0))),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kNe,
                                                   Value(-0.0))),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyAll(t, MakeLessEqualPredicate(0, -0.0)), ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kGt,
                                                   Value(-0.0))),
            ZoneMatch::kNone);
}

TEST(ZoneMapTest, Int64LimitsWidenMonotonically) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const Table t = Int64Table({kMin, 0, kMax});
  // INT64_MAX widens to 2^63, INT64_MIN to -2^63 exactly.
  EXPECT_EQ(ClassifyAll(t, MakeRangePredicate(0, -0x1p63, 0x1p63)),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeRangePredicate(0, 0x1p64, 0x1p65)),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyAll(t, MakeRangePredicate(0, -1.0, 1.0)), ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(t, MakeLessEqualPredicate(0, 0x1p63)), ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kLt,
                                                   Value(-0x1p63))),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyAll(t, MakeEqualsPredicate(0, Value(kMax))),
            ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(Int64Table({kMax, kMax}),
                        MakeEqualsPredicate(0, Value(kMax))),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(Int64Table({kMax, kMax}),
                        MakeEqualsPredicate(0, Value(kMax - 1))),
            ZoneMatch::kNone);
}

TEST(ZoneMapTest, BeyondTwoToThe53EqualityStaysExact) {
  // 2^53 + 1 widens to 2^53. The widened compare (ComparisonPredicate)
  // matches it against 2^53; exact int64 equality (EqualsPredicate) does
  // not, and its Classify must not say kAll from widened bounds.
  constexpr int64_t k53 = int64_t{1} << 53;
  const Table t = Int64Table({k53 + 1, k53 + 1});
  EXPECT_EQ(ClassifyAll(t, MakeEqualsPredicate(0, Value(k53))),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyAll(t, MakeEqualsPredicate(0, Value(k53 + 1))),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kEq,
                                                   Value(k53))),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kGt,
                                                   Value(k53))),
            ZoneMatch::kNone);
  // 2^53 + 1 and 2^53 + 3 widen to 2^53 and 2^53 + 4.
  const Table spread = Int64Table({k53 + 1, k53 + 3});
  EXPECT_EQ(ClassifyAll(spread, MakeEqualsPredicate(0, Value(k53 + 2))),
            ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(spread, MakeRangePredicate(0, 0x1p53, 0x1p53 + 4.0)),
            ZoneMatch::kAll);
  // An int64 constant never equals a double cell, nor a double an int64.
  EXPECT_EQ(ClassifyAll(DoubleTable({1.0}),
                        MakeEqualsPredicate(0, Value(int64_t{1}))),
            ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(Int64Table({1}), MakeEqualsPredicate(0, Value(1.0))),
            ZoneMatch::kSome);
}

TEST(ZoneMapTest, NonIntegerBoundsOnInt64) {
  const Table t = Int64Table({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(ClassifyAll(t, MakeRangePredicate(0, 0.5, 10.5)), ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeRangePredicate(0, 10.5, 20.0)),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyAll(t, MakeRangePredicate(0, 1.5, 10.0)), ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(t, MakeRangePredicate(0, 3.2, 3.7)), ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(t, MakeLessEqualPredicate(0, 9.5)), ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(t, MakeLessEqualPredicate(0, 0.99)), ZoneMatch::kNone);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kGe,
                                                   Value(0.01))),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kEq,
                                                   Value(5.5))),
            ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kNe,
                                                   Value(10.5))),
            ZoneMatch::kAll);
}

TEST(ZoneMapTest, NaNBoundsMatchNothingButInequality) {
  const Table ints = Int64Table({1, 2, 3});
  const Table doubles = DoubleTable({1.0, 2.0, 3.0});
  for (const Table* t : {&ints, &doubles}) {
    EXPECT_EQ(ClassifyAll(*t, MakeRangePredicate(0, kNaN, 5.0)),
              ZoneMatch::kNone);
    EXPECT_EQ(ClassifyAll(*t, MakeRangePredicate(0, 0.0, kNaN)),
              ZoneMatch::kNone);
    EXPECT_EQ(ClassifyAll(*t, MakeLessEqualPredicate(0, kNaN)),
              ZoneMatch::kNone);
    for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kLe,
                         CompareOp::kGt, CompareOp::kGe}) {
      EXPECT_EQ(ClassifyAll(*t, MakeComparisonPredicate(0, op, Value(kNaN))),
                ZoneMatch::kNone);
    }
    EXPECT_EQ(ClassifyAll(*t, MakeComparisonPredicate(0, CompareOp::kNe,
                                                      Value(kNaN))),
              ZoneMatch::kAll);
  }
  EXPECT_EQ(ClassifyAll(doubles, MakeEqualsPredicate(0, Value(kNaN))),
            ZoneMatch::kNone);
}

TEST(ZoneMapTest, AndCombinesChildren) {
  const Table t = Int64Table({1, 2, 3, 4});
  const PredicatePtr all = MakeRangePredicate(0, 0, 10);
  const PredicatePtr none = MakeRangePredicate(0, 20, 30);
  const PredicatePtr some = MakeRangePredicate(0, 2, 3);
  EXPECT_EQ(ClassifyAll(t, MakeAndPredicate({})), ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeAndPredicate({all})), ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeAndPredicate({all, all})), ZoneMatch::kAll);
  EXPECT_EQ(ClassifyAll(t, MakeAndPredicate({all, some})), ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(t, MakeAndPredicate({some, none})), ZoneMatch::kNone);
  EXPECT_EQ(ClassifyAll(t, MakeAndPredicate({all, none, some})),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyAll(t, MakeAndPredicate({all, MakeTruePredicate()})),
            ZoneMatch::kAll);
}

/// A predicate with only the required members: no bounds reasoning.
class EvenPredicate final : public Predicate {
 public:
  bool Matches(const Table& table, size_t row) const override {
    return table.Int64Column(0)[row] % 2 == 0;
  }
  std::string ToString(const Schema*) const override { return "even"; }
};

TEST(ZoneMapTest, CustomPredicateIsAlwaysFiltered) {
  const Table t = Int64Table({2, 4, 6});
  const ZoneMap zones = ZoneMap::Build(t);
  EXPECT_EQ(EvenPredicate().Classify(zones, 0, 3), ZoneMatch::kSome);
  // Under AND, it keeps a proven-whole child from making the batch whole,
  // but not a proven-empty one from skipping it.
  const PredicatePtr even = std::make_shared<EvenPredicate>();
  EXPECT_EQ(ClassifyAll(t, MakeAndPredicate({MakeTruePredicate(), even})),
            ZoneMatch::kSome);
  EXPECT_EQ(
      ClassifyAll(t, MakeAndPredicate({even, MakeRangePredicate(0, 7, 9)})),
      ZoneMatch::kNone);
}

TEST(ZoneMapTest, StringColumnIsAlwaysFiltered) {
  Table t{Schema({Field{"s", DataType::kString}})};
  ASSERT_TRUE(t.AppendRow({Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("a")}).ok());
  EXPECT_EQ(ClassifyAll(t, MakeEqualsPredicate(0, Value("a"))),
            ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(t, MakeComparisonPredicate(0, CompareOp::kNe,
                                                   Value("b"))),
            ZoneMatch::kSome);
  EXPECT_EQ(ClassifyAll(t, MakeTruePredicate()), ZoneMatch::kAll);
}

/// Equal bits for every key cell and aggregate, in the same order.
void ExpectIdentical(const ApproximateResult& a, const ApproximateResult& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (size_t i = 0; i < a.num_groups(); ++i) {
    const ApproximateGroupRow x = a.row(i);
    const ApproximateGroupRow y = b.row(i);
    ASSERT_TRUE(std::ranges::equal(x.key, y.key)) << i;
    ASSERT_EQ(x.estimates.size(), y.estimates.size());
    for (size_t k = 0; k < x.estimates.size(); ++k) {
      EXPECT_EQ(std::bit_cast<uint64_t>(x.estimates[k]),
                std::bit_cast<uint64_t>(y.estimates[k]))
          << "group " << i << " aggregate " << k;
    }
  }
}

TEST(ZoneMapTest, ExactScanWithZonesIsBitIdentical) {
  // A clustered id (skips and whole batches), an unclustered value with
  // NaNs (unknown zones) and a small grouping column.
  Table t{Schema({Field{"id", DataType::kInt64}, Field{"g", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  const int64_t n = 20 * kZone + 33;
  for (int64_t r = 0; r < n; ++r) {
    const double v =
        r % 97 == 0 ? kNaN : static_cast<double>((r * 7919) % 1000) * 0.25;
    ASSERT_TRUE(t.AppendRow({Value(r), Value(r % 5), Value(v)}).ok());
  }
  const ZoneMap zones = ZoneMap::Build(t);
  const std::vector<PredicatePtr> predicates = {
      MakeRangePredicate(0, 1000, 3500.5),
      MakeRangePredicate(0, -5, static_cast<double>(n)),
      MakeRangePredicate(0, 1e9, 2e9),
      MakeRangePredicate(2, 10.0, 60.0),
      MakeAndPredicate({MakeRangePredicate(0, 700, 4000),
                        MakeComparisonPredicate(1, CompareOp::kNe,
                                                Value(int64_t{3}))}),
      MakeAndPredicate({MakeComparisonPredicate(0, CompareOp::kGe,
                                                Value(int64_t{2000})),
                        MakeLessEqualPredicate(2, 200.0)}),
      MakeComparisonPredicate(0, CompareOp::kLt, Value(int64_t{kZone * 3})),
      MakeEqualsPredicate(0, Value(int64_t{4242})),
  };
  GroupByQuery query;
  query.group_columns = {1};
  query.aggregates = {AggregateSpec{AggregateKind::kSum, 2},
                      AggregateSpec{AggregateKind::kCount, 0},
                      AggregateSpec{AggregateKind::kMin, 0},
                      AggregateSpec{AggregateKind::kMax, 2},
                      AggregateSpec{AggregateKind::kAvg, 0}};
  for (const PredicatePtr& predicate : predicates) {
    query.predicate = predicate;
    for (size_t threads : {1, 4}) {
      ExecutorOptions options;
      options.num_threads = threads;
      auto plain = ExecuteExact(t, query, options);
      auto zoned = ExecuteExact(t, query, options, &zones);
      ASSERT_TRUE(plain.ok() && zoned.ok()) << predicate->ToString();
      SCOPED_TRACE(predicate->ToString());
      ExpectIdentical(*plain, *zoned);
      // The COUNTs add up to the rows the predicate matches one by one.
      double matched = 0.0;
      for (const ApproximateGroupRow& row : zoned->rows()) {
        matched += row.estimates[1];
      }
      double want = 0.0;
      for (int64_t r = 0; r < n; ++r) want += predicate->Matches(t, r);
      EXPECT_EQ(matched, want);
    }
  }

  // A zone map of another table is refused.
  const ZoneMap other = ZoneMap::Build(Int64Table({1, 2, 3}));
  query.predicate = predicates[0];
  auto refused = ExecuteExact(t, query, {}, &other);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace congress
