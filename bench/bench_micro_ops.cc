// Micro-benchmarks for the library's hot paths: reservoir offers, Zipf
// sampling, group census, allocation, estimation, the four rewrite
// plans, and maintainer inserts — plus the batch kernel layer
// (predicate selection vectors, group-id interning, hash-join probe).
//
// Two modes:
//   * default: Google-benchmark suite (BM_* below), for interactive
//     profiling with the usual --benchmark_filter flags;
//   * --json <path>: the repo's JsonReport format over the kernel
//     micro-ops, so CI can gate the vectorized layer against
//     bench/baselines/ci_baseline.json via ci/compare_bench.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "bench/common.h"
#include "core/estimator.h"
#include "core/rewriter.h"
#include "engine/executor.h"
#include "engine/kernels.h"
#include "engine/predicate.h"
#include "sampling/builder.h"
#include "sampling/maintenance.h"
#include "sampling/reservoir.h"
#include "storage/group_index.h"
#include "storage/string_dict.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"
#include "util/zipf.h"

namespace congress {
namespace {

const tpcd::LineitemData& SharedData() {
  static const tpcd::LineitemData* data = [] {
    tpcd::LineitemConfig config;
    config.num_tuples = 200'000;
    config.num_groups = 1000;
    config.group_skew_z = 0.86;
    config.seed = 42;
    auto result = tpcd::GenerateLineitem(config);
    return new tpcd::LineitemData(std::move(result).value());
  }();
  return *data;
}

const StratifiedSample& SharedSample() {
  static const StratifiedSample* sample = [] {
    Random rng(7);
    auto result =
        BuildSample(SharedData().table, tpcd::LineitemGroupingColumns(),
                    AllocationStrategy::kCongress, 14'000.0, &rng);
    return new StratifiedSample(std::move(result).value());
  }();
  return *sample;
}

const Rewriter& SharedRewriter() {
  static const Rewriter* rewriter = new Rewriter(SharedSample());
  return *rewriter;
}

/// String-keyed variant of the shared lineitem table: l_returnflag and
/// l_linestatus re-rendered as short string labels (the l_returnflag
/// shape the paper's Q1 groups on), l_shipdate kept as int64, plus the
/// quantity measure. Built once, outside any timed region, so the
/// group-by records measure scan/intern cost, not table construction.
const Table& SharedStringData() {
  static const Table* table = [] {
    const Table& src = SharedData().table;
    Schema schema({Field{"s_returnflag", DataType::kString},
                   Field{"s_linestatus", DataType::kString},
                   Field{"l_shipdate", DataType::kInt64},
                   Field{"l_quantity", DataType::kDouble}});
    auto* out = new Table(schema);
    out->Reserve(src.num_rows());
    const std::vector<int64_t>& flags = src.Int64Column(tpcd::kLReturnFlag);
    const std::vector<int64_t>& statuses =
        src.Int64Column(tpcd::kLLineStatus);
    const std::vector<int64_t>& dates = src.Int64Column(tpcd::kLShipDate);
    const std::vector<double>& qty = src.DoubleColumn(tpcd::kLQuantity);
    std::vector<Value> row(4);
    for (size_t r = 0; r < src.num_rows(); ++r) {
      row[0] = Value("flag-" + std::to_string(flags[r]));
      row[1] = Value("status-" + std::to_string(statuses[r]));
      row[2] = Value(dates[r]);
      row[3] = Value(qty[r]);
      if (!out->AppendRow(row).ok()) std::abort();
    }
    return out;
  }();
  return *table;
}

void BM_ReservoirOffer(benchmark::State& state) {
  Random rng(1);
  ReservoirSampler<uint64_t> res(static_cast<size_t>(state.range(0)));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(res.Offer(i++, &rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReservoirOffer)->Arg(100)->Arg(10'000);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution dist(static_cast<uint64_t>(state.range(0)), 0.86);
  Random rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(200'000);

void BM_GroupCensus(benchmark::State& state) {
  const Table& t = SharedData().table;
  for (auto _ : state) {
    auto stats =
        GroupStatistics::Compute(t, tpcd::LineitemGroupingColumns());
    benchmark::DoNotOptimize(stats.num_groups());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupCensus);

void BM_AllocateCongress(benchmark::State& state) {
  static const GroupStatistics stats = GroupStatistics::Compute(
      SharedData().table, tpcd::LineitemGroupingColumns());
  for (auto _ : state) {
    Allocation alloc = AllocateCongress(stats, 14'000.0);
    benchmark::DoNotOptimize(alloc.Total());
  }
}
BENCHMARK(BM_AllocateCongress);

void BM_BuildCongressSample(benchmark::State& state) {
  const Table& t = SharedData().table;
  uint64_t seed = 0;
  for (auto _ : state) {
    Random rng(seed++);
    auto sample = BuildSample(t, tpcd::LineitemGroupingColumns(),
                              AllocationStrategy::kCongress, 14'000.0, &rng);
    benchmark::DoNotOptimize(sample.ok());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_BuildCongressSample);

void BM_EstimateQg2(benchmark::State& state) {
  const StratifiedSample& sample = SharedSample();
  const SampleMoments moments = SampleMoments::Compute(sample);
  GroupByQuery q = tpcd::MakeQg2();
  for (auto _ : state) {
    auto result = EstimateGroupBy(sample, moments, q);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * sample.num_rows());
}
BENCHMARK(BM_EstimateQg2);

void BM_Rewrite(benchmark::State& state) {
  const Rewriter& rewriter = SharedRewriter();
  auto strategy = static_cast<RewriteStrategy>(state.range(0));
  GroupByQuery q = tpcd::MakeQg2();
  for (auto _ : state) {
    auto result = rewriter.Answer(q, strategy);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetLabel(RewriteStrategyToString(strategy));
  state.SetItemsProcessed(state.iterations() *
                          SharedSample().num_rows());
}
BENCHMARK(BM_Rewrite)->DenseRange(0, 3);

void BM_MaintainerInsert(benchmark::State& state) {
  const Table& t = SharedData().table;
  auto strategy = static_cast<AllocationStrategy>(state.range(0));
  std::unique_ptr<SampleMaintainer> maintainer;
  std::unique_ptr<CongressMaintainer> congress;
  SampleMaintainer* target = nullptr;
  switch (strategy) {
    case AllocationStrategy::kHouse:
      maintainer =
          MakeHouseMaintainer(t.schema(), tpcd::LineitemGroupingColumns(),
                              14'000, 3);
      break;
    case AllocationStrategy::kSenate:
      maintainer =
          MakeSenateMaintainer(t.schema(), tpcd::LineitemGroupingColumns(),
                               14'000, 3);
      break;
    case AllocationStrategy::kBasicCongress:
      maintainer = MakeBasicCongressMaintainer(
          t.schema(), tpcd::LineitemGroupingColumns(), 14'000, 3);
      break;
    case AllocationStrategy::kCongress:
      congress = std::make_unique<CongressMaintainer>(
          t.schema(), tpcd::LineitemGroupingColumns(), 14'000, 3);
      break;
  }
  target = congress ? static_cast<SampleMaintainer*>(congress.get())
                    : maintainer.get();
  std::vector<Value> row;
  size_t r = 0;
  for (auto _ : state) {
    row.clear();
    for (size_t c = 0; c < t.num_columns(); ++c) {
      row.push_back(t.GetValue(r, c));
    }
    benchmark::DoNotOptimize(target->Insert(row).ok());
    r = (r + 1) % t.num_rows();
  }
  state.SetLabel(AllocationStrategyToString(strategy));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaintainerInsert)->DenseRange(0, 3);

// --json mode: the kernel micro-ops CI gates on. Each record times one
// hot primitive of the vectorized batch layer on the shared 200K-tuple
// lineitem table, scalar-vs-batch pairs side by side so the report
// itself documents the kernel speedups.
int RunJsonMicroBenches(int argc, char** argv) {
  bench::PrintHeader(
      "Kernel micro-ops: selection-vector filters, group interning, "
      "join probe",
      "batch kernels beat the per-row scalar paths they replaced while "
      "staying bit-identical (asserted here via match counts)");
  const Table& t = SharedData().table;
  const double tuples = static_cast<double>(t.num_rows());
  bench::JsonReport report(argc, argv);
  const int runs =
      std::max(1, static_cast<int>(bench::ArgOr(argc, argv, "--runs", 5)));

  // Selective conjunction over two numeric columns — the shape every
  // rewriter/estimator scan feeds MatchBatch.
  PredicatePtr pred = MakeAndPredicate(
      {MakeRangePredicate(tpcd::kLId, 0.25 * tuples, 0.75 * tuples),
       MakeLessEqualPredicate(tpcd::kLQuantity, 25.0)});

  size_t scalar_hits = 0;
  double scalar_s = bench::MeasureSeconds(
      [&] {
        size_t hits = 0;
        for (size_t row = 0; row < t.num_rows(); ++row) {
          if (pred->Matches(t, row)) ++hits;
        }
        scalar_hits = hits;
      },
      runs);

  size_t batch_hits = 0;
  SelectionVector selected;
  constexpr uint32_t kBatch = 2048;
  double batch_s = bench::MeasureSeconds(
      [&] {
        size_t hits = 0;
        const auto n = static_cast<uint32_t>(t.num_rows());
        for (uint32_t begin = 0; begin < n; begin += kBatch) {
          selected.clear();
          pred->MatchBatch(t, begin, std::min(begin + kBatch, n),
                           /*sel_in=*/nullptr, &selected);
          hits += selected.size();
        }
        batch_hits = hits;
      },
      runs);
  bool identical = scalar_hits == batch_hits;
  std::printf("predicate   scalar %.4fs  batch %.4fs  (%.2fx, %zu rows "
              "selected, identical=%s)\n",
              scalar_s, batch_s, scalar_s / batch_s, batch_hits,
              identical ? "yes" : "NO");
  report.Add("micro_predicate_scalar", {{"tuples", tuples}}, scalar_s,
             identical ? 0.0 : -1.0);
  report.Add("micro_predicate_batch", {{"tuples", tuples}}, batch_s,
             identical ? 0.0 : -1.0);

  // Group-id interning: the composite three-column grouping key vs the
  // single-int64 fast path (l_shipdate alone), both through the flat
  // open-addressing dictionaries.
  double composite_s = bench::MeasureSeconds(
      [&] {
        auto index = GroupIndex::Build(t, tpcd::LineitemGroupingColumns());
        if (!index.ok()) std::abort();
      },
      runs);
  double fastpath_s = bench::MeasureSeconds(
      [&] {
        auto index = GroupIndex::Build(t, {tpcd::kLShipDate});
        if (!index.ok()) std::abort();
      },
      runs);
  std::printf("intern      composite %.4fs  int64 fast path %.4fs\n",
              composite_s, fastpath_s);
  report.Add("micro_intern_composite", {{"tuples", tuples}}, composite_s,
             0.0);
  report.Add("micro_intern_fastpath", {{"tuples", tuples}}, fastpath_s, 0.0);

  // String-key and multi-column group-by: intern micro-ops plus full
  // exact_groupby workloads over the string-keyed lineitem variant —
  // the l_returnflag-style shapes the dictionary-encoding work targets.
  const Table& st = SharedStringData();
  double intern_string_s = bench::MeasureSeconds(
      [&] {
        auto index = GroupIndex::Build(st, {0});
        if (!index.ok()) std::abort();
      },
      runs);
  double intern_multicol_s = bench::MeasureSeconds(
      [&] {
        auto index = GroupIndex::Build(st, {0, 1, 2});
        if (!index.ok()) std::abort();
      },
      runs);
  std::printf("intern      string %.4fs  multi-column %.4fs\n",
              intern_string_s, intern_multicol_s);
  report.Add("micro_intern_string", {{"tuples", tuples}}, intern_string_s,
             0.0);
  report.Add("micro_intern_multicol", {{"tuples", tuples}}, intern_multicol_s,
             0.0);

  // Dictionary-encode throughput: intern every string of a column into a
  // fresh StringDictionary — the load-time cost the encoded columns pay
  // once so every later group-by/filter runs on int32 codes.
  const std::vector<std::string>& flag_strings = st.StringColumn(0);
  size_t encoded_codes = 0;
  double dict_encode_s = bench::MeasureSeconds(
      [&] {
        StringDictionary dict;
        dict.Reserve(16);
        int64_t sink = 0;
        for (const std::string& s : flag_strings) sink += dict.GetOrAdd(s);
        encoded_codes = dict.size() + static_cast<size_t>(sink == -1);
      },
      runs);
  std::printf("dict-encode %.4fs  (%zu rows, %zu distinct)\n", dict_encode_s,
              flag_strings.size(), encoded_codes);
  report.Add("micro_dict_encode", {{"tuples", tuples}}, dict_encode_s, 0.0);

  GroupByQuery string_q;
  string_q.group_columns = {0};
  string_q.aggregates = {AggregateSpec(AggregateKind::kSum, 3),
                         AggregateSpec(AggregateKind::kCount, 0)};
  GroupByQuery multicol_q;
  multicol_q.group_columns = {0, 1, 2};
  multicol_q.aggregates = string_q.aggregates;
  size_t string_groups = 0;
  double groupby_string_s = bench::MeasureSeconds(
      [&] {
        auto result = ExecuteExact(st, string_q);
        if (!result.ok()) std::abort();
        string_groups = result->num_groups();
      },
      runs);
  size_t multicol_groups = 0;
  double groupby_multicol_s = bench::MeasureSeconds(
      [&] {
        auto result = ExecuteExact(st, multicol_q);
        if (!result.ok()) std::abort();
        multicol_groups = result->num_groups();
      },
      runs);
  std::printf("groupby     string %.4fs (%zu groups)  multi-column %.4fs "
              "(%zu groups)\n",
              groupby_string_s, string_groups, groupby_multicol_s,
              multicol_groups);
  report.Add("exact_groupby_string", {{"tuples", tuples}}, groupby_string_s,
             0.0);
  report.Add("exact_groupby_multicol", {{"tuples", tuples}},
             groupby_multicol_s, 0.0);

  // Hash-join probe: fact table against a distinct-shipdate dimension,
  // exercising the batch probe plus the columnar gather emit.
  Table dim{Schema({Field{"d_shipdate", DataType::kInt64},
                    Field{"d_payload", DataType::kDouble}})};
  {
    auto dim_index = GroupIndex::Build(t, {tpcd::kLShipDate});
    if (!dim_index.ok()) std::abort();
    for (const GroupKey& key : dim_index->keys()) {
      if (!dim.AppendRow({key[0], Value(0.5)}).ok()) std::abort();
    }
  }
  size_t join_rows = 0;
  double join_s = bench::MeasureSeconds(
      [&] {
        auto joined =
            HashJoin(t, {tpcd::kLShipDate}, dim, {0}, ExecutorOptions{});
        if (!joined.ok()) std::abort();
        join_rows = joined->num_rows();
      },
      runs);
  identical = join_rows == t.num_rows();  // Every fact row matches once.
  std::printf("join probe  %.4fs (%zu output rows, identical=%s)\n", join_s,
              join_rows, identical ? "yes" : "NO");
  report.Add("micro_join_probe", {{"tuples", tuples}}, join_s,
             identical ? 0.0 : -1.0);

  report.Write();
  return 0;
}

}  // namespace
}  // namespace congress

int main(int argc, char** argv) {
  // `--json <path>` selects the CI report mode; anything else falls
  // through to the Google-benchmark driver.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return congress::RunJsonMicroBenches(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
