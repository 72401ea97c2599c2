#ifndef CONGRESS_UTIL_PARALLEL_H_
#define CONGRESS_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace congress {

namespace obs {
class Scope;
}  // namespace obs

/// Knobs for the morsel-driven scan engine, threaded through ExecuteExact,
/// GroupIndex::Build (and CountGroups, its census helper for tests and
/// oracles), the HashJoin probe, and the synopsis estimators. The engine always decomposes a scan into fixed-size morsels
/// and merges per-morsel partial states in morsel order, so the result is
/// bit-identical for every thread count (including 1): `num_threads` only
/// decides how many workers drain the morsel queue.
struct ExecutorOptions {
  /// Worker threads for scans. 1 = run on the calling thread (default);
  /// 0 = use all hardware threads.
  size_t num_threads = 1;

  /// Rows per morsel. Morsel boundaries are a function of this value and
  /// the input size only — never of num_threads — which is what makes the
  /// in-order merge deterministic.
  size_t morsel_size = 64 * 1024;

  /// Span sink for the observability layer: instrumented stages record
  /// their wall time into children of this scope. nullptr (the default)
  /// disables instrumentation — every span site degenerates to one
  /// pointer test. The scope does not influence execution, so answers
  /// are identical with and without it.
  obs::Scope* scope = nullptr;

  /// Resolved thread count: num_threads, or the hardware concurrency
  /// (at least 1) when num_threads == 0.
  size_t ResolvedThreads() const;

  /// Copy of these options with `scope` replaced — the idiom for nesting
  /// a callee's spans under the caller's span.
  ExecutorOptions WithScope(obs::Scope* nested) const {
    ExecutorOptions options = *this;
    options.scope = nested;
    return options;
  }
};

/// Half-open row ranges [begin, end) covering [0, total) in chunks of
/// `morsel_size` (the last morsel may be short). Empty for total == 0.
std::vector<std::pair<size_t, size_t>> MorselRanges(size_t total,
                                                    size_t morsel_size);

/// Runs `fn(task)` for every task in [0, num_tasks), fanning out over the
/// shared thread pool when `num_threads` > 1 (capped at num_tasks workers).
/// Blocks until every task finished. Tasks must not throw; they may run in
/// any order and concurrently, so all cross-task state must be pre-sliced.
void ParallelFor(size_t num_threads, size_t num_tasks,
                 const std::function<void(size_t)>& fn);

/// Morsel-driven scan with deterministic merge: splits [0, total) into
/// morsels per `options`, runs `scan(morsel_index, begin, end, &state)`
/// into one default-constructed State per morsel (concurrently when
/// options.num_threads > 1), then folds `merge(&acc, state)` over the
/// partial states strictly in morsel order. Returns the fold over a
/// default-constructed accumulator, so the result is independent of the
/// thread count.
template <typename State, typename ScanFn, typename MergeFn>
State MorselScan(size_t total, const ExecutorOptions& options,
                 const ScanFn& scan, const MergeFn& merge) {
  const auto ranges = MorselRanges(total, options.morsel_size);
  std::vector<State> partials(ranges.size());
  ParallelFor(options.ResolvedThreads(), ranges.size(), [&](size_t m) {
    scan(m, ranges[m].first, ranges[m].second, &partials[m]);
  });
  State acc{};
  for (State& partial : partials) merge(&acc, partial);
  return acc;
}

}  // namespace congress

#endif  // CONGRESS_UTIL_PARALLEL_H_
