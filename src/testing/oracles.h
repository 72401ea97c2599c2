#ifndef CONGRESS_TESTING_ORACLES_H_
#define CONGRESS_TESTING_ORACLES_H_

#include <string>
#include <vector>

#include "core/estimator.h"
#include "engine/query.h"
#include "sampling/allocation.h"
#include "sampling/stratified_sample.h"
#include "storage/table.h"
#include "util/status.h"

namespace congress::testing {

/// Differential oracles: each one runs a query (or a sample build)
/// through two independent code paths and returns OK iff they agree —
/// bit-for-bit where the engine guarantees it, within a relative
/// tolerance where only the math is shared. A failure Status carries a
/// human-readable description of the first disagreement.

/// Asserts `a` and `b` contain the same groups with the same aggregates.
/// rel_tol == 0 demands bit-for-bit equality (the thread-invariance and
/// SQL oracles); otherwise |a - b| <= rel_tol * |a| + abs_floor.
Status CheckResultsEqual(const QueryResult& a, const QueryResult& b,
                         double rel_tol, const std::string& label_a,
                         const std::string& label_b);

/// Bit-for-bit equality of two stratified samples: strata metadata
/// (key, population, sample count), the row->stratum mapping and every
/// sampled value.
Status CheckSamplesIdentical(const StratifiedSample& a,
                             const StratifiedSample& b,
                             const std::string& label_a,
                             const std::string& label_b);

/// All four Section 5.2 rewrite strategies and the Section 5.1 estimator
/// produce the same point estimates on `sample`. HAVING is compared
/// bound-respectingly: membership may differ between plans only for
/// groups whose aggregate lies within tolerance of the threshold.
Status CheckRewriterAgreement(const StratifiedSample& sample,
                              const GroupByQuery& query);

/// With a 100% sample (every group fully sampled, all scale factors 1),
/// the estimator and every rewrite strategy must reproduce the exact
/// executor's answer — the exact-vs-approximate differential collapses
/// to equality.
Status CheckFullSampleMatchesExact(const Table& table,
                                   const std::vector<size_t>& grouping,
                                   AllocationStrategy strategy,
                                   const GroupByQuery& query, uint64_t seed);

/// ExecuteExact, EstimateGroupBy and the Integrated/Normalized rewrites
/// are bit-identical at 1, 4 and 8 threads (the morsel engine's
/// determinism contract).
Status CheckThreadInvariance(const Table& table,
                             const StratifiedSample& sample,
                             const GroupByQuery& query);

/// The batch kernel layer agrees with the scalar path: re-runs the query
/// with every predicate and aggregate expression hidden behind opaque
/// forwarding wrappers (which implement only scalar Matches/Eval, forcing
/// the default per-row MatchBatch/EvalBatch fallbacks) and demands the
/// exact executor, the estimator, and the Integrated rewrite produce
/// bit-identical results — values AND group ordering — at 1, 4 and 8
/// threads. The exact executor run with the table's zone map (which
/// skips or takes whole what the zone bounds prove) must match the run
/// without it bit for bit.
Status CheckVectorizedIdentity(const Table& table,
                               const StratifiedSample& sample,
                               const GroupByQuery& query);

/// Row-by-row bit equality of two approximate answers: group order, keys
/// (down to the sign of a zero), support, provenance and every number.
Status CheckApproximateIdentical(const ApproximateResult& a,
                                 const ApproximateResult& b,
                                 const std::string& label);

/// The estimator's two sources of per-stratum sums agree bit for bit:
/// with its predicate dropped, a query on grouping columns over COUNT(*)
/// and plain columns is answered from the sample's moments, and again
/// with a TRUE predicate hidden behind an opaque wrapper, which forces a
/// fold of the sample rows. Keys, supports, numbers and group order must
/// be identical, with the default options and with Hoeffding bounds over
/// a tail that excludes every third stratum. Other queries pass.
Status CheckMomentsIdentity(const StratifiedSample& sample,
                            const GroupByQuery& query);

/// The SQL front end agrees with the programmatic query builder: `sql`
/// must parse, bind against `table`'s schema, name `table_name`, and
/// execute to the bit-identical exact answer of `query`.
Status CheckSqlAgreement(const Table& table, const std::string& table_name,
                         const GroupByQuery& query, const std::string& sql);

/// Two identical maintainers fed the same tuple stream with the same
/// seed snapshot to bit-identical samples, and the plain streamed build
/// equals BuildSampleOnePass (rebuild-from-scratch) bit for bit.
Status CheckMaintenanceDeterminism(const Table& table,
                                   const std::vector<size_t>& grouping,
                                   AllocationStrategy strategy,
                                   uint64_t sample_size, uint64_t seed);

/// Incremental maintenance with a mid-stream Snapshot() (Theorem 6.1:
/// the maintainer keeps absorbing inserts afterwards) still yields exact
/// per-stratum populations, never oversamples a stratum, and — for the
/// deterministic House/Senate targets — lands on the same per-group
/// sizes as a rebuild from scratch.
Status CheckMaintenanceVsRebuild(const Table& table,
                                 const std::vector<size_t>& grouping,
                                 AllocationStrategy strategy,
                                 uint64_t sample_size, uint64_t seed);

/// Crash-recovery round trip for one strategy. Streams half the table
/// through a CheckpointingMaintainer (checkpoint exactly at the halfway
/// point), simulates a crash by recovering from the snapshot file alone,
/// and demands the recovered sample be bit-identical to an uninterrupted
/// reference run snapshotted at the same stream position (Snapshot()
/// advances maintainer RNG, so positions must line up). Then both runs
/// finish the stream and their final snapshots must still agree — the
/// checkpoint must not perturb the ongoing stream. Also proves the
/// bounded-retry path absorbs a single injected fsync fault.
Status CheckCrashRecovery(const Table& table,
                          const std::vector<size_t>& grouping,
                          AllocationStrategy strategy, uint64_t sample_size,
                          uint64_t seed);

/// Corruption salvage: serializes a full-stream snapshot, flips one byte
/// inside one stratum section, and demands recovery succeed with exactly
/// that stratum lost and every other stratum bit-identical to the
/// original (rows in original interleaved order). Also checks truncation
/// mid-section salvages the prefix, and that a corrupted META section is
/// rejected outright.
Status CheckCorruptedSnapshotSalvage(const Table& table,
                                     const std::vector<size_t>& grouping,
                                     AllocationStrategy strategy,
                                     uint64_t sample_size, uint64_t seed);

/// Snapshot consistency under concurrency: N reader threads issue
/// resilient queries against an AquaEngine while a writer thread
/// interleaves Insert batches, Refresh (publishing a new snapshot each
/// time), and Checkpoint. Every answer a reader observes must be
/// bit-identical to the serial answer of SOME published snapshot
/// (matched by the epoch carried in the answer), each reader's observed
/// epochs must be non-decreasing (publication is monotonic), and no
/// answer may arrive degraded — the primary synopsis of a published
/// snapshot always serves. Run under TSan this also proves the catalog's
/// reader path is race-free against concurrent publication.
Status CheckConcurrentSnapshotConsistency(const Table& table,
                                          const std::vector<size_t>& grouping,
                                          AllocationStrategy strategy,
                                          uint64_t sample_size, uint64_t seed);

/// Sharded streaming ingest consistency for one strategy (DESIGN.md §15):
/// (a) a single producer publishes bit-identical
/// samples at 1, 4 and 8 shards — including a mid-stream merge — and all
/// of them equal the plain serial maintainer snapshotted at the same
/// stream positions; (b) under concurrent producers the merge loses no
/// rows and tears none (exact per-group populations, every sampled row
/// keyed to its stratum), and its sample is bit-identical to a fresh
/// serial maintainer fed the merge's `merged_rows` in order; (c) the full
/// engine publish path is shard-count invariant and bumps the catalog
/// epoch monotonically. Run under TSan this also proves the
/// chunk-queue claim/publish/reclaim protocol is race-free.
Status CheckShardedIngestConsistency(const Table& table,
                                     const std::vector<size_t>& grouping,
                                     AllocationStrategy strategy,
                                     uint64_t sample_size, uint64_t seed);

/// Network chaos oracle for the framed TCP front-end (DESIGN.md §17).
/// Builds a live loopback stack (engine → AquaServer → TcpFrontEnd) and
/// hammers it from several retrying AquaClients while seeded-probability
/// failpoints inject connect failures, refused accepts, short reads and
/// writes, EAGAIN storms, and connection resets into every socket
/// syscall on both sides. Demands, under that weather:
///   (a) every request resolves to a definite Status — no hangs — and
///     failures only ever surface as Unavailable, ResourceExhausted,
///     IOError, or DeadlineExceeded;
///   (b) liveness: with retries, well over half the requests still
///     succeed end-to-end;
///   (c) tokened inserts execute at most once per token, and every
///     client-confirmed insert was executed (no lost or doubled writes);
///   (d) Stop() drains within its bound, leaking no connections and no
///     server sessions.
/// Run under TSan this also proves the event loop, the completion
/// queue, and the worker pool share no unsynchronized state.
Status CheckNetChaos(const Table& table, const std::vector<size_t>& grouping,
                     AllocationStrategy strategy, uint64_t sample_size,
                     uint64_t seed);

/// Planner identity oracle, three invariants per (strategy, query):
/// (a) a combined plan (exact outlier strata + sampled tail) over a 100%
/// sample reproduces ExecuteExact within 1e-9 — the stitch introduces no
/// bias; (b) a budget-free Planner::Run is bit-identical to the primary
/// synopsis's own Answer — planner routing never perturbs the default
/// path; (c) on a fractional sample, the planner's primary answer agrees
/// with the Section 5.2 rewriter (QueryVia) within 1e-9 when the query
/// has no HAVING. MIN/MAX queries are vacuously OK (no sampling plan
/// exists to compare).
Status CheckPlannerIdentity(const Table& table,
                            const std::vector<size_t>& grouping,
                            AllocationStrategy strategy,
                            const GroupByQuery& query, uint64_t seed);

/// Section 4 allocation invariants for one strategy: the allocation
/// totals min(X, N) (Eqs. 4-6), never exceeds a group's population,
/// keeps the scale-down factor in (0, 1], and rounds to a feasible
/// integer apportionment that starves no group when space permits.
Status CheckAllocationInvariants(const Table& table,
                                 const std::vector<size_t>& grouping,
                                 AllocationStrategy strategy,
                                 double sample_size);

}  // namespace congress::testing

#endif  // CONGRESS_TESTING_ORACLES_H_
