#ifndef CONGRESS_SAMPLING_MAINTENANCE_H_
#define CONGRESS_SAMPLING_MAINTENANCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sampling/allocation.h"
#include "sampling/stratified_sample.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/status.h"

namespace congress {

/// The checks every maintainer and the sharded ingest make of an inserted
/// row: one Value per column of `schema`, each of its field's type, and
/// no NaN in a grouping column (`grouping_columns`, schema indices),
/// which would stratify nothing, as GroupCensus::Build refuses it too.
/// InvalidArgument otherwise.
Status ValidateRow(const Schema& schema,
                   const std::vector<size_t>& grouping_columns,
                   const std::vector<Value>& row);

/// Incremental maintainer of a biased sample under a stream of insertions
/// (Section 6 of the paper). Maintainers never access the base relation:
/// they own copies of the sampled tuples and per-group counters, so they
/// double as one-pass sample constructors when fed a full table scan.
class SampleMaintainer {
 public:
  virtual ~SampleMaintainer() = default;

  /// Processes one inserted tuple (one Value per base-schema column).
  virtual Status Insert(const std::vector<Value>& row) = 0;

  /// Key-threaded variant for the batched ingest fast path: `key` must be
  /// the row's projection onto the maintainer's grouping columns. Callers
  /// that intern group keys once per batch (sampling/shard.h) pass the
  /// interned key here so the maintainer skips recomputing it per row.
  /// Behavior — including every draw from the maintainer's RNG — is
  /// bit-identical to Insert(row). The default recomputes the key via
  /// Insert() so decorators and external subclasses stay correct.
  virtual Status InsertWithKey(const std::vector<Value>& row,
                               const GroupKey& key) {
    (void)key;
    return Insert(row);
  }

  /// Materializes the current sample. May perform lazily deferred
  /// evictions, hence non-const; the maintainer remains valid and can
  /// keep absorbing inserts afterwards.
  virtual Result<StratifiedSample> Snapshot() = 0;

  /// Number of tuples inserted so far.
  virtual uint64_t tuples_seen() const = 0;

  /// Number of tuples currently retained (before lazy eviction).
  virtual size_t current_sample_size() const = 0;
};

/// House: one reservoir of size X over the whole stream, plus group
/// counters so the snapshot can report per-stratum populations.
std::unique_ptr<SampleMaintainer> MakeHouseMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t x,
    uint64_t seed);

/// Senate: an independent reservoir of size X/m per non-empty group. When
/// a new group arrives, the per-group target shrinks to X/(m+1) and
/// oversized reservoirs are evicted lazily (on next touch and at
/// snapshot), exactly as Section 6 prescribes.
std::unique_ptr<SampleMaintainer> MakeSenateMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t x,
    uint64_t seed);

/// Basic Congress: the reservoir + per-group delta-sample algorithm of
/// Section 6 (steps 1–4, Theorem 6.1), for a fixed pre-scaling budget Y.
/// The realized size floats with the data distribution, as in the paper.
std::unique_ptr<SampleMaintainer> MakeBasicCongressMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t y,
    uint64_t seed);

/// Congress: the Eq.-8 Bernoulli scheme. Every tuple is admitted with
/// probability max_T Y / (m_T * n_{g(tau,T)}) computed from live
/// counters; because m_T and n_g only grow, admission probabilities only
/// decay, and retained tuples are subsampled down by the ratio q/p of new
/// to old probability (the [GM98] process), applied lazily.
class CongressMaintainer : public SampleMaintainer {
 public:
  CongressMaintainer(Schema base_schema, std::vector<size_t> grouping_columns,
                     uint64_t y, uint64_t seed);
  ~CongressMaintainer() override;

  Status Insert(const std::vector<Value>& row) override;
  Status InsertWithKey(const std::vector<Value>& row,
                       const GroupKey& key) override;
  Result<StratifiedSample> Snapshot() override;
  uint64_t tuples_seen() const override;
  size_t current_sample_size() const override;

  /// One-pass construction finisher (Section 6): thins the snapshot
  /// uniformly so its expected size is `x`. Use with y == x per the
  /// paper: "running the algorithm with Y = X, computing the scale down
  /// factor, and then subsampling the sample."
  Result<StratifiedSample> SnapshotScaledTo(uint64_t x);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

std::unique_ptr<SampleMaintainer> MakeCongressMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t y,
    uint64_t seed);

/// The paper's other Congress maintenance route: "the algorithm is a
/// natural generalization to multiple groupings of the above algorithm
/// for maintaining Basic Congress". This implementation realizes it as a
/// per-finest-group reservoir whose capacity tracks the live Congress
/// target s_g = max_T (Y/m_T)(n_g/n_h) (Eq. 4) computed from the same
/// 2^|G| counters Eq. 8 uses; capacities are re-evaluated on touch and at
/// snapshot, with lazy random eviction (uniformity preserved per Theorem
/// 6.1). Compared with the Eq.-8 Bernoulli maintainer it has
/// deterministic per-group sizes but re-samples nothing — a tuple evicted
/// for a shrinking target is gone, so targets that *grow* for a group can
/// only be met by future inserts.
std::unique_ptr<SampleMaintainer> MakeCongressTargetMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t y,
    uint64_t seed);

/// Strategy-dispatched maintainer factory: the one switch over
/// AllocationStrategy that every one-pass construction site shares
/// (BuildSampleOnePass, which one-pass synopsis builds use, and the
/// engine's ingest shards).
std::unique_ptr<SampleMaintainer> MakeMaintainer(
    AllocationStrategy strategy, Schema base_schema,
    std::vector<size_t> grouping_columns, uint64_t x, uint64_t seed);

/// Materializes a maintainer's current sample the way a publisher should:
/// the Eq.-8 Congress maintainer floats above its pre-scaling budget Y
/// and is rescaled to `target_sample_size` (Section 6's one-pass
/// construction finisher); every other maintainer already targets X and
/// snapshots directly.
Result<StratifiedSample> MaterializeSnapshot(SampleMaintainer* maintainer,
                                             uint64_t target_sample_size);

/// Streams every row of `table` through a fresh maintainer for
/// `strategy` and snapshots — one-pass construction without a data cube.
/// For Congress the result is rescaled to expected size `sample_size`;
/// for Basic Congress the size floats around it (paper semantics).
Result<StratifiedSample> BuildSampleOnePass(
    const Table& table, const std::vector<size_t>& grouping_columns,
    AllocationStrategy strategy, uint64_t sample_size, uint64_t seed);

}  // namespace congress

#endif  // CONGRESS_SAMPLING_MAINTENANCE_H_
