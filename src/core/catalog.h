#ifndef CONGRESS_CORE_CATALOG_H_
#define CONGRESS_CORE_CATALOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/synopsis.h"
#include "engine/exact_rollups.h"
#include "histogram/group_histogram.h"
#include "storage/table.h"
#include "util/status.h"
#include "wavelet/wavelet_synopsis.h"

namespace congress {

/// One immutable, published view of a registered relation: the retained
/// base table, the frozen synopsis that answers for it, and the
/// pre-built fallback synopses. Nothing in an AquaSnapshot is
/// ever mutated after publication — maintenance builds the *next*
/// snapshot off to the side and swaps it in — so any number of reader
/// threads can answer queries from one snapshot without coordination,
/// and a query that pinned a snapshot keeps a self-consistent
/// (table, synopsis, fallbacks) quadruple for its whole lifetime even
/// while newer snapshots are published or the relation is dropped.
struct AquaSnapshot {
  std::string name;

  /// The catalog epoch at which this snapshot was published (assigned by
  /// Catalog::Publish; 0 means "never published"). Strictly increasing
  /// per catalog, so an epoch identifies one snapshot generation.
  uint64_t epoch = 0;

  /// The base relation as of this snapshot. Always non-null; restored
  /// snapshots (recovered from a checkpoint without the base data)
  /// carry an empty table of the right schema and no exact_rollups.
  std::shared_ptr<const Table> table;

  /// The primary synopsis. Always non-null for a published snapshot.
  std::shared_ptr<const AquaSynopsis> synopsis;

  /// Fallback synopses the planner's failure walk can move to, built
  /// eagerly at snapshot construction so no read path mutates shared
  /// state. Null when the build failed; the Status then records why, and
  /// the walk reports it as the rung's failure cause.
  std::shared_ptr<const AquaSynopsis> fallback_basic;
  std::shared_ptr<const AquaSynopsis> fallback_house;
  Status fallback_basic_status;
  Status fallback_house_status;

  /// Planner fleet: optional non-sampling synopses built at publish time
  /// when the SynopsisConfig's fleet_* flags are set. Null when disabled
  /// or when the build failed (the Status records why). Each carries the
  /// mean relative residual of its answer against the exact
  /// finest-grouping answer, measured once at publish so the planner can
  /// score it without touching the base table.
  std::shared_ptr<const GroupHistogram> histogram;
  std::shared_ptr<const WaveletSynopsis> wavelet;
  Status histogram_status;
  Status wavelet_status;
  double histogram_residual = 0.0;
  double wavelet_residual = 0.0;

  /// The memo of exact roll-ups over the base relation, its row→stratum
  /// index at the synopsis grouping (the publish's census, index()) and
  /// its per-zone bounds (zones(), built at every publish). Every exact
  /// scan of the snapshot goes through it: it reads group ids, first rows
  /// and key order from a memo entry, a predicate-free scan over COUNT(*)
  /// and plain columns its per-group states too, and a range skips the
  /// batches the zones rule out. Combined plans select their outlier
  /// strata through index(). Entries are built on first use, so a new
  /// snapshot starts with an empty memo. Every publish censuses its table,
  /// so this is null exactly when the base relation is unavailable (a
  /// snapshot restored from a checkpoint): the exact rung, combined plans
  /// and QueryExact cannot be served from it.
  std::shared_ptr<const ExactRollups> exact_rollups;
};

/// Exact answer of `query` over the snapshot's base relation — the one
/// entry point for snapshot-side exact scans (AquaEngine::QueryExact, the
/// server's exact mode, the planner's exact rung and the combined plan's
/// outlier scan). Runs exact_rollups->Execute with the primary synopsis's
/// execution options: a covered predicate-free query over COUNT(*) and
/// plain columns is answered from the memo, and every other query folds
/// its rows per query, skipping the batches the zones rule out. The
/// answer is bit-identical to ExecuteExact(*table, query) on the first
/// call and every later one. FailedPrecondition when the base relation is
/// unavailable (no exact_rollups: a snapshot restored from a checkpoint).
Result<ApproximateResult> ExecuteExactOnSnapshot(
    const AquaSnapshot& snapshot, const GroupByQuery& query);

/// An immutable generation of the whole catalog: a name → snapshot map
/// frozen at one epoch. Readers hold a CatalogVersion (via shared_ptr)
/// and see a point-in-time view of every registered relation.
class CatalogVersion {
 public:
  uint64_t epoch() const { return epoch_; }

  /// The snapshot for `name`, or nullptr if not registered in this
  /// generation.
  std::shared_ptr<const AquaSnapshot> Find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;
  size_t size() const { return snapshots_.size(); }

 private:
  friend class Catalog;
  uint64_t epoch_ = 0;
  std::map<std::string, std::shared_ptr<const AquaSnapshot>> snapshots_;
};

/// RCU-style publication point for AquaSnapshots. Readers copy the
/// current CatalogVersion pointer under a mutex held only for that copy
/// or a swap, so no reader ever waits for a build. Writers (register /
/// refresh / drop) copy the current version and splice in the new
/// snapshot under a mutex that only serializes writers, then swap the
/// pointer. Old versions and their snapshots are reclaimed by
/// shared_ptr reference counting when the last reader releases them —
/// epoch-based reclamation with the count standing in for the grace
/// period, which is exactly right at this scale.
///
/// Obs: `catalog.epoch` (gauge, current generation),
/// `catalog.published_snapshots` (counter), `catalog.pinned_readers`
/// (gauge, live Pin() handles), `catalog.swap_latency` (histogram over
/// the writer's copy-and-swap section — the region a stop-the-world
/// design would make readers wait out).
class Catalog {
 public:
  Catalog();

  /// Current generation: one pointer copy under current_mu_.
  std::shared_ptr<const CatalogVersion> Current() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Pins the named snapshot for a reader: the returned handle keeps the
  /// snapshot alive past any Publish/Remove and counts into
  /// `pinned_readers()` until released. nullptr if not registered.
  std::shared_ptr<const AquaSnapshot> Pin(const std::string& name) const;

  /// Publishes `snapshot` as the new generation's entry for its name
  /// (insert or replace), assigning it the next epoch.
  Status Publish(std::shared_ptr<AquaSnapshot> snapshot);

  /// Removes `name` from the next generation. Already-pinned snapshots
  /// stay alive until their readers release them.
  Status Remove(const std::string& name);

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Number of live Pin() handles (testable even when obs is compiled
  /// out).
  int64_t pinned_readers() const {
    return pinned_->load(std::memory_order_acquire);
  }

 private:
  /// Makes `next` current; the old version is released after the pointer
  /// lock, so no reader waits out its destruction.
  void Install(std::shared_ptr<const CatalogVersion> next,
               std::chrono::steady_clock::time_point start);

  /// Serializes writers; readers never touch it.
  std::mutex writer_mu_;
  mutable std::mutex current_mu_;  ///< Held for one pointer copy or swap.
  std::shared_ptr<const CatalogVersion> current_;
  std::atomic<uint64_t> epoch_{0};
  /// Shared with Pin() handles so a handle released after the catalog is
  /// destroyed still has a live counter to decrement.
  std::shared_ptr<std::atomic<int64_t>> pinned_;
};

}  // namespace congress

#endif  // CONGRESS_CORE_CATALOG_H_
