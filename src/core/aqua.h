#ifndef CONGRESS_CORE_AQUA_H_
#define CONGRESS_CORE_AQUA_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/catalog.h"
#include "core/degradation.h"
#include "core/rewriter.h"
#include "core/synopsis.h"
#include "planner/planner.h"
#include "sampling/shard.h"
#include "util/status.h"

namespace congress {

/// The full Aqua middleware loop of Figure 1 in the paper: a catalog of
/// base relations, a precomputed synopsis per relation, and a SQL front
/// end. A query arrives as text, is parsed and routed by its FROM clause,
/// rewritten against the synopsis, and answered approximately with error
/// bounds — without touching the base data. The base tables are retained
/// only so exact answers can be produced for comparison (QueryExact),
/// mirroring how the paper's experiments score accuracy.
///
/// Concurrency model (snapshot lifecycle): every registered relation
/// has two sides. The *published* side is an immutable
/// AquaSnapshot in an RCU-style Catalog — read paths (Query, QueryExact,
/// QueryVia, QueryResilient, ExplainRewrite, Get*, Checkpoint) pin one
/// snapshot by copying the catalog's current pointer (one short mutex
/// hold that no build ever occupies) and answer from it alone, so they
/// are const and race-free against any writer. The
/// *maintenance* side has two tiers: Insert/InsertBatch append to a
/// sharded lock-free ingest buffer (sampling/shard.h, DESIGN.md §15) and
/// never take the writer lock, so ingest overlaps queries *and*
/// publishes; Register/Drop/Refresh/Restore serialize on writer_mu_, and
/// Refresh drains the shards into a copy of the relation's table and its
/// sample, freezes the result into the next snapshot, and atomically
/// publishes it. A query that pinned a snapshot keeps it alive (and
/// self-consistent) through concurrent Refresh and even DropTable;
/// reclamation is by reference count when the last reader releases it.
class AquaEngine {
 public:
  AquaEngine() = default;

  /// Registers `table` under `name` (ownership transfers), builds its
  /// synopsis and fallback fleet per `config`, and
  /// publishes the first snapshot. Fails if the name is taken or the
  /// build fails; nothing is retained on failure.
  Status RegisterTable(const std::string& name, Table table,
                       const SynopsisConfig& config);

  /// Unpublishes a relation and discards its maintenance state. Readers
  /// that already pinned a snapshot keep it alive until they finish —
  /// dropping a table never invalidates an in-flight query.
  Status DropTable(const std::string& name);

  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Parses `sql`, routes by FROM, and answers from the pinned
  /// snapshot's synopsis with per-group error bounds. A query carrying a
  /// budget clause (`WITHIN <pct>% CONFIDENCE <pct>` or `WITHIN <ms> MS`)
  /// is routed through the accuracy-aware planner, which picks the
  /// cheapest fleet member predicted to honor the budget and escalates
  /// (combined outlier-exact plan, then exact) if the realized bounds
  /// break the promise. Without a budget the primary synopsis answers
  /// directly — bit-identical to earlier releases.
  Result<ApproximateResult> Query(const std::string& sql) const;

  /// Like Query(), but returns the plan report alongside the answer:
  /// every candidate scored, the chosen plan, predicted vs. promised vs.
  /// realized error, and how often verification escalated.
  Result<planner::PlannedAnswer> QueryPlanned(const std::string& sql) const;

  /// Scores the snapshot's synopsis fleet against the query's budget and
  /// renders the chosen plan without executing anything — the planner's
  /// EXPLAIN PLAN.
  Result<std::string> ExplainPlan(const std::string& sql) const;

  /// Exact answer over the snapshot's retained base relation: exact
  /// groups with zero-width bounds (ExecuteExactOnSnapshot).
  Result<ApproximateResult> QueryExact(const std::string& sql) const;

  /// Approximate answer through a specific Section 5 physical plan
  /// (Rewriter::Answer: sampled groups with zero-width bounds).
  Result<ApproximateResult> QueryVia(const std::string& sql,
                                     RewriteStrategy strategy) const;

  /// Like Query(), but never gives up just because the primary synopsis
  /// cannot answer: any budget clause is dropped and Planner::Run starts
  /// at the primary, a failure moving it along the failure walk
  /// (planner.h) through the widened fallbacks to an exact scan. The
  /// DegradationReason projects the plan report: the rung that answered,
  /// why the rungs tried before it failed, and the bound widening.
  /// ResilientAnswer::epoch names the snapshot generation that served it.
  /// Every attempt after the first checks `deadline`, so a query that
  /// keeps failing downward stops burning time once its budget is gone
  /// and returns DeadlineExceeded naming the rungs it did try. Fails only
  /// when every rung fails, or the SQL does not parse/bind.
  Result<ResilientAnswer> QueryResilient(
      const std::string& sql,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max()) const;

  /// The rewritten SQL text the strategy would send to the back-end DBMS
  /// (Figures 8-11), with the synopsis relation named "bs_<table>".
  Result<std::string> ExplainRewrite(const std::string& sql,
                                     RewriteStrategy strategy) const;

  /// Streams a newly inserted tuple into the relation's sharded ingest
  /// buffer. Requires the synopsis to have been built with
  /// SynopsisConfig::incremental. Thread-safe and lock-free on the hot
  /// path: any number of threads may insert concurrently with each
  /// other, with queries, and with Refresh. The tuple becomes visible to
  /// queries at the next Refresh() — published snapshots are immutable,
  /// so readers always see a table/synopsis pair from the same moment. A
  /// rejected row (arity/type mismatch) changes nothing. Rows in flight
  /// when the table is dropped are discarded with it.
  Status Insert(const std::string& name, const std::vector<Value>& row);

  /// Batch variant of Insert(): validates every row up front (one bad
  /// row rejects the whole batch), interns each distinct group once, and
  /// buffers the batch into one ingest shard — the fast path the serving
  /// front-end and bulk loads should use.
  Status InsertBatch(const std::string& name,
                     const std::vector<std::vector<Value>>& rows);

  /// Freezes the maintenance state into a new immutable snapshot
  /// (synopsis + fallbacks + base table) and atomically publishes it.
  Status Refresh(const std::string& name);

  /// Serializes the *published* snapshot's synopsis to `path` (the
  /// CGRSNP01 format of resilience/snapshot_io.h). Works from a pinned
  /// snapshot, so it never takes the writer lock and never blocks
  /// concurrent Insert/Refresh.
  Status Checkpoint(const std::string& name, const std::string& path) const;

  /// Recovers a checkpoint image from `path` into a fresh snapshot under
  /// `name` and publishes it. The base relation is not in the image, so
  /// the snapshot serves approximate answers only: QueryExact, the exact
  /// rung, and Insert are unavailable until the relation is re-registered
  /// from real data.
  Status RestoreTable(const std::string& name, const std::string& path,
                      const SynopsisConfig& config);

  /// Pins the published snapshot for `name`: a consistent
  /// (table, synopsis, fallbacks) view that stays valid however long the
  /// caller holds it.
  Result<std::shared_ptr<const AquaSnapshot>> GetSnapshot(
      const std::string& name) const;

  Result<std::shared_ptr<const AquaSynopsis>> GetSynopsis(
      const std::string& name) const;
  Result<std::shared_ptr<const Table>> GetTable(
      const std::string& name) const;

  /// Current catalog epoch (bumps on every publish/drop).
  uint64_t epoch() const { return catalog_.epoch(); }
  /// Live pinned-reader handles (see Catalog::pinned_readers).
  int64_t pinned_readers() const { return catalog_.pinned_readers(); }

 private:
  /// Writer-private maintenance state for one relation: the last
  /// publish's base table, shared with its snapshot and never mutated
  /// (only touched under writer_mu_), plus the sharded ingest front-end
  /// absorbing inserts. `ingest` is internally thread-safe and shared
  /// with in-flight inserters (a concurrent DropTable just drops this
  /// reference — the shards stay alive until the last inserter returns).
  struct MaintenanceState {
    SynopsisConfig config;
    std::shared_ptr<const Table> table;
    std::shared_ptr<ShardedMaintainer> ingest;  // Null: non-incremental.
    uint64_t target_sample_size = 0;
    bool restored = false;  ///< Base relation unavailable (RestoreTable).
  };

  Result<std::shared_ptr<const AquaSnapshot>> Pin(
      const std::string& name) const;
  /// Copies the relation's shared ingest handle under states_mu_ (or the
  /// reason inserts are unavailable). Never takes writer_mu_.
  Result<std::shared_ptr<ShardedMaintainer>> IngestHandle(
      const std::string& name) const;
  /// Parses and binds `sql` against the pinned snapshot's schema.
  Result<std::pair<std::shared_ptr<const AquaSnapshot>, GroupByQuery>> Route(
      const std::string& sql) const;
  /// Builds the next snapshot from `state` and publishes it. Caller
  /// holds writer_mu_.
  Status PublishLocked(const std::string& name, MaintenanceState* state);

  /// Serializes structural writers (Register/Drop/Refresh/Restore)
  /// against each other; never held on a read path and never on the
  /// Insert/InsertBatch hot path.
  mutable std::mutex writer_mu_;
  /// Guards the states_ map itself (lookup/emplace/erase). Insert takes
  /// only this, briefly, to copy the relation's ingest handle; taken
  /// after writer_mu_ where both are needed.
  mutable std::mutex states_mu_;
  std::unordered_map<std::string, MaintenanceState> states_;
  Catalog catalog_;
  /// The one fleet selector every read path that chooses a plan shares.
  const planner::Planner planner_;
};

}  // namespace congress

#endif  // CONGRESS_CORE_AQUA_H_
