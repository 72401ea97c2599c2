#include "core/aqua.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "engine/zone_map.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "resilience/recovery.h"
#include "resilience/snapshot_io.h"
#include "sql/emitter.h"
#include "sql/parser.h"

namespace congress {

namespace {

/// Builds one fallback synopsis from the published table's census: the
/// primary's config with the strategy swapped and incremental maintenance
/// off (fallbacks are frozen, like everything else in a snapshot). Failure
/// is recorded in the snapshot, not fatal — the planner's failure walk
/// reports it as the rung's cause.
void BuildFallback(const Table& table, const GroupCensus& census,
                   const SynopsisConfig& primary, AllocationStrategy strategy,
                   std::shared_ptr<const AquaSynopsis>* slot,
                   Status* slot_status) {
  SynopsisConfig fallback = primary;
  fallback.strategy = strategy;
  fallback.incremental = false;
  auto built = AquaSynopsis::Build(table, census, fallback);
  if (!built.ok()) {
    *slot = nullptr;
    *slot_status = built.status();
    return;
  }
  *slot = std::make_shared<const AquaSynopsis>(std::move(built).value());
  *slot_status = Status::OK();
}

/// Builds the optional histogram/wavelet fleet members from the base
/// table's census, then measures each one's residual — the mean over
/// finest groups and measures of |summary - exact| / max(|exact|, 1) —
/// against one exact reference answer, read through the snapshot's exact
/// roll-ups (so its finest entry is built at publish). The residual is
/// the planner's accuracy score for summaries, which carry no
/// probabilistic error model. Neither member is built by default, and
/// then the reference scan is skipped too.
void BuildFleet(AquaSnapshot* snapshot, const SynopsisConfig& config,
                const GroupCensus& census) {
  if (!config.fleet_histogram && !config.fleet_wavelet) return;
  const std::vector<size_t>& grouping = census.index->columns();
  const Table& table = *snapshot->table;
  std::vector<size_t> measures;
  for (size_t c = 0; c < table.schema().num_fields(); ++c) {
    if (table.schema().field(c).type == DataType::kString) continue;
    if (std::find(grouping.begin(), grouping.end(), c) != grouping.end()) {
      continue;
    }
    measures.push_back(c);
  }

  GroupByQuery reference;
  reference.group_columns = grouping;
  for (size_t m : measures) {
    reference.aggregates.emplace_back(AggregateKind::kSum, m);
  }
  reference.aggregates.emplace_back(AggregateKind::kCount, 0);
  auto exact = snapshot->exact_rollups->Execute(reference, config.execution);
  if (!exact.ok()) {
    if (config.fleet_histogram) snapshot->histogram_status = exact.status();
    if (config.fleet_wavelet) snapshot->wavelet_status = exact.status();
    return;
  }

  auto residual_of = [&exact](const QueryResult& approx) {
    double total = 0.0;
    size_t cells = 0;
    for (const GroupResult& row : exact->rows()) {
      const GroupResult* a = approx.Find(row.key);
      for (size_t i = 0; i < row.aggregates.size(); ++i) {
        const double e = row.aggregates[i];
        const double h = a != nullptr ? a->aggregates[i] : 0.0;
        total += std::fabs(h - e) / std::max(std::fabs(e), 1.0);
        ++cells;
      }
    }
    return cells > 0 ? total / static_cast<double>(cells) : 0.0;
  };

  // A failed build or reference answer becomes the member's status.
  auto install = [&](auto built, auto* member, Status* status,
                     double* residual) {
    if (!built.ok()) {
      *status = built.status();
      return;
    }
    auto answer = built->Answer(reference);
    if (!answer.ok()) {
      *status = answer.status();
      return;
    }
    *residual = residual_of(*answer);
    using Summary = std::remove_reference_t<decltype(*built)>;
    *member = std::make_shared<const Summary>(std::move(built).value());
    *status = Status::OK();
  };
  if (config.fleet_histogram) {
    GroupHistogram::Options options;
    options.measure_columns = measures;
    options.execution = config.execution;
    install(GroupHistogram::Build(table, census, options), &snapshot->histogram,
            &snapshot->histogram_status, &snapshot->histogram_residual);
  }
  if (config.fleet_wavelet) {
    WaveletSynopsis::Options options;
    options.measure_columns = measures;
    options.execution = config.execution;
    install(WaveletSynopsis::Build(table, census, options), &snapshot->wavelet,
            &snapshot->wavelet_status, &snapshot->wavelet_residual);
  }
}

}  // namespace

Status AquaEngine::PublishLocked(const std::string& name,
                                 MaintenanceState* state) {
  auto snapshot = std::make_shared<AquaSnapshot>();
  snapshot->name = name;
  const SynopsisConfig& config = state->config;

  // Incremental relations freeze the primary synopsis by draining the
  // ingest shards — the merge replays the buffered rows into the serial
  // maintainer, and the drained rows extend a copy of the last published
  // table in the same order (pinned readers may still hold that one), so
  // the snapshot's table and synopsis describe the same stream prefix.
  if (state->ingest != nullptr) {
    auto delta = state->ingest->MaterializeForPublish();
    if (!delta.ok()) return delta.status();
    auto extended = std::make_shared<Table>(*state->table);
    for (const std::vector<Value>& row : delta->merged_rows) {
      CONGRESS_RETURN_NOT_OK(extended->AppendRow(row));
    }
    state->table = std::move(extended);
    auto synopsis = AquaSynopsis::FromSample(
        std::move(delta->sample), config, state->target_sample_size,
        delta->tuples_seen);
    if (!synopsis.ok()) return synopsis.status();
    snapshot->synopsis =
        std::make_shared<const AquaSynopsis>(std::move(synopsis).value());
  }

  // The snapshot shares the state's table. One typed pass over it records
  // the zone map through which exact scans skip what a range rules out.
  // One census of it feeds the two-pass primary, both fallbacks and the
  // fleet; its index and the zones back the snapshot's exact roll-ups,
  // through which exact scans resolve group ids and combined plans pull
  // outlier rows. Ingest refuses a NaN grouping cell, so the census of a
  // published table fails only where every exact scan would too.
  snapshot->table = state->table;
  const Table& table = *snapshot->table;
  CONGRESS_SPAN(zones_span, config.execution.scope, "zones");
  auto zones = std::make_shared<const ZoneMap>(ZoneMap::Build(table));
  zones_span.Stop();
  auto grouping =
      ResolveGroupingIndices(table.schema(), config.grouping_columns);
  if (!grouping.ok()) return grouping.status();
  auto census = GroupCensus::Build(table, *grouping, config.execution);
  if (!census.ok()) return census.status();
  if (state->ingest == nullptr) {
    auto synopsis = AquaSynopsis::Build(table, *census, config);
    if (!synopsis.ok()) return synopsis.status();
    snapshot->synopsis =
        std::make_shared<const AquaSynopsis>(std::move(synopsis).value());
  }

  // The whole fleet is part of the snapshot, so the read path never builds
  // (or caches) anything. (Restored relations never publish through
  // here: RestoreTable marks their fleet unavailable, and Refresh has no
  // ingest to drain for them.)
  snapshot->exact_rollups = std::make_shared<const ExactRollups>(
      snapshot->table, census->index, std::move(zones));
  BuildFleet(snapshot.get(), config, *census);
  const SynopsisConfig& primary = snapshot->synopsis->config();
  BuildFallback(table, *census, primary, AllocationStrategy::kBasicCongress,
                &snapshot->fallback_basic, &snapshot->fallback_basic_status);
  BuildFallback(table, *census, primary, AllocationStrategy::kHouse,
                &snapshot->fallback_house, &snapshot->fallback_house_status);
  return catalog_.Publish(std::move(snapshot));
}

Status AquaEngine::RegisterTable(const std::string& name, Table table,
                                 const SynopsisConfig& config) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (states_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }

  MaintenanceState state;
  state.config = config;
  if (config.incremental) {
    auto indices =
        ResolveGroupingIndices(table.schema(), config.grouping_columns);
    if (!indices.ok()) return indices.status();
    auto size = ResolveSampleSize(config.sample_size, config.sample_fraction,
                                  table.num_rows());
    if (!size.ok()) return size.status();
    state.target_sample_size = *size;
    ShardedIngestOptions ingest_options;
    ingest_options.strategy = config.strategy;
    ingest_options.target_sample_size = *size;
    ingest_options.seed = config.seed;
    ingest_options.num_shards = config.ingest_shards;
    state.ingest = std::make_shared<ShardedMaintainer>(table.schema(),
                                                       *indices,
                                                       ingest_options);
    // Feed the base relation through the same batched fast path inserts
    // take; the initial publish below drains it into the relation's table.
    constexpr size_t kRegisterBatchRows = 1024;
    std::vector<std::vector<Value>> batch;
    batch.reserve(kRegisterBatchRows);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      std::vector<Value> row;
      row.reserve(table.num_columns());
      for (size_t c = 0; c < table.num_columns(); ++c) {
        row.push_back(table.GetValue(r, c));
      }
      batch.push_back(std::move(row));
      if (batch.size() == kRegisterBatchRows) {
        CONGRESS_RETURN_NOT_OK(state.ingest->InsertBatch(batch));
        batch.clear();
      }
    }
    if (!batch.empty()) {
      CONGRESS_RETURN_NOT_OK(state.ingest->InsertBatch(batch));
    }
    CONGRESS_METRIC_INCR("synopsis.builds", 1);
    state.table = std::make_shared<const Table>(table.schema());
  } else {
    state.table = std::make_shared<const Table>(std::move(table));
  }

  CONGRESS_RETURN_NOT_OK(PublishLocked(name, &state));
  {
    std::lock_guard<std::mutex> states_lock(states_mu_);
    states_.emplace(name, std::move(state));
  }
  return Status::OK();
}

Status AquaEngine::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  {
    std::lock_guard<std::mutex> states_lock(states_mu_);
    if (states_.erase(name) == 0) {
      return Status::NotFound("table '" + name + "' not registered");
    }
  }
  // Pinned readers keep the dropped snapshot alive until they release
  // it; in-flight inserters keep the ingest shards alive via their
  // shared handle, and their buffered rows vanish with the last
  // reference.
  return catalog_.Remove(name);
}

bool AquaEngine::HasTable(const std::string& name) const {
  return catalog_.Current()->Find(name) != nullptr;
}

std::vector<std::string> AquaEngine::TableNames() const {
  return catalog_.Current()->Names();
}

Result<std::shared_ptr<const AquaSnapshot>> AquaEngine::Pin(
    const std::string& name) const {
  std::shared_ptr<const AquaSnapshot> snapshot = catalog_.Pin(name);
  if (snapshot == nullptr) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  return snapshot;
}

Result<std::pair<std::shared_ptr<const AquaSnapshot>, GroupByQuery>>
AquaEngine::Route(const std::string& sql) const {
  auto statement = sql::ParseSelect(sql);
  if (!statement.ok()) return statement.status();
  auto snapshot = Pin(statement->table);
  if (!snapshot.ok()) return snapshot.status();
  auto query = sql::Bind(*statement, (*snapshot)->table->schema());
  if (!query.ok()) return query.status();
  return std::make_pair(std::move(snapshot).value(),
                        std::move(query).value());
}

Result<ApproximateResult> AquaEngine::Query(const std::string& sql) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  // Budget clauses go through the planner; everything else answers from
  // the primary synopsis directly (and bit-identically to builds that
  // predate the planner).
  if (routed->second.budget.active()) {
    auto planned = planner_.Run(*routed->first, routed->second);
    if (!planned.ok()) return planned.status();
    return std::move(planned->result);
  }
  return routed->first->synopsis->Answer(routed->second);
}

Result<planner::PlannedAnswer> AquaEngine::QueryPlanned(
    const std::string& sql) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  return planner_.Run(*routed->first, routed->second);
}

Result<std::string> AquaEngine::ExplainPlan(const std::string& sql) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  auto report = planner_.Plan(*routed->first, routed->second);
  if (!report.ok()) return report.status();
  return report->ToString();
}

Result<QueryResult> AquaEngine::QueryExact(const std::string& sql) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  return ExecuteExactOnSnapshot(*routed->first, routed->second);
}

Result<QueryResult> AquaEngine::QueryVia(const std::string& sql,
                                         RewriteStrategy strategy) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  const AquaSynopsis& synopsis = *routed->first->synopsis;
  return Rewriter(synopsis.sample())
      .Answer(routed->second, strategy, synopsis.config().execution);
}

Result<ResilientAnswer> AquaEngine::QueryResilient(
    const std::string& sql,
    std::chrono::steady_clock::time_point deadline) const {
  // Parse/bind errors are the caller's bug, not a synopsis failure — no
  // failure walk for those.
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  // A budget clause is ignored here, so the planner starts at the primary
  // synopsis and only a failure moves it.
  GroupByQuery& query = routed->second;
  query.budget = QueryBudget{};
  auto planned = planner_.Run(*routed->first, query, deadline);
  if (!planned.ok()) return planned.status();

  ResilientAnswer answer;
  answer.result = std::move(planned->result);
  answer.epoch = routed->first->epoch;
  switch (planned->report.chosen.kind) {
    case planner::PlanKind::kFallbackBasic:
      answer.degradation.level = DegradationLevel::kBasicCongress;
      break;
    case planner::PlanKind::kFallbackHouse:
      answer.degradation.level = DegradationLevel::kHouse;
      break;
    case planner::PlanKind::kExact:
      answer.degradation.level = DegradationLevel::kExactRebuild;
      break;
    default:  // The primary; failure never enters the other plans.
      break;
  }
  answer.degradation.cause = std::move(planned->report.failures);
  answer.degradation.bound_widening = planned->report.bound_widening;
  return answer;
}

Result<std::string> AquaEngine::ExplainRewrite(const std::string& sql,
                                               RewriteStrategy strategy) const {
  auto routed = Route(sql);
  if (!routed.ok()) return routed.status();
  const AquaSnapshot& snapshot = *routed->first;
  sql::EmitOptions options;
  options.sample_table = "bs_" + snapshot.name;
  options.aux_table = "aux_" + snapshot.name;
  options.with_error_bounds = true;
  return sql::EmitRewritten(routed->second, snapshot.table->schema(), strategy,
                            options);
}

Result<std::shared_ptr<ShardedMaintainer>> AquaEngine::IngestHandle(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(states_mu_);
  auto it = states_.find(name);
  if (it == states_.end()) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  if (it->second.restored) {
    return Status::FailedPrecondition(
        "table '" + name +
        "' was restored from a checkpoint; base relation unavailable");
  }
  if (it->second.ingest == nullptr) {
    return Status::FailedPrecondition(
        "synopsis was not built with incremental maintenance enabled");
  }
  return it->second.ingest;
}

Status AquaEngine::Insert(const std::string& name,
                          const std::vector<Value>& row) {
  // Copy the shared ingest handle under the brief map lock, then buffer
  // outside every engine lock: inserts overlap queries and publishes.
  auto ingest = IngestHandle(name);
  if (!ingest.ok()) return ingest.status();
  return (*ingest)->Insert(row);
}

Status AquaEngine::InsertBatch(const std::string& name,
                               const std::vector<std::vector<Value>>& rows) {
  auto ingest = IngestHandle(name);
  if (!ingest.ok()) return ingest.status();
  return (*ingest)->InsertBatch(rows);
}

Status AquaEngine::Refresh(const std::string& name) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  auto it = states_.find(name);
  if (it == states_.end()) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  // Non-incremental relations have nothing new to publish; keep the old
  // no-op contract.
  if (it->second.ingest == nullptr) return Status::OK();
  CONGRESS_METRIC_INCR("synopsis.refreshes", 1);
  return PublishLocked(name, &it->second);
}

Status AquaEngine::Checkpoint(const std::string& name,
                              const std::string& path) const {
  auto snapshot = Pin(name);
  if (!snapshot.ok()) return snapshot.status();
  const AquaSynopsis& synopsis = *(*snapshot)->synopsis;
  resilience::SnapshotImage image;
  image.strategy = static_cast<uint32_t>(synopsis.config().strategy);
  image.target_size = synopsis.target_size();
  image.seed = synopsis.config().seed;
  image.tuples_seen = synopsis.tuples_seen();
  image.sample = synopsis.sample();
  CONGRESS_METRIC_INCR("resilience.engine_checkpoints", 1);
  return resilience::WriteSnapshot(image, path);
}

Status AquaEngine::RestoreTable(const std::string& name,
                                const std::string& path,
                                const SynopsisConfig& config) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (states_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  auto recovered = resilience::RecoverSnapshot(path);
  if (!recovered.ok()) return recovered.status();
  // The image is authoritative for the grouping columns, the target size
  // and the stream position; `config` supplies everything else. The
  // maintainer RNG is not in the image, so the stream cannot resume and
  // the restored relation is never incremental.
  SynopsisConfig restored_config = config;
  restored_config.incremental = false;
  auto synopsis = AquaSynopsis::FromSample(
      std::move(recovered->image.sample), restored_config,
      recovered->image.target_size, recovered->image.tuples_seen);
  if (!synopsis.ok()) return synopsis.status();
  CONGRESS_METRIC_INCR("synopsis.restores", 1);

  MaintenanceState state;
  state.config = synopsis->config();
  state.table = std::make_shared<const Table>(synopsis->sample().base_schema());
  state.target_sample_size = synopsis->target_size();
  state.restored = true;

  auto snapshot = std::make_shared<AquaSnapshot>();
  snapshot->name = name;
  snapshot->table = state.table;
  snapshot->synopsis =
      std::make_shared<const AquaSynopsis>(std::move(synopsis).value());
  const Status unavailable = Status::FailedPrecondition(
      "fallback unavailable: snapshot restored without base relation");
  snapshot->fallback_basic_status = unavailable;
  snapshot->fallback_house_status = unavailable;
  const Status fleet_unavailable = Status::FailedPrecondition(
      "fleet synopsis unavailable: snapshot restored without base relation");
  snapshot->histogram_status = fleet_unavailable;
  snapshot->wavelet_status = fleet_unavailable;
  CONGRESS_RETURN_NOT_OK(catalog_.Publish(std::move(snapshot)));
  {
    std::lock_guard<std::mutex> states_lock(states_mu_);
    states_.emplace(name, std::move(state));
  }
  return Status::OK();
}

Result<std::shared_ptr<const AquaSnapshot>> AquaEngine::GetSnapshot(
    const std::string& name) const {
  return Pin(name);
}

Result<std::shared_ptr<const AquaSynopsis>> AquaEngine::GetSynopsis(
    const std::string& name) const {
  auto snapshot = Pin(name);
  if (!snapshot.ok()) return snapshot.status();
  // Aliasing handle: shares the pin's lifetime, points at the synopsis.
  return std::shared_ptr<const AquaSynopsis>(*snapshot,
                                             (*snapshot)->synopsis.get());
}

Result<std::shared_ptr<const Table>> AquaEngine::GetTable(
    const std::string& name) const {
  auto snapshot = Pin(name);
  if (!snapshot.ok()) return snapshot.status();
  return std::shared_ptr<const Table>(*snapshot, (*snapshot)->table.get());
}

}  // namespace congress
