// Streaming maintenance: the Section 6 story. A warehouse keeps loading
// new sales data — including data for products (groups) that did not
// exist when the synopsis was built — and loads it from several client
// threads at once. Inserts stream through the sharded lock-free ingest
// front-end (DESIGN.md §15): producers buffer into per-core chunk queues
// without ever taking the writer lock, a live reader keeps answering
// from the pinned snapshot the whole time, and Refresh() merges the
// shards, replays them into one serial maintainer and atomically
// publishes the next snapshot (DESIGN.md §14).
//
// Part 2 adds the operational story: the stream is checkpointed to disk
// every 10K inserts (with the I/O overlapped on a background writer), a
// "crash" restarts the server from the snapshot alone, a corrupted
// checkpoint is salvaged stratum by stratum, and the query path degrades
// gracefully when the primary synopsis is lost.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/aqua.h"
#include "core/metrics.h"
#include "core/synopsis.h"
#include "engine/executor.h"
#include "resilience/checkpoint.h"
#include "resilience/failpoint.h"
#include "resilience/recovery.h"
#include "tpcd/lineitem.h"
#include "tpcd/workload.h"

using namespace congress;

int main() {
  // Day 0: 300K rows over 125 groups.
  tpcd::LineitemConfig config;
  config.num_tuples = 300'000;
  config.num_groups = 125;
  config.group_skew_z = 0.86;
  config.seed = 11;
  auto day0 = tpcd::GenerateLineitem(config);
  if (!day0.ok()) {
    std::printf("generation failed: %s\n", day0.status().ToString().c_str());
    return 1;
  }

  SynopsisConfig sconfig;
  sconfig.strategy = AllocationStrategy::kCongress;
  sconfig.sample_size = 20'000;
  sconfig.grouping_columns = {"l_returnflag", "l_linestatus", "l_shipdate"};
  sconfig.incremental = true;  // One-pass build + live maintenance.
  sconfig.ingest_shards = 4;   // Sharded front-end (0 = one per core).
  sconfig.seed = 4;

  AquaEngine engine;
  if (!engine.RegisterTable("lineitem", day0->table, sconfig).ok()) {
    std::printf("register failed\n");
    return 1;
  }
  {
    auto published = engine.GetSynopsis("lineitem");
    if (!published.ok()) return 1;
    std::printf("day 0: synopsis over %llu tuples, %zu strata, %zu sampled\n",
                static_cast<unsigned long long>(
                    (*published)->sample().total_population()),
                (*published)->sample().strata().size(),
                (*published)->sample().num_rows());
  }

  // Keep a mirror of the full relation so we can score accuracy.
  Table full = day0->table;

  // Days 1..3: each day, 4 loader threads stream 100K new rows (batches
  // of 500) whose shipdates — one of the grouping columns — include
  // values never seen before: new groups. A reader thread queries the
  // whole time; it always answers from a consistent pinned snapshot and
  // is never blocked by the loaders.
  const std::string live_sql =
      "SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag";
  constexpr size_t kLoaders = 4;
  constexpr size_t kBatchRows = 500;
  for (int day = 1; day <= 3; ++day) {
    tpcd::LineitemConfig day_config = config;
    day_config.num_tuples = 100'000;
    day_config.seed = 100 + day;  // Fresh domains -> mostly new groups.
    auto batch = tpcd::GenerateLineitem(day_config);
    if (!batch.ok()) {
      std::printf("batch failed\n");
      return 1;
    }
    const Table& incoming = batch->table;

    std::atomic<bool> loaders_done{false};
    std::atomic<uint64_t> live_reads{0};
    std::atomic<int> errors{0};
    std::thread reader([&] {
      while (!loaders_done.load(std::memory_order_acquire)) {
        if (engine.Query(live_sql).ok()) {
          live_reads.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });

    std::vector<std::thread> loaders;
    const size_t per_loader = incoming.num_rows() / kLoaders;
    for (size_t t = 0; t < kLoaders; ++t) {
      loaders.emplace_back([&, t] {
        const size_t begin = t * per_loader;
        const size_t end =
            t + 1 == kLoaders ? incoming.num_rows() : begin + per_loader;
        std::vector<std::vector<Value>> rows;
        rows.reserve(kBatchRows);
        for (size_t r = begin; r < end; ++r) {
          std::vector<Value> row;
          for (size_t c = 0; c < incoming.num_columns(); ++c) {
            row.push_back(incoming.GetValue(r, c));
          }
          rows.push_back(std::move(row));
          if (rows.size() == kBatchRows || r + 1 == end) {
            if (!engine.InsertBatch("lineitem", rows).ok()) {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
            rows.clear();
          }
        }
      });
    }
    for (std::thread& loader : loaders) loader.join();
    loaders_done.store(true, std::memory_order_release);
    reader.join();
    for (size_t r = 0; r < incoming.num_rows(); ++r) {
      full.AppendRowFrom(incoming, r);
    }
    if (errors.load() != 0) {
      std::printf("day %d: %d insert/query errors\n", day, errors.load());
      return 1;
    }

    // Merge the shards and publish; then score the published synopsis
    // against the exact answer over the mirrored relation.
    if (!engine.Refresh("lineitem").ok()) {
      std::printf("refresh failed\n");
      return 1;
    }
    auto published = engine.GetSynopsis("lineitem");
    if (!published.ok()) return 1;
    GroupByQuery qg2 = tpcd::MakeQg2();
    auto exact = ExecuteExact(full, qg2);
    auto approx = (*published)->Answer(qg2);
    if (!exact.ok() || !approx.ok()) {
      std::printf("query failed\n");
      return 1;
    }
    auto report = CompareAnswers(*exact, *approx, 0);
    std::printf(
        "day %d: %zu loader threads, %llu live reads | population %llu, "
        "strata %zu, sample %zu | Qg2 groups %zu/%zu answered, L1 error "
        "%.2f%%\n",
        day, kLoaders,
        static_cast<unsigned long long>(live_reads.load()),
        static_cast<unsigned long long>(
            (*published)->sample().total_population()),
        (*published)->sample().strata().size(),
        (*published)->sample().num_rows(),
        exact->num_groups() - report.missing_groups, exact->num_groups(),
        report.l1);
  }

  std::printf(
      "\nNo loader ever took the writer lock and no reader ever saw a "
      "half-published state: batches buffered into per-core shards, the "
      "merge replayed them in arrival order (bit-identical to a serial "
      "rebuild), and every refresh republished a valid congressional "
      "sample.\n");

  // ------------------------------------------------------------------
  // Part 2: durability. The same stream, but checkpointed to disk every
  // 10K inserts so a crash costs at most one cadence window. The async
  // policy captures each image synchronously (bytes identical to sync
  // mode) and overlaps only the file I/O with the ingest.
  // ------------------------------------------------------------------
  const std::string snap_path = "/tmp/streaming_maintenance_ckpt.snap";
  std::vector<size_t> grouping;
  {
    auto published = engine.GetSynopsis("lineitem");
    if (!published.ok()) return 1;
    grouping = (*published)->grouping_column_indices();
  }

  resilience::CheckpointPolicy policy;
  policy.path = snap_path;
  policy.every_n_inserts = 10'000;
  policy.async = true;  // Background writer; latest image wins.
  resilience::CheckpointingMaintainer ckpt(
      MakeCongressMaintainer(full.schema(), grouping, 20'000, /*seed=*/4),
      AllocationStrategy::kCongress, 20'000, /*seed=*/4, policy);

  constexpr size_t kStreamed = 100'000;
  std::vector<Value> row;
  for (size_t r = 0; r < kStreamed; ++r) {
    row.clear();
    for (size_t c = 0; c < full.num_columns(); ++c) {
      row.push_back(full.GetValue(r, c));
    }
    if (!ckpt.Insert(row).ok()) {
      std::printf("checkpointed insert failed\n");
      return 1;
    }
  }
  if (!ckpt.Flush().ok()) {  // Wait for the background writer to drain.
    std::printf("checkpoint flush failed\n");
    return 1;
  }
  std::printf(
      "\ncheckpointing: streamed %zu tuples, wrote %llu snapshots (every "
      "%llu inserts, I/O off-thread) to %s\n",
      kStreamed, static_cast<unsigned long long>(ckpt.checkpoints_written()),
      static_cast<unsigned long long>(policy.every_n_inserts),
      snap_path.c_str());

  // "Crash": the maintainer's in-memory state is gone; restart from the
  // snapshot file alone.
  auto recovered = resilience::RecoverSnapshot(snap_path);
  if (!recovered.ok()) {
    std::printf("recovery failed: %s\n",
                recovered.status().ToString().c_str());
    return 1;
  }
  auto restored = AquaSynopsis::FromSample(
      std::move(recovered->image.sample), sconfig,
      recovered->image.target_size, recovered->image.tuples_seen);
  if (!restored.ok()) {
    std::printf("restore failed: %s\n", restored.status().ToString().c_str());
    return 1;
  }
  GroupByQuery qg2 = tpcd::MakeQg2();
  auto answer_after_restart = restored->Answer(qg2);
  std::printf(
      "restart: recovered %s snapshot at stream position %llu (%zu strata, "
      "%zu rows), Qg2 answers %zu groups; inserts now rejected "
      "(maintainer RNG not persisted)\n",
      recovered->report.clean ? "clean" : "damaged",
      static_cast<unsigned long long>(restored->tuples_seen()),
      restored->sample().strata().size(), restored->sample().num_rows(),
      answer_after_restart.ok() ? answer_after_restart->num_groups() : 0);

  // Deliberately corrupt the checkpoint: flip one byte mid-file, where
  // the stratum sections live. Recovery salvages every stratum whose
  // CRC still verifies and drops only the damaged one.
  {
    std::ifstream in(snap_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x5A;
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto salvaged = resilience::RecoverSnapshot(snap_path);
  if (salvaged.ok()) {
    std::printf(
        "corrupted checkpoint: salvaged %zu strata, lost %zu "
        "(%zu corrupt sections)\n",
        salvaged->report.salvaged_strata, salvaged->report.lost_strata,
        salvaged->report.corrupt_sections);
  } else {
    std::printf("corrupted checkpoint unusable: %s\n",
                salvaged.status().ToString().c_str());
  }
  std::remove(snap_path.c_str());

  // Graceful degradation: with the primary synopsis lost (simulated via
  // its failpoint), QueryResilient walks the ladder instead of erroring:
  // Congress -> BasicCongress -> House -> exact scan. Both fallback
  // synopses were built eagerly when the snapshot was published, so the
  // walk is const — it reads the pinned snapshot and touches no shared
  // mutable state, even with concurrent writers.
  AquaEngine ladder_engine;
  SynopsisConfig econfig = sconfig;
  econfig.incremental = false;
  if (!ladder_engine.RegisterTable("lineitem", full, econfig).ok()) {
    std::printf("register failed\n");
    return 1;
  }
  const std::string sql =
      "SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag";
  {
    resilience::ScopedFailpoint primary_down("aqua/primary_answer");
    auto degraded = ladder_engine.QueryResilient(sql);
    if (!degraded.ok()) {
      std::printf("resilient query failed: %s\n",
                  degraded.status().ToString().c_str());
      return 1;
    }
    std::printf("degraded answer: %zu groups via ladder [%s]\n",
                degraded->result.num_groups(),
                degraded->degradation.ToString().c_str());
  }
  auto healthy = ladder_engine.QueryResilient(sql);
  if (healthy.ok() && !healthy->degradation.degraded()) {
    std::printf(
        "primary healthy again: same query answers undegraded "
        "(%zu groups)\n",
        healthy->result.num_groups());
  }
  return 0;
}
