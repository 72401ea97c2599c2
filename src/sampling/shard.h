#ifndef CONGRESS_SAMPLING_SHARD_H_
#define CONGRESS_SAMPLING_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "sampling/allocation.h"
#include "sampling/maintenance.h"
#include "sampling/stratified_sample.h"
#include "storage/string_dict.h"
#include "storage/table.h"
#include "util/status.h"

namespace congress {

/// Configuration for a ShardedMaintainer.
struct ShardedIngestOptions {
  AllocationStrategy strategy = AllocationStrategy::kCongress;
  /// Target expected sample size X for the published sample.
  uint64_t target_sample_size = 1000;
  uint64_t seed = 42;
  /// Number of ingest shards; 0 picks one per hardware thread (capped at
  /// 8 — beyond that merge fan-in costs more than contention saves).
  size_t num_shards = 0;
  /// Rows per buffer chunk. Each shard's queue grows in chunks of this
  /// many slots; bigger chunks amortize allocation, smaller ones bound
  /// the memory retained between merges.
  size_t chunk_rows = 1024;
};

/// What one merge hands the publisher: the full current sample plus the
/// rows this merge drained (in replay order), so the caller can extend
/// its row-store mirror of the stream without re-reading the shards.
struct PublishDelta {
  StratifiedSample sample;
  std::vector<std::vector<Value>> merged_rows;
  /// Total tuples reflected in `sample` (== sample.total_population()).
  uint64_t tuples_seen = 0;
};

/// Sharded, lock-free streaming ingest front-end for the incremental
/// maintainers (DESIGN.md §15). Producers append batches to per-shard
/// multi-producer chunk queues — slot claims are CAS-only, publication is
/// one release store per row, and nothing on the hot path takes a lock.
/// Every row is stamped with a global sequence number on arrival. A
/// single merger (serialized internally, typically the engine's publish
/// step) drains the shards and replays the buffered rows, sorted by
/// sequence, into one persistent serial maintainer. With a single
/// producer the published sample is bit-identical to feeding the same
/// rows through the serial maintainer directly, at any shard count. With
/// concurrent producers it is bit-identical to feeding the serial
/// maintainer every merge's `PublishDelta::merged_rows` in order: one
/// interleaving of the completed inserts.
///
/// Thread safety: Insert/InsertBatch may be called from any number of
/// threads concurrently with each other and with MaterializeForPublish.
/// MaterializeForPublish serializes against itself. The destructor must
/// not race with any other call.
class ShardedMaintainer {
 public:
  /// `grouping_columns` are base-schema column indices (already
  /// validated by the caller, e.g. ResolveGroupingIndices).
  ShardedMaintainer(Schema base_schema, std::vector<size_t> grouping_columns,
                    ShardedIngestOptions options);
  ~ShardedMaintainer();

  ShardedMaintainer(const ShardedMaintainer&) = delete;
  ShardedMaintainer& operator=(const ShardedMaintainer&) = delete;

  /// Ingests one row. Equivalent to a one-row InsertBatch.
  Status Insert(const std::vector<Value>& row);

  /// Ingests a batch: validates every row up front (a bad row rejects the
  /// whole batch before anything is buffered), interns each distinct
  /// group key once, stamps the batch with contiguous global sequence
  /// numbers, and appends it to one shard (round-robin per batch).
  Status InsertBatch(const std::vector<std::vector<Value>>& rows);

  /// Drains every shard and produces the current sample plus the newly
  /// merged rows. Safe to run concurrently with producers: rows from
  /// inserts still in flight either land in this merge or the next one.
  Result<PublishDelta> MaterializeForPublish();

  /// Rows accepted by Insert/InsertBatch so far (atomic, approximate
  /// under concurrency).
  uint64_t tuples_ingested() const;
  /// Rows folded into the sample by merges so far.
  uint64_t tuples_merged() const;
  /// Rows buffered but not yet merged.
  uint64_t pending_rows() const;

  size_t num_shards() const;

 private:
  struct Chunk;
  struct Shard;

  Status IngestRows(const std::vector<Value>* rows, size_t n);
  /// Drains all shards into seq-sorted replay order, reclaiming consumed
  /// chunks once in-flight producers have quiesced. Caller holds
  /// merge_mu_.
  struct BufferedRow;
  std::vector<BufferedRow> DrainAll();

  /// Shared string dictionary for one string-typed grouping column.
  /// Read-mostly: repeated key values resolve to their code under a
  /// shared lock; only a genuinely new string takes the unique lock.
  struct KeyDict {
    std::shared_mutex mu;
    StringDictionary dict;
  };

  Schema schema_;
  std::vector<size_t> grouping_columns_;
  ShardedIngestOptions options_;
  size_t chunk_rows_;
  /// One slot per grouping column; null for non-string columns. Codes
  /// are only used for batch-intern hashing/equality, so cross-run code
  /// numbering can never leak into sample contents.
  std::vector<std::unique_ptr<KeyDict>> key_dicts_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global arrival order: each batch claims [seq, seq + n).
  std::atomic<uint64_t> next_seq_{0};
  /// Round-robin batch router.
  std::atomic<uint64_t> batch_counter_{0};
  std::atomic<uint64_t> tuples_merged_{0};

  /// Serializes merges; producers never touch it.
  std::mutex merge_mu_;
  /// The persistent serial maintainer every merge replays into (same
  /// seed as a non-sharded build).
  std::unique_ptr<SampleMaintainer> serial_;
};

}  // namespace congress

#endif  // CONGRESS_SAMPLING_SHARD_H_
