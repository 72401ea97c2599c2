#include "sampling/shard.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/flat_table.h"
#include "util/hash.h"

namespace congress {

namespace {

using RowValues = std::vector<Value>;

size_t DefaultShards() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min<size_t>(hw, 8);
}

}  // namespace

/// One buffered tuple: its global arrival sequence, its pre-interned
/// group key (the row's projection onto the grouping columns), and the
/// row itself.
struct ShardedMaintainer::BufferedRow {
  uint64_t seq = 0;
  GroupKey key;
  RowValues row;
};

/// One fixed-capacity segment of a shard's queue. Producers claim slot
/// ranges by CAS on `claimed` (never past capacity), fill their slots,
/// and publish each with a release store to its `ready` flag; when a
/// chunk fills up they link a successor via CAS on `next`. The consumer
/// walks chunks in link order and waits on `ready` for claimed slots.
struct ShardedMaintainer::Chunk {
  explicit Chunk(size_t cap) : ready(cap) { entries.resize(cap); }

  std::vector<std::atomic<uint8_t>> ready;
  std::vector<BufferedRow> entries;
  std::atomic<size_t> claimed{0};
  std::atomic<Chunk*> next{nullptr};
};

/// Cache-line-isolated per-shard state. Producers touch only `tail`, the
/// ticket counters and `rows_enqueued`; `head`/`consumed` belong to the
/// merger.
struct alignas(64) ShardedMaintainer::Shard {
  std::atomic<Chunk*> tail{nullptr};
  std::atomic<uint64_t> rows_enqueued{0};
  /// Quiescence tickets for chunk reclamation: a producer increments
  /// `enter` before touching the queue and `exit` after its last access.
  /// The merger unlinks consumed chunks, snapshots `enter`, and frees
  /// them only once `exit` catches up — any producer that could still
  /// hold a pointer into an unlinked chunk has left by then. Both sides
  /// use seq_cst so the snapshot cannot miss a producer that already
  /// loaded the old tail.
  std::atomic<uint64_t> enter{0};
  std::atomic<uint64_t> exit{0};

  // --- merger-only cursor (guarded by merge_mu_) ---
  Chunk* head = nullptr;
  size_t consumed = 0;
};

ShardedMaintainer::ShardedMaintainer(Schema base_schema,
                                     std::vector<size_t> grouping_columns,
                                     ShardedIngestOptions options)
    : schema_(std::move(base_schema)),
      grouping_columns_(std::move(grouping_columns)),
      options_(options),
      chunk_rows_(std::max<size_t>(16, options.chunk_rows)) {
  if (options_.num_shards == 0) options_.num_shards = DefaultShards();
  key_dicts_.resize(grouping_columns_.size());
  for (size_t j = 0; j < grouping_columns_.size(); ++j) {
    if (schema_.field(grouping_columns_[j]).type == DataType::kString) {
      key_dicts_[j] = std::make_unique<KeyDict>();
    }
  }
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    Chunk* first = new Chunk(chunk_rows_);
    shard->tail.store(first, std::memory_order_relaxed);
    shard->head = first;
    shards_.push_back(std::move(shard));
  }
  serial_ = MakeMaintainer(options_.strategy, schema_, grouping_columns_,
                           options_.target_sample_size, options_.seed);
}

ShardedMaintainer::~ShardedMaintainer() {
  for (auto& shard : shards_) {
    Chunk* c = shard->head;
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }
}

Status ShardedMaintainer::Insert(const std::vector<Value>& row) {
  return IngestRows(&row, 1);
}

Status ShardedMaintainer::InsertBatch(
    const std::vector<std::vector<Value>>& rows) {
  return IngestRows(rows.data(), rows.size());
}

Status ShardedMaintainer::IngestRows(const std::vector<Value>* rows,
                                     size_t n) {
  if (n == 0) return Status::OK();
  // Validate the whole batch up front so one bad row rejects the batch
  // atomically — nothing is buffered, no sequence numbers are burned.
  for (size_t i = 0; i < n; ++i) {
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema_, grouping_columns_, rows[i]));
  }
  CONGRESS_METRIC_INCR("ingest.batches", 1);
  CONGRESS_METRIC_INCR("ingest.rows", n);

  // Resolve string grouping values to shared-dictionary codes once per
  // row. The per-column dictionaries are read-mostly: a shared-lock Find
  // resolves values already seen by any producer; only a batch that
  // carries a genuinely new string takes the unique lock. The intern
  // below then hashes and compares int32 codes instead of re-walking key
  // character data per row (the old path paid Value::Hash on every
  // string cell of every row).
  std::vector<std::vector<int32_t>> col_codes(grouping_columns_.size());
  for (size_t j = 0; j < grouping_columns_.size(); ++j) {
    if (key_dicts_[j] == nullptr) continue;
    KeyDict& kd = *key_dicts_[j];
    std::vector<int32_t>& codes = col_codes[j];
    codes.resize(n);
    const size_t col = grouping_columns_[j];
    bool misses = false;
    {
      std::shared_lock<std::shared_mutex> lock(kd.mu);
      for (size_t i = 0; i < n; ++i) {
        codes[i] = kd.dict.Find(rows[i][col].AsString());
        if (codes[i] == StringDictionary::kNoCode) misses = true;
      }
    }
    if (misses) {
      std::unique_lock<std::shared_mutex> lock(kd.mu);
      for (size_t i = 0; i < n; ++i) {
        if (codes[i] == StringDictionary::kNoCode) {
          codes[i] = kd.dict.GetOrAdd(rows[i][col].AsString());
        }
      }
    }
  }

  // Batch group-intern (the PR 5 fast path): one GroupKey
  // materialization per *distinct* group in the batch, probed by the
  // composite hash of the grouping-column values (string columns via
  // their dictionary codes). Group ids are assigned in first-occurrence
  // order within the batch whatever the hash values are, so switching the
  // string hash to codes cannot change which key a row maps to.
  std::vector<GroupKey> keys;
  std::vector<uint32_t> first_row;  // First batch row of each interned key.
  std::vector<uint32_t> key_of_row(n);
  FlatIdTable intern(std::min<size_t>(n, 4096));
  for (size_t i = 0; i < n; ++i) {
    const RowValues& row = rows[i];
    size_t hash = grouping_columns_.size();
    for (size_t j = 0; j < grouping_columns_.size(); ++j) {
      if (key_dicts_[j] != nullptr) {
        HashCombine(&hash, std::hash<int32_t>{}(col_codes[j][i]));
      } else {
        HashCombine(&hash, row[grouping_columns_[j]].Hash());
      }
    }
    auto [id, inserted] = intern.Emplace(
        hash, static_cast<uint32_t>(keys.size()), [&](uint32_t candidate) {
          const GroupKey& key = keys[candidate];
          const uint32_t cand_row = first_row[candidate];
          for (size_t j = 0; j < grouping_columns_.size(); ++j) {
            if (key_dicts_[j] != nullptr) {
              // Code equality is string equality.
              if (col_codes[j][i] != col_codes[j][cand_row]) return false;
            } else if (key[j] != row[grouping_columns_[j]]) {
              return false;
            }
          }
          return true;
        });
    if (inserted) {
      GroupKey key;
      key.reserve(grouping_columns_.size());
      for (size_t c : grouping_columns_) key.push_back(row[c]);
      keys.push_back(std::move(key));
      first_row.push_back(static_cast<uint32_t>(i));
    }
    key_of_row[i] = id;
  }

  const uint64_t base_seq =
      next_seq_.fetch_add(n, std::memory_order_relaxed);
  Shard* shard =
      shards_[batch_counter_.fetch_add(1, std::memory_order_relaxed) %
              shards_.size()]
          .get();

  shard->enter.fetch_add(1, std::memory_order_seq_cst);
  size_t done = 0;
  while (done < n) {
    // Claim a run of slots in the producer-visible tail chunk; when it is
    // full, link (or help link) a successor and advance the shared tail.
    Chunk* chunk = shard->tail.load(std::memory_order_seq_cst);
    size_t start = 0;
    size_t granted = 0;
    while (granted == 0) {
      size_t cur = chunk->claimed.load(std::memory_order_relaxed);
      while (cur < chunk_rows_) {
        size_t take = std::min(n - done, chunk_rows_ - cur);
        if (chunk->claimed.compare_exchange_weak(
                cur, cur + take, std::memory_order_relaxed)) {
          start = cur;
          granted = take;
          break;
        }
      }
      if (granted != 0) break;
      Chunk* next = chunk->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        Chunk* fresh = new Chunk(chunk_rows_);
        if (chunk->next.compare_exchange_strong(next, fresh,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
          next = fresh;
        } else {
          delete fresh;  // Another producer linked first.
        }
      }
      shard->tail.compare_exchange_strong(chunk, next,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst);
      chunk = shard->tail.load(std::memory_order_seq_cst);
    }
    for (size_t j = 0; j < granted; ++j) {
      BufferedRow& slot = chunk->entries[start + j];
      slot.seq = base_seq + done + j;
      slot.key = keys[key_of_row[done + j]];
      slot.row = rows[done + j];
      chunk->ready[start + j].store(1, std::memory_order_release);
    }
    done += granted;
  }
  shard->rows_enqueued.fetch_add(n, std::memory_order_relaxed);
  shard->exit.fetch_add(1, std::memory_order_seq_cst);
  return Status::OK();
}

std::vector<ShardedMaintainer::BufferedRow> ShardedMaintainer::DrainAll() {
  std::vector<BufferedRow> drained;
  std::vector<Chunk*> retired;
  for (auto& sp : shards_) {
    Shard* shard = sp.get();
    while (true) {
      Chunk* chunk = shard->head;
      const size_t limit = std::min(
          chunk->claimed.load(std::memory_order_acquire), chunk_rows_);
      while (shard->consumed < limit) {
        std::atomic<uint8_t>& flag = chunk->ready[shard->consumed];
        // A claimed slot may still be mid-fill by its producer; the wait
        // is bounded by one row copy.
        while (flag.load(std::memory_order_acquire) == 0) {
          std::this_thread::yield();
        }
        drained.push_back(std::move(chunk->entries[shard->consumed]));
        flag.store(0, std::memory_order_relaxed);
        ++shard->consumed;
      }
      if (shard->consumed < chunk_rows_) break;  // Chunk not exhausted.
      Chunk* next = chunk->next.load(std::memory_order_acquire);
      if (next == nullptr) break;  // Exhausted but still the tail.
      // Unlink before retiring: once `tail` no longer points at the
      // chunk, no *future* producer can reach it (the chain only moves
      // forward); the quiescence wait below covers producers already in
      // flight.
      Chunk* expected = chunk;
      shard->tail.compare_exchange_strong(expected, next,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst);
      shard->head = next;
      shard->consumed = 0;
      retired.push_back(chunk);
    }
  }
  if (!retired.empty()) {
    std::vector<uint64_t> tickets(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      tickets[i] = shards_[i]->enter.load(std::memory_order_seq_cst);
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      while (shards_[i]->exit.load(std::memory_order_seq_cst) < tickets[i]) {
        std::this_thread::yield();
      }
    }
    for (Chunk* chunk : retired) delete chunk;
  }
  std::sort(drained.begin(), drained.end(),
            [](const BufferedRow& a, const BufferedRow& b) {
              return a.seq < b.seq;
            });
  return drained;
}

Result<PublishDelta> ShardedMaintainer::MaterializeForPublish() {
  std::lock_guard<std::mutex> lock(merge_mu_);
  const auto start = std::chrono::steady_clock::now();

  std::vector<BufferedRow> drained = DrainAll();
  PublishDelta delta;
  delta.merged_rows.reserve(drained.size());

  // Replay in global sequence order into the persistent serial
  // maintainer: identical to having fed the rows serially.
  for (BufferedRow& buffered : drained) {
    CONGRESS_RETURN_NOT_OK(serial_->InsertWithKey(buffered.row, buffered.key));
    delta.merged_rows.push_back(std::move(buffered.row));
  }
  auto sample = MaterializeSnapshot(serial_.get(), options_.target_sample_size);
  if (!sample.ok()) return sample.status();

  tuples_merged_.fetch_add(drained.size(), std::memory_order_relaxed);
  delta.sample = std::move(*sample);
  delta.tuples_seen = delta.sample.total_population();

  CONGRESS_METRIC_INCR("ingest.merges", 1);
  CONGRESS_METRIC_INCR("ingest.merged_rows", drained.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    CONGRESS_METRIC_SET_DYN(
        "ingest.shard_rows." + std::to_string(i),
        static_cast<int64_t>(
            shards_[i]->rows_enqueued.load(std::memory_order_relaxed)));
  }
  CONGRESS_METRIC_RECORD_NANOS(
      "ingest.merge_latency",
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return delta;
}

uint64_t ShardedMaintainer::tuples_ingested() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->rows_enqueued.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ShardedMaintainer::tuples_merged() const {
  return tuples_merged_.load(std::memory_order_relaxed);
}

uint64_t ShardedMaintainer::pending_rows() const {
  const uint64_t ingested = tuples_ingested();
  const uint64_t merged = tuples_merged();
  return ingested > merged ? ingested - merged : 0;
}

size_t ShardedMaintainer::num_shards() const { return shards_.size(); }

}  // namespace congress
