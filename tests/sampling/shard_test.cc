#include "sampling/shard.h"

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "sampling/maintenance.h"
#include "storage/table.h"
#include "testing/oracles.h"

namespace congress {
namespace {

Schema TwoColSchema() {
  return Schema({Field{"g", DataType::kInt64}, Field{"v", DataType::kDouble}});
}

std::vector<Value> Row(int64_t g, double v) { return {Value(g), Value(v)}; }

/// Skewed stream: group i%7==0 is rare, group 0 dominates.
Table MakeStream(size_t rows) {
  Table table(TwoColSchema());
  for (size_t i = 0; i < rows; ++i) {
    const int64_t g = (i % 7 == 0) ? 6 : static_cast<int64_t>(i % 3);
    EXPECT_TRUE(
        table.AppendRow(Row(g, static_cast<double>(i % 11))).ok());
  }
  return table;
}

std::vector<std::vector<Value>> AllRows(const Table& table) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.GetValue(r, c));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

ShardedIngestOptions Options(AllocationStrategy strategy, size_t shards,
                             uint64_t target = 60, uint64_t seed = 7) {
  ShardedIngestOptions options;
  options.strategy = strategy;
  options.target_sample_size = target;
  options.seed = seed;
  options.num_shards = shards;
  options.chunk_rows = 32;  // Small chunks exercise queue rollover.
  return options;
}

TEST(ShardedMaintainerTest, DeterministicMatchesSerialOnePass) {
  const Table table = MakeStream(600);
  const auto rows = AllRows(table);
  auto reference = BuildSampleOnePass(table, {0}, AllocationStrategy::kCongress,
                                      60, 7);
  ASSERT_TRUE(reference.ok());

  for (size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
    ShardedMaintainer sharded(
        TwoColSchema(), {0},
        Options(AllocationStrategy::kCongress, shards));
    // Mixed single-row and batched ingest from one producer.
    for (size_t r = 0; r < 100; ++r) {
      ASSERT_TRUE(sharded.Insert(rows[r]).ok());
    }
    ASSERT_TRUE(sharded.InsertBatch(
                    {rows.begin() + 100, rows.end()})
                    .ok());
    auto delta = sharded.MaterializeForPublish();
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    EXPECT_EQ(delta->tuples_seen, 600u);
    EXPECT_EQ(delta->merged_rows.size(), 600u);
    Status same = testing::CheckSamplesIdentical(delta->sample, *reference,
                                                 "sharded", "one-pass");
    EXPECT_TRUE(same.ok()) << same.ToString();
  }
}

TEST(ShardedMaintainerTest, MidStreamMergeIsShardCountInvariant) {
  const auto rows = AllRows(MakeStream(500));
  auto run = [&](size_t shards) {
    ShardedMaintainer sharded(
        TwoColSchema(), {0},
        Options(AllocationStrategy::kSenate, shards));
    EXPECT_TRUE(
        sharded.InsertBatch({rows.begin(), rows.begin() + 250}).ok());
    auto mid = sharded.MaterializeForPublish();
    EXPECT_TRUE(mid.ok());
    EXPECT_TRUE(sharded.InsertBatch({rows.begin() + 250, rows.end()}).ok());
    auto final_delta = sharded.MaterializeForPublish();
    EXPECT_TRUE(final_delta.ok());
    // The second merge only reports the rows it drained.
    EXPECT_EQ(final_delta->merged_rows.size(), 250u);
    EXPECT_EQ(final_delta->tuples_seen, 500u);
    return std::move(final_delta->sample);
  };
  const StratifiedSample one = run(1);
  const StratifiedSample four = run(4);
  const StratifiedSample eight = run(8);
  for (const StratifiedSample* other : {&four, &eight}) {
    Status same = testing::CheckSamplesIdentical(one, *other, "1 shard",
                                                 "more shards");
    EXPECT_TRUE(same.ok()) << same.ToString();
  }
}

TEST(ShardedMaintainerTest, CountersTrackIngestAndMerge) {
  const auto rows = AllRows(MakeStream(200));
  ShardedMaintainer sharded(TwoColSchema(), {0},
                            Options(AllocationStrategy::kHouse, 4));
  ASSERT_TRUE(sharded.InsertBatch(rows).ok());
  EXPECT_EQ(sharded.tuples_ingested(), 200u);
  EXPECT_EQ(sharded.tuples_merged(), 0u);
  EXPECT_EQ(sharded.pending_rows(), 200u);
  ASSERT_TRUE(sharded.MaterializeForPublish().ok());
  EXPECT_EQ(sharded.tuples_merged(), 200u);
  EXPECT_EQ(sharded.pending_rows(), 0u);
  EXPECT_EQ(sharded.num_shards(), 4u);
}

TEST(ShardedMaintainerTest, BadRowRejectsWholeBatch) {
  ShardedMaintainer sharded(TwoColSchema(), {0},
                            Options(AllocationStrategy::kCongress, 2));
  std::vector<std::vector<Value>> batch = {Row(1, 1.0),
                                           {Value(int64_t{2})},  // Bad arity.
                                           Row(3, 3.0)};
  EXPECT_FALSE(sharded.InsertBatch(batch).ok());
  EXPECT_EQ(sharded.tuples_ingested(), 0u);
  EXPECT_EQ(sharded.pending_rows(), 0u);
}

TEST(ShardedMaintainerTest, ConcurrentProducersLoseNothing) {
  const auto rows = AllRows(MakeStream(800));
  ShardedMaintainer sharded(TwoColSchema(), {0},
                            Options(AllocationStrategy::kCongress, 4));
  constexpr size_t kThreads = 4;
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      std::vector<std::vector<Value>> batch;
      for (size_t r = t; r < rows.size(); r += kThreads) {
        batch.push_back(rows[r]);
        if (batch.size() == 16) {
          ASSERT_TRUE(sharded.InsertBatch(batch).ok());
          batch.clear();
        }
      }
      if (!batch.empty()) {
        ASSERT_TRUE(sharded.InsertBatch(batch).ok());
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  auto delta = sharded.MaterializeForPublish();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->merged_rows.size(), 800u);
  EXPECT_EQ(delta->sample.total_population(), 800u);
  uint64_t population = 0;
  for (const Stratum& stratum : delta->sample.strata()) {
    population += stratum.population;
    EXPECT_LE(stratum.sample_count, stratum.population);
  }
  EXPECT_EQ(population, 800u);
}

TEST(ShardedMaintainerTest, MergeConcurrentWithProducersStaysConsistent) {
  // Merges racing live producers must account for every row exactly once
  // across the merge sequence — rows in flight land in a later merge.
  const auto rows = AllRows(MakeStream(1200));
  ShardedMaintainer sharded(TwoColSchema(), {0},
                            Options(AllocationStrategy::kCongress, 4));
  std::atomic<bool> done{false};
  std::thread producer([&] {
    std::vector<std::vector<Value>> batch;
    for (size_t r = 0; r < rows.size(); ++r) {
      batch.push_back(rows[r]);
      if (batch.size() == 8) {
        ASSERT_TRUE(sharded.InsertBatch(batch).ok());
        batch.clear();
      }
    }
    if (!batch.empty()) {
      ASSERT_TRUE(sharded.InsertBatch(batch).ok());
    }
    done.store(true, std::memory_order_release);
  });
  uint64_t merged = 0;
  while (!done.load(std::memory_order_acquire)) {
    auto delta = sharded.MaterializeForPublish();
    ASSERT_TRUE(delta.ok());
    merged += delta->merged_rows.size();
  }
  producer.join();
  auto last = sharded.MaterializeForPublish();
  ASSERT_TRUE(last.ok());
  merged += last->merged_rows.size();
  EXPECT_EQ(merged, 1200u);
  EXPECT_EQ(last->sample.total_population(), 1200u);
  EXPECT_EQ(last->tuples_seen, 1200u);
}

TEST(ShardedMaintainerTest, SenateShrinkUnderConcurrentInsert) {
  // Senate's per-group target shrinks every time a new group appears
  // (X / num_groups), so a stream that keeps discovering groups, fed by
  // concurrent producers through the shard front-end, forces ShrinkTo on
  // reservoirs during the merge's replay. The published sample must stay
  // within every post-shrink bound.
  constexpr size_t kRows = 1000;
  std::vector<std::vector<Value>> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    // Group count grows over the stream: 1 group for the first 100 rows,
    // 10 by the end.
    const int64_t g = static_cast<int64_t>(i / 100 == 0 ? 0 : i % (i / 100));
    rows.push_back(Row(g, static_cast<double>(i)));
  }
  ShardedMaintainer sharded(TwoColSchema(), {0},
                            Options(AllocationStrategy::kSenate, 4,
                                    /*target=*/48));
  constexpr size_t kThreads = 4;
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (size_t r = t; r < rows.size(); r += kThreads) {
        ASSERT_TRUE(sharded.Insert(rows[r]).ok());
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  auto delta = sharded.MaterializeForPublish();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->sample.total_population(), kRows);
  uint64_t sampled = 0;
  std::unordered_map<GroupKey, uint64_t, GroupKeyHash> exact;
  for (const auto& row : rows) exact[GroupKey{row[0]}] += 1;
  ASSERT_EQ(delta->sample.strata().size(), exact.size());
  for (const Stratum& stratum : delta->sample.strata()) {
    EXPECT_EQ(stratum.population, exact[stratum.key]);
    EXPECT_LE(stratum.sample_count, stratum.population);
    sampled += stratum.sample_count;
  }
  EXPECT_EQ(delta->sample.num_rows(), sampled);
}

TEST(ShardedMaintainerTest, ZeroShardsPicksHardwareDefault) {
  ShardedMaintainer sharded(TwoColSchema(), {0},
                            Options(AllocationStrategy::kCongress, 0));
  EXPECT_GE(sharded.num_shards(), 1u);
  EXPECT_LE(sharded.num_shards(), 8u);
}

}  // namespace
}  // namespace congress
