// Heap allocations of one answer's whole path: an approximate estimate or
// an exact roll-up, then encode and decode. A counting operator new
// replaces the global one in this test binary only, so the count covers
// every allocation the library makes on the calling thread.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "engine/exact_rollups.h"
#include "engine/zone_map.h"
#include "net/wire.h"
#include "sampling/builder.h"
#include "util/random.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace congress {
namespace {

/// 20,000 rows: `fine` takes 1,000 values and `coarse` = fine / 10 takes
/// 100, so a sample stratified on both has 1,000 strata, and grouping on
/// either column is covered by them.
Table MakeTable() {
  Table t{Schema({Field{"fine", DataType::kInt64},
                  Field{"coarse", DataType::kInt64},
                  Field{"v", DataType::kDouble}})};
  for (int64_t i = 0; i < 20000; ++i) {
    const int64_t fine = (i * 7919) % 1000;
    EXPECT_TRUE(t.AppendRow({Value(fine), Value(fine / 10),
                             Value(static_cast<double>(i % 97))})
                    .ok());
  }
  return t;
}

GroupByQuery SumCountBy(size_t column) {
  GroupByQuery q;
  q.group_columns = {column};
  q.aggregates = {{AggregateKind::kSum, 2}, {AggregateKind::kCount, 0}};
  return q;
}

ExecutorOptions OneThread() {
  ExecutorOptions execution;
  execution.num_threads = 1;
  return execution;
}

/// Allocations made while `answer` computes a result, which is then
/// encoded as a response frame and decoded again.
template <typename Answer>
uint64_t AnswerAllocations(const Answer& answer, size_t* groups) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  Result<ApproximateResult> result = answer();
  if (!result.ok()) {
    ADD_FAILURE() << result.status().ToString();
    return 0;
  }
  serve::Response response;
  response.result = std::move(result).value();
  std::string frame;
  net::EncodeFrame(net::FrameType::kResponse, 1,
                   net::EncodeResponse(response), &frame);
  auto decoded = net::DecodeResponse(frame.data() + net::kFrameHeaderBytes,
                                     frame.size() - net::kFrameHeaderBytes);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  if (!decoded.ok()) {
    ADD_FAILURE() << decoded.status().ToString();
    return 0;
  }
  *groups = decoded->result.num_groups();
  return after - before;
}

TEST(AnswerAllocationsTest, CountDoesNotGrowWithGroups) {
  const Table table = MakeTable();
  Random rng(5);
  auto sample = BuildSample(table, {0, 1}, AllocationStrategy::kSenate,
                            5000.0, &rng);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  const SampleMoments moments = SampleMoments::Compute(*sample);
  const GroupByQuery by_coarse = SumCountBy(1);
  const GroupByQuery by_fine = SumCountBy(0);
  auto estimate = [&](const GroupByQuery& query) {
    return [&sample, &moments, &query] {
      return EstimateGroupBy(*sample, moments, query, {}, OneThread());
    };
  };
  size_t groups = 0;
  // Warm-up: first uses register metrics, resolve kernels and memoize
  // each grouping's roll-up.
  AnswerAllocations(estimate(by_coarse), &groups);
  AnswerAllocations(estimate(by_fine), &groups);

  const uint64_t coarse = AnswerAllocations(estimate(by_coarse), &groups);
  EXPECT_EQ(groups, 100u);
  const uint64_t fine = AnswerAllocations(estimate(by_fine), &groups);
  EXPECT_EQ(groups, 1000u);
  RecordProperty("allocations_100_groups", std::to_string(coarse));
  RecordProperty("allocations_1000_groups", std::to_string(fine));
  EXPECT_EQ(coarse, fine) << "100 groups: " << coarse
                          << " allocations, 1,000 groups: " << fine;
}

TEST(AnswerAllocationsTest, ExactCountDoesNotGrowWithGroups) {
  // An exact answer is written straight into the flat answer the wire
  // encodes: no per-group key or vector, and no second copy.
  const auto table = std::make_shared<const Table>(MakeTable());
  auto index = GroupIndex::Build(*table, {0, 1});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const ExactRollups rollups(
      table, std::make_shared<const GroupIndex>(std::move(index).value()),
      std::make_shared<const ZoneMap>(ZoneMap::Build(*table)));
  const GroupByQuery by_coarse = SumCountBy(1);
  const GroupByQuery by_fine = SumCountBy(0);
  auto exact = [&rollups](const GroupByQuery& query) {
    return [&rollups, &query] { return rollups.Execute(query, OneThread()); };
  };
  size_t groups = 0;
  // Warm-up: builds each grouping's memo entry and its states.
  AnswerAllocations(exact(by_coarse), &groups);
  AnswerAllocations(exact(by_fine), &groups);

  const uint64_t coarse = AnswerAllocations(exact(by_coarse), &groups);
  EXPECT_EQ(groups, 100u);
  const uint64_t fine = AnswerAllocations(exact(by_fine), &groups);
  EXPECT_EQ(groups, 1000u);
  RecordProperty("exact_allocations_100_groups", std::to_string(coarse));
  RecordProperty("exact_allocations_1000_groups", std::to_string(fine));
  EXPECT_EQ(coarse, fine) << "100 groups: " << coarse
                          << " allocations, 1,000 groups: " << fine;
}

}  // namespace
}  // namespace congress
