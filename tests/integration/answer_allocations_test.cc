// Heap allocations of one approximate answer's whole path: estimate,
// encode, decode. A counting operator new replaces the global one in this
// test binary only, so the count covers every allocation the library
// makes on the calling thread.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/estimator.h"
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

/// Allocations made while `query` is estimated from `sample`, encoded
/// as a response frame and decoded again.
uint64_t AnswerAllocations(const StratifiedSample& sample,
                           const SampleMoments& moments,
                           const GroupByQuery& query, size_t* groups) {
  ExecutorOptions execution;
  execution.num_threads = 1;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  auto estimate = EstimateGroupBy(sample, moments, query, {}, execution);
  if (!estimate.ok()) {
    ADD_FAILURE() << estimate.status().ToString();
    return 0;
  }
  serve::Response response;
  response.result = std::move(estimate).value();
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
  size_t groups = 0;
  // Warm-up: first uses register metrics, resolve kernels and memoize
  // each grouping's roll-up.
  AnswerAllocations(*sample, moments, by_coarse, &groups);
  AnswerAllocations(*sample, moments, by_fine, &groups);

  const uint64_t coarse =
      AnswerAllocations(*sample, moments, by_coarse, &groups);
  EXPECT_EQ(groups, 100u);
  const uint64_t fine = AnswerAllocations(*sample, moments, by_fine, &groups);
  EXPECT_EQ(groups, 1000u);
  RecordProperty("allocations_100_groups", std::to_string(coarse));
  RecordProperty("allocations_1000_groups", std::to_string(fine));
  EXPECT_EQ(coarse, fine) << "100 groups: " << coarse
                          << " allocations, 1,000 groups: " << fine;
}

}  // namespace
}  // namespace congress
