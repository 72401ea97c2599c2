#include "wavelet/wavelet_synopsis.h"

#include <algorithm>
#include <cmath>

#include "histogram/group_histogram.h"

namespace congress {

namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void WaveletSynopsis::HaarForward(std::vector<double>* values) {
  const size_t n = values->size();
  std::vector<double> tmp(n);
  for (size_t len = n; len > 1; len /= 2) {
    for (size_t i = 0; i < len / 2; ++i) {
      double a = (*values)[2 * i];
      double b = (*values)[2 * i + 1];
      tmp[i] = (a + b) * kInvSqrt2;            // Smooth.
      tmp[len / 2 + i] = (a - b) * kInvSqrt2;  // Detail.
    }
    std::copy(tmp.begin(), tmp.begin() + len, values->begin());
  }
}

void WaveletSynopsis::HaarInverse(std::vector<double>* values) {
  const size_t n = values->size();
  std::vector<double> tmp(n);
  for (size_t len = 2; len <= n; len *= 2) {
    for (size_t i = 0; i < len / 2; ++i) {
      double s = (*values)[i];
      double d = (*values)[len / 2 + i];
      tmp[2 * i] = (s + d) * kInvSqrt2;
      tmp[2 * i + 1] = (s - d) * kInvSqrt2;
    }
    std::copy(tmp.begin(), tmp.begin() + len, values->begin());
  }
}

Result<WaveletSynopsis> WaveletSynopsis::Build(
    const Table& table, const std::vector<size_t>& grouping_columns,
    const Options& options) {
  auto census = GroupCensus::Build(table, grouping_columns, options.execution);
  if (!census.ok()) return census.status();
  return Build(table, *census, options);
}

Result<WaveletSynopsis> WaveletSynopsis::Build(const Table& table,
                                               const GroupCensus& census,
                                               const Options& options) {
  const std::vector<size_t>& grouping_columns = census.index->columns();
  if (grouping_columns.empty()) {
    return Status::InvalidArgument("at least one grouping column required");
  }
  if (options.coefficient_budget == 0) {
    return Status::InvalidArgument("coefficient budget must be positive");
  }
  for (size_t c : options.measure_columns) {
    if (c >= table.num_columns()) {
      return Status::InvalidArgument("measure column out of range");
    }
    if (table.schema().field(c).type == DataType::kString) {
      return Status::InvalidArgument("measure columns must be numeric");
    }
  }
  if (table.num_rows() == 0) {
    return Status::FailedPrecondition("table is empty");
  }
  CONGRESS_RETURN_NOT_OK(census.CheckTable(table));

  const GroupStatistics& stats = census.stats;
  const size_t m = stats.num_groups();
  const size_t padded = NextPowerOfTwo(m);
  const size_t num_vectors = 1 + options.measure_columns.size();

  WaveletSynopsis synopsis;
  synopsis.grouping_columns_ = grouping_columns;
  synopsis.measure_columns_ = options.measure_columns;
  synopsis.group_keys_ = stats.keys();

  // Data vectors: counts plus per-measure sums, padded with zeros.
  std::vector<std::vector<double>> vectors(
      num_vectors, std::vector<double>(padded, 0.0));
  for (size_t g = 0; g < m; ++g) {
    vectors[0][g] = static_cast<double>(stats.counts()[g]);
  }
  // Per-group measure sums, in row order within each group.
  census.ForEachRow(options.execution, [&](size_t slot, size_t row) {
    for (size_t k = 0; k < options.measure_columns.size(); ++k) {
      vectors[1 + k][slot] += table.NumericAt(row, options.measure_columns[k]);
    }
  });

  // Transform and rank every coefficient across all vectors jointly
  // (orthonormal Haar, so magnitudes are L2-comparable within a vector;
  // across vectors the count/sum scales differ, so rank by magnitude
  // normalized to each vector's total energy).
  struct Coefficient {
    double score;
    size_t vector;
    size_t index;
  };
  std::vector<Coefficient> ranked;
  ranked.reserve(num_vectors * padded);
  for (size_t v = 0; v < num_vectors; ++v) {
    HaarForward(&vectors[v]);
    double energy = 0.0;
    for (double c : vectors[v]) energy += c * c;
    double norm = energy > 0.0 ? std::sqrt(energy) : 1.0;
    for (size_t i = 0; i < padded; ++i) {
      if (vectors[v][i] != 0.0) {
        ranked.push_back(
            Coefficient{std::fabs(vectors[v][i]) / norm, v, i});
      }
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Coefficient& a, const Coefficient& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.vector != b.vector) return a.vector < b.vector;
              return a.index < b.index;
            });
  const size_t keep = std::min(options.coefficient_budget, ranked.size());
  synopsis.retained_ = keep;

  std::vector<std::vector<double>> kept(
      num_vectors, std::vector<double>(padded, 0.0));
  for (size_t i = 0; i < keep; ++i) {
    kept[ranked[i].vector][ranked[i].index] =
        vectors[ranked[i].vector][ranked[i].index];
  }
  for (size_t v = 0; v < num_vectors; ++v) {
    HaarInverse(&kept[v]);
    kept[v].resize(m);
  }
  synopsis.reconstructed_ = std::move(kept);
  return synopsis;
}

Result<ApproximateResult> WaveletSynopsis::Answer(
    const GroupByQuery& query) const {
  return AnswerFromGroupTotals(query, grouping_columns_, measure_columns_,
                               group_keys_, reconstructed_, "wavelet");
}

}  // namespace congress
