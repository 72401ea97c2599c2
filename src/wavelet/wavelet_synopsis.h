#ifndef CONGRESS_WAVELET_WAVELET_SYNOPSIS_H_
#define CONGRESS_WAVELET_WAVELET_SYNOPSIS_H_

#include <cstdint>
#include <vector>

#include "engine/query.h"
#include "sampling/allocation.h"
#include "storage/table.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

/// The other baseline of the paper's footnote 4: a wavelet synopsis in
/// the spirit of [VW99]. The per-group COUNT and per-measure SUM vectors
/// over the sorted finest groups are Haar-transformed; only the
/// `coefficient_budget` largest (orthonormally scaled) coefficients are
/// kept; queries reconstruct the vectors from the retained coefficients
/// and roll up. Dense value mass compresses well; many similar-magnitude
/// small groups next to occasional huge ones (Zipf skew) do not — the
/// same small-group failure mode footnote 4 attributes to this family.
class WaveletSynopsis {
 public:
  struct Options {
    /// Total retained coefficients across all transformed vectors.
    size_t coefficient_budget = 256;
    std::vector<size_t> measure_columns;
    /// Parallelism for the build scans. Results are bit-identical for
    /// every thread count (per-group sums accumulate in row order).
    ExecutorOptions execution;
  };

  /// Builds the synopsis over `table` at the grouping of `census`, which
  /// must describe `table`.
  static Result<WaveletSynopsis> Build(const Table& table,
                                       const GroupCensus& census,
                                       const Options& options);

  /// Interns `table` over `grouping_columns` into a census, then calls
  /// the form above.
  static Result<WaveletSynopsis> Build(
      const Table& table, const std::vector<size_t>& grouping_columns,
      const Options& options);

  /// Answers SUM/COUNT/AVG group-bys over the synopsis dimensions (no
  /// tuple predicates, like the histogram baseline), as
  /// AnswerFromGroupTotals does.
  Result<ApproximateResult> Answer(const GroupByQuery& query) const;

  /// Coefficients actually retained (may be below the budget if the
  /// vectors have fewer non-zero coefficients).
  size_t retained_coefficients() const { return retained_; }
  /// Storage cells: each coefficient stores (vector id, index, value).
  size_t StorageCells() const { return retained_ * 3; }

  /// One-dimensional Haar transform utilities (exposed for testing).
  /// Length must be a power of two. Orthonormal scaling.
  static void HaarForward(std::vector<double>* values);
  static void HaarInverse(std::vector<double>* values);

 private:
  WaveletSynopsis() = default;

  std::vector<size_t> grouping_columns_;
  std::vector<size_t> measure_columns_;
  std::vector<GroupKey> group_keys_;  // Sorted finest groups.
  /// Reconstructed per-group vectors: [0] = counts, [1 + k] = measure k
  /// sums. (A production system would store coefficients; reconstructing
  /// at build time trades memory for query speed without changing
  /// accuracy.)
  std::vector<std::vector<double>> reconstructed_;
  size_t retained_ = 0;
};

}  // namespace congress

#endif  // CONGRESS_WAVELET_WAVELET_SYNOPSIS_H_
