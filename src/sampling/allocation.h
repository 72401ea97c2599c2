#ifndef CONGRESS_SAMPLING_ALLOCATION_H_
#define CONGRESS_SAMPLING_ALLOCATION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/group_index.h"
#include "storage/table.h"
#include "storage/value.h"
#include "util/parallel.h"
#include "util/status.h"

namespace congress {

/// The sample-space allocation strategies of Section 4 of the paper.
enum class AllocationStrategy {
  kHouse = 0,          ///< Uniform over tuples (Section 4.3).
  kSenate = 1,         ///< Equal space per finest group (Section 4.4).
  kBasicCongress = 2,  ///< max(House, Senate), rescaled (Section 4.5).
  kCongress = 3,       ///< max over all sub-groupings, rescaled (Section 4.6).
};

const char* AllocationStrategyToString(AllocationStrategy strategy);

/// A census of a relation at the finest grouping G: every non-empty group
/// and its tuple count. This is the "data cube of counts" that the
/// two-pass builders consume (inside a GroupCensus). Groups are sorted by
/// key so allocations are deterministic.
class GroupStatistics {
 public:
  GroupStatistics() = default;

  /// The statistics of GroupCensus::Build(table, group_columns, options);
  /// empty when that fails (for example, on an out-of-range column).
  static GroupStatistics Compute(const Table& table,
                                 const std::vector<size_t>& group_columns,
                                 const ExecutorOptions& options = {});

  /// Builds statistics directly from explicit (key, count) pairs; used by
  /// unit tests and the Figure 5 worked example.
  static Result<GroupStatistics> FromCounts(
      std::vector<std::pair<GroupKey, uint64_t>> counts);

  size_t num_groups() const { return keys_.size(); }
  /// Number of grouping attributes |G| (arity of every key).
  size_t num_grouping_attributes() const {
    return keys_.empty() ? 0 : keys_[0].size();
  }
  uint64_t total_tuples() const { return total_; }

  const std::vector<GroupKey>& keys() const { return keys_; }
  const std::vector<uint64_t>& counts() const { return counts_; }

  /// Index of a finest group key, or error if not present.
  Result<size_t> IndexOf(const GroupKey& key) const;

 private:
  std::vector<GroupKey> keys_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// A relation interned once at its finest grouping G, shared by every
/// sample, fleet summary and snapshot of one publish. A row's stratum is
/// position[index->row_ids()[row]], its slot in the key-sorted `stats`.
struct GroupCensus {
  /// Shared: a published snapshot keeps it in its exact_rollups.
  std::shared_ptr<const GroupIndex> index;
  GroupStatistics stats;
  std::vector<size_t> position;

  /// Interns `table` over `group_columns` (morsel-parallel, under a
  /// `census` span) and reads the statistics off the index. Fails when
  /// the index does, and with InvalidArgument naming the column when a
  /// grouping cell is NaN.
  static Result<GroupCensus> Build(const Table& table,
                                   const std::vector<size_t>& group_columns,
                                   const ExecutorOptions& options = {});

  /// InvalidArgument unless the census has one row id per row of `table`.
  Status CheckTable(const Table& table) const;

  /// Calls visit(slot, row) for every row: each group's rows in ascending
  /// row order, disjoint groups in parallel, so a per-slot fold is
  /// bit-identical to a serial scan for every thread count.
  template <typename Visit>
  void ForEachRow(const ExecutorOptions& options, const Visit& visit) const {
    const GroupIndex::RowLists lists = index->GroupRows();
    const std::vector<std::pair<size_t, size_t>> chunks = BalancedGroupChunks(
        lists.offsets, std::max<uint64_t>(index->num_rows() / 64 + 1, 1024));
    ParallelFor(options.ResolvedThreads(), chunks.size(), [&](size_t c) {
      for (size_t g = chunks[c].first; g < chunks[c].second; ++g) {
        for (uint64_t r = lists.offsets[g]; r < lists.offsets[g + 1]; ++r) {
          visit(position[g], static_cast<size_t>(lists.rows[r]));
        }
      }
    });
  }

 private:
  /// Only Build makes one. With no default constructor, a braced column
  /// list like `{0}` cannot convert to a census in overload resolution.
  GroupCensus(std::shared_ptr<const GroupIndex> i, GroupStatistics s,
              std::vector<size_t> p)
      : index(std::move(i)), stats(std::move(s)), position(std::move(p)) {}
};

/// The result of an allocation strategy: an expected sample size for every
/// finest group (aligned with GroupStatistics::keys()), plus the paper's
/// scale-down factor f (Eq. 6; 1.0 for House and Senate).
struct Allocation {
  std::vector<double> expected_sizes;
  double scale_down_factor = 1.0;

  /// Sum of expected sizes (should be ~X up to floating point).
  double Total() const;
};

/// House (Section 4.3): s_g = X * n_g / N — a uniform random sample of
/// the relation, expressed per-stratum.
Allocation AllocateHouse(const GroupStatistics& stats, double sample_size);

/// Senate (Section 4.4): s_g = X / m for each of the m non-empty finest
/// groups, capped at the group size (a group cannot contribute more
/// tuples than it has; the freed space is re-divided among the rest, per
/// the paper's footnote 12).
Allocation AllocateSenate(const GroupStatistics& stats, double sample_size);

/// Basic Congress (Section 4.5): c_g = X * max(n_g/N, 1/m) / sum of the
/// same, i.e. the House/Senate maximum rescaled into X.
Allocation AllocateBasicCongress(const GroupStatistics& stats,
                                 double sample_size);

/// Every sub-grouping T of a grouping G with `arity` attributes, as
/// attribute positions, in mask order (bit i of the mask selects position
/// i): the empty grouping first, G last.
std::vector<std::vector<size_t>> AllSubGroupings(size_t arity);

/// Congress (Section 4.6, Eqs. 4–6): for every sub-grouping T of G,
/// compute the S1-optimal per-group allotment s_{g,T} = (X/m_T)(n_g/n_h),
/// take the per-group maximum over all T, and scale the result down by
/// f = X / sum(max) so the total is X. Runs in O(2^|G| * m) time.
Allocation AllocateCongress(const GroupStatistics& stats, double sample_size);

/// Dispatches on `strategy`.
Allocation Allocate(AllocationStrategy strategy, const GroupStatistics& stats,
                    double sample_size);

/// Congress restricted to an arbitrary family of sub-groupings (each a
/// set of attribute positions in [0, |G|)). AllocateCongress is the
/// special case of all 2^|G| subsets; Basic Congress is {∅, G}. Exposed
/// for the Section 4.7 workload-adaptation experiments.
Result<Allocation> AllocateCongressOverGroupings(
    const GroupStatistics& stats, double sample_size,
    const std::vector<std::vector<size_t>>& groupings);

/// The generalized weight-vector framework of Section 8 (Figure 19): each
/// weight vector assigns every finest group a non-negative weight; each is
/// normalized to distribute `sample_size` proportionally; the final
/// allocation takes the per-group maximum across vectors and rescales to
/// `sample_size`. House/Senate/Congress are all instances.
Result<Allocation> AllocateFromWeightVectors(
    const GroupStatistics& stats, double sample_size,
    const std::vector<std::vector<double>>& weight_vectors);

/// Builds the S1 weight vector for one sub-grouping T (attribute
/// positions): group h under T gets weight 1/m_T split across its
/// subgroups in proportion to size. The vector sums to 1.
std::vector<double> GroupingWeightVector(const GroupStatistics& stats,
                                         const std::vector<size_t>& grouping);

/// Section 4.7: per-grouping relative preferences r_h. `preferences` maps
/// each grouping (attribute positions) to its relative preference weight;
/// groups under a grouping share its preference. Groupings not listed get
/// preference 0.
Result<Allocation> AllocateWithPreferences(
    const GroupStatistics& stats, double sample_size,
    const std::vector<std::pair<std::vector<size_t>, double>>& preferences);

/// Rounds fractional expected sizes to integers that (a) sum to
/// min(round(total), N reachable) and (b) never exceed a group's
/// population, using largest-remainder apportionment with iterative
/// redistribution of capped surplus.
std::vector<uint64_t> RoundAllocation(const GroupStatistics& stats,
                                      const Allocation& allocation);

}  // namespace congress

#endif  // CONGRESS_SAMPLING_ALLOCATION_H_
