#include "sampling/congress_variants.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "sampling/builder.h"

namespace congress {

namespace {

Status Validate(const Table& table,
                const std::vector<size_t>& grouping_columns,
                double sample_size) {
  if (grouping_columns.empty()) {
    return Status::InvalidArgument("at least one grouping column required");
  }
  if (sample_size <= 0.0) {
    return Status::InvalidArgument("sample size must be positive");
  }
  if (table.num_rows() == 0) {
    return Status::FailedPrecondition("table is empty");
  }
  return Status::OK();
}

StratifiedSample MakeEmptySample(const Table& table,
                                 const GroupCensus& census) {
  const GroupStatistics& stats = census.stats;
  StratifiedSample sample(table.schema(), census.index->columns());
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    Status st = sample.DeclareStratum(stats.keys()[i], stats.counts()[i]);
    (void)st;
  }
  return sample;
}

/// Per-tuple selection with per-finest-group probability `prob[g]`. The
/// Bernoulli loop is serial and in row order over precomputed ids, so the
/// RNG stream matches the serial path exactly.
Result<StratifiedSample> BuildPerTuple(const Table& table,
                                       const GroupCensus& census,
                                       const std::vector<double>& prob,
                                       Random* rng) {
  StratifiedSample sample = MakeEmptySample(table, census);
  const std::vector<uint32_t>& row_ids = census.index->row_ids();
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (rng->Bernoulli(prob[census.position[row_ids[row]]])) {
      CONGRESS_RETURN_NOT_OK(sample.Append(table, row));
    }
  }
  return sample;
}

/// The Eq. 8 per-group raw shares: max over T of 1 / (m_T * n_{gT}).
std::vector<double> Eq8RawShares(const GroupStatistics& stats) {
  std::vector<double> best(stats.num_groups(), 0.0);
  for (const auto& grouping :
       AllSubGroupings(stats.num_grouping_attributes())) {
    // Super-group sizes under this T.
    std::unordered_map<GroupKey, uint64_t, GroupKeyHash> super_counts;
    std::vector<GroupKey> projected(stats.num_groups());
    for (size_t i = 0; i < stats.num_groups(); ++i) {
      GroupKey proj;
      for (size_t pos : grouping) proj.push_back(stats.keys()[i][pos]);
      super_counts[proj] += stats.counts()[i];
      projected[i] = std::move(proj);
    }
    double m_t = static_cast<double>(super_counts.size());
    for (size_t i = 0; i < stats.num_groups(); ++i) {
      double n_h = static_cast<double>(super_counts[projected[i]]);
      best[i] = std::max(best[i], 1.0 / (m_t * n_h));
    }
  }
  return best;
}

Result<StratifiedSample> BuildGroupFill(const Table& table,
                                        const GroupCensus& census,
                                        double sample_size, Random* rng) {
  const GroupStatistics& stats = census.stats;
  // Row ids per finest group, for uniform draws from a super-group.
  std::vector<std::vector<uint64_t>> group_rows(stats.num_groups());
  const std::vector<uint32_t>& row_ids = census.index->row_ids();
  for (size_t row = 0; row < table.num_rows(); ++row) {
    group_rows[census.position[row_ids[row]]].push_back(row);
  }

  Allocation congress = AllocateCongress(stats, sample_size);
  const double f = congress.scale_down_factor;

  std::unordered_set<uint64_t> selected;
  // Subsets of G by increasing arity (mask order within one arity), as in
  // the pseudocode.
  std::vector<std::vector<size_t>> groupings =
      AllSubGroupings(stats.num_grouping_attributes());
  std::stable_sort(groupings.begin(), groupings.end(),
                   [](const std::vector<size_t>& a,
                      const std::vector<size_t>& b) {
                     return a.size() < b.size();
                   });
  for (const std::vector<size_t>& grouping : groupings) {
    // Partition finest groups into super-groups under T.
    std::unordered_map<GroupKey, std::vector<size_t>, GroupKeyHash> supers;
    for (size_t i = 0; i < stats.num_groups(); ++i) {
      GroupKey proj;
      for (size_t pos : grouping) proj.push_back(stats.keys()[i][pos]);
      supers[proj].push_back(i);
    }
    const double target = f * sample_size / static_cast<double>(supers.size());
    for (auto& [proj, members] : supers) {
      // s_g: tuples already selected for this super-group by coarser
      // groupings; candidates: its unselected tuples.
      std::vector<uint64_t> candidates;
      size_t already = 0;
      uint64_t population = 0;
      for (size_t g : members) {
        population += stats.counts()[g];
        for (uint64_t row : group_rows[g]) {
          if (selected.count(row) > 0) {
            ++already;
          } else {
            candidates.push_back(row);
          }
        }
      }
      uint64_t want = static_cast<uint64_t>(std::llround(target));
      want = std::min<uint64_t>(want, population);
      if (already >= want) continue;
      uint64_t need = want - already;
      need = std::min<uint64_t>(need, candidates.size());
      for (uint64_t pick :
           rng->SampleWithoutReplacement(candidates.size(), need)) {
        selected.insert(candidates[static_cast<size_t>(pick)]);
      }
    }
  }

  StratifiedSample sample = MakeEmptySample(table, census);
  // Append in row order so each stratum's tuples stay contiguous-ish.
  std::vector<uint64_t> rows(selected.begin(), selected.end());
  std::sort(rows.begin(), rows.end());
  for (uint64_t row : rows) {
    CONGRESS_RETURN_NOT_OK(sample.Append(table, static_cast<size_t>(row)));
  }
  return sample;
}

}  // namespace

const char* CongressVariantToString(CongressVariant variant) {
  switch (variant) {
    case CongressVariant::kExactSize:
      return "ExactSize";
    case CongressVariant::kBernoulli:
      return "Bernoulli";
    case CongressVariant::kEq8:
      return "Eq8";
    case CongressVariant::kGroupFill:
      return "GroupFill";
  }
  return "Unknown";
}

Result<StratifiedSample> BuildCongressVariant(
    const Table& table, const std::vector<size_t>& grouping_columns,
    double sample_size, CongressVariant variant, Random* rng,
    const ExecutorOptions& options) {
  CONGRESS_RETURN_NOT_OK(Validate(table, grouping_columns, sample_size));
  auto census = GroupCensus::Build(table, grouping_columns, options);
  if (!census.ok()) return census.status();
  const GroupStatistics& stats = census->stats;

  switch (variant) {
    case CongressVariant::kExactSize: {
      Allocation allocation = AllocateCongress(stats, sample_size);
      return BuildStratifiedSample(table, *census, allocation, rng, options);
    }
    case CongressVariant::kBernoulli: {
      Allocation allocation = AllocateCongress(stats, sample_size);
      std::vector<double> prob(stats.num_groups());
      for (size_t i = 0; i < stats.num_groups(); ++i) {
        prob[i] = std::min(1.0, allocation.expected_sizes[i] /
                                    static_cast<double>(stats.counts()[i]));
      }
      return BuildPerTuple(table, *census, prob, rng);
    }
    case CongressVariant::kEq8: {
      // Eq. 8: normalize the raw shares so the expected total is X.
      std::vector<double> raw = Eq8RawShares(stats);
      double denom = 0.0;
      for (size_t i = 0; i < stats.num_groups(); ++i) {
        denom += raw[i] * static_cast<double>(stats.counts()[i]);
      }
      std::vector<double> prob(stats.num_groups());
      for (size_t i = 0; i < stats.num_groups(); ++i) {
        prob[i] = std::min(1.0, sample_size * raw[i] / denom);
      }
      return BuildPerTuple(table, *census, prob, rng);
    }
    case CongressVariant::kGroupFill:
      return BuildGroupFill(table, *census, sample_size, rng);
  }
  return Status::InvalidArgument("unknown congress variant");
}

}  // namespace congress
