// csv_pipeline: the practical adoption path — your data lives in a CSV.
// Load it, register it with Aqua (building a congressional sample), ship
// the synopsis relations back out as CSVs (exactly what the paper's Aqua
// stores in the warehouse DBMS), and answer SQL approximately.

#include <cstdio>

#include "core/aqua.h"
#include "storage/csv.h"
#include "tpcd/census.h"

using namespace congress;

int main() {
  const std::string dir = "/tmp/congress_pipeline";
  (void)std::system(("mkdir -p " + dir).c_str());

  // 1. Pretend the warehouse exported a CSV of the census relation.
  tpcd::CensusConfig config;
  config.num_people = 100'000;
  config.num_states = 40;
  config.seed = 12;
  auto census = tpcd::GenerateCensus(config);
  if (!census.ok()) {
    std::printf("generation failed: %s\n", census.status().ToString().c_str());
    return 1;
  }
  const std::string base_csv = dir + "/census.csv";
  Status st = WriteCsvFile(*census, base_csv);
  if (!st.ok()) {
    std::printf("export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu rows to %s\n", census->num_rows(),
              base_csv.c_str());

  // 2. Load it back with an explicit schema (the only contract the file
  //    format needs) and register it with Aqua.
  Schema schema({Field{"ssn", DataType::kInt64},
                 Field{"st", DataType::kInt64},
                 Field{"gen", DataType::kInt64},
                 Field{"sal", DataType::kDouble}});
  auto loaded = ReadCsvFile(base_csv, schema);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu rows back\n", loaded->num_rows());

  AquaEngine engine;
  SynopsisConfig sconfig;
  sconfig.strategy = AllocationStrategy::kCongress;
  sconfig.sample_fraction = 0.02;
  sconfig.grouping_columns = {"st", "gen"};
  sconfig.seed = 9;
  st = engine.RegisterTable("census", std::move(loaded).value(), sconfig);
  if (!st.ok()) {
    std::printf("register failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 3. Export the synopsis relations the way Aqua would store them in
  //    the DBMS: the Integrated SampRel (with its sf column) and the
  //    Key-Normalized pair.
  auto synopsis = engine.GetSynopsis("census");
  if (!synopsis.ok()) return 1;
  Rewriter rewriter((*synopsis)->sample());
  st = WriteCsvFile(rewriter.integrated_rel(), dir + "/bs_census.csv");
  if (!st.ok()) {
    std::printf("synopsis export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  st = WriteCsvFile(rewriter.key_normalized_aux_rel(),
                    dir + "/aux_census.csv");
  if (!st.ok()) return 1;
  std::printf("exported synopsis: bs_census.csv (%zu rows, %zu cols) and "
              "aux_census.csv (%zu strata)\n",
              rewriter.integrated_rel().num_rows(),
              rewriter.integrated_rel().num_columns(),
              rewriter.key_normalized_aux_rel().num_rows());

  // 4. Answer SQL approximately — including the paper's analyst query.
  const char* sql =
      "SELECT st, AVG(sal) FROM census GROUP BY st HAVING AVG(sal) > 55000";
  std::printf("\naqua> %s\n", sql);
  auto approx = engine.Query(sql);
  auto exact = engine.QueryExact(sql);
  if (!approx.ok() || !exact.ok()) {
    std::printf("query failed\n");
    return 1;
  }
  std::printf("states above the threshold: approx %zu vs exact %zu\n",
              approx->num_groups(), exact->num_groups());
  size_t shown = 0;
  for (const ApproximateGroupRow& row : approx->rows()) {
    if (++shown > 8) break;
    const auto truth = exact->Find(row.key);
    std::printf("  st=%s: avg income ~= %.0f (+- %.0f)%s\n",
                row.key[0].ToString().c_str(), row.estimates[0],
                row.bounds[0],
                !truth.has_value() ? "  [borderline: not in exact answer]"
                                 : "");
  }
  return 0;
}
