// aqua_shell: an interactive approximate-query shell over the AquaEngine
// middleware — the full Figure 1 loop of the paper. Loads a skewed TPC-D
// lineitem table, registers it (which precomputes a congressional
// sample), then accepts SQL on stdin: each query is parsed, routed, the
// rewritten SQL is shown (as in Figure 2), and the approximate answer is
// compared with the exact one.
//
// Run with --demo (the bench loop does) for a scripted session, or with
// --serve for the network front-end: the engine goes behind a framed TCP
// endpoint (add --port P for a fixed port), a scripted loopback tour runs
// through a real retrying AquaClient, and the endpoint then stays up for
// remote shells until stdin closes. In a second terminal,
// --connect host:port skips the table load entirely and speaks the wire
// protocol to a running --serve instance.

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "core/aqua.h"
#include "net/client.h"
#include "net/front_end.h"
#include "serve/server.h"
#include "tpcd/lineitem.h"
#include "util/stopwatch.h"

using namespace congress;

namespace {

/// Strips a leading EXPLAIN PLAN (any case) and reports whether it was
/// present; the remainder is the SELECT to plan.
bool StripExplainPlan(std::string* sql_text) {
  static constexpr char kPrefix[] = "EXPLAIN PLAN ";
  static constexpr size_t kLen = sizeof(kPrefix) - 1;
  if (sql_text->size() <= kLen) return false;
  for (size_t i = 0; i < kLen; ++i) {
    if (std::toupper(static_cast<unsigned char>((*sql_text)[i])) !=
        kPrefix[i]) {
      return false;
    }
  }
  sql_text->erase(0, kLen);
  return true;
}

void RunQuery(std::string sql_text, const AquaEngine& engine) {
  if (StripExplainPlan(&sql_text)) {
    auto report = engine.ExplainPlan(sql_text);
    if (!report.ok()) {
      std::printf("  error: %s\n", report.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", report->c_str());
    return;
  }

  auto rewritten =
      engine.ExplainRewrite(sql_text, RewriteStrategy::kNestedIntegrated);
  if (!rewritten.ok()) {
    std::printf("  error: %s\n", rewritten.status().ToString().c_str());
    return;
  }
  std::printf("-- rewritten (Nested-Integrated):\n%s\n", rewritten->c_str());

  Stopwatch approx_sw;
  auto planned = engine.QueryPlanned(sql_text);
  double approx_ms = approx_sw.ElapsedMillis();
  if (!planned.ok()) {
    std::printf("  error: %s\n", planned.status().ToString().c_str());
    return;
  }
  if (planned->report.budget.active()) {
    std::printf("-- plan: %s (predicted rel err %.4g, realized %.4g, "
                "escalations %zu)\n",
                planner::PlanKindToString(planned->report.chosen.kind),
                planned->report.predicted_relative_error,
                planned->report.realized_relative_error,
                planned->report.escalations);
  }
  const ApproximateResult* approx = &planned->result;
  Stopwatch exact_sw;
  auto exact = engine.QueryExact(sql_text);
  double exact_ms = exact_sw.ElapsedMillis();
  if (!exact.ok()) {
    std::printf("  error: %s\n", exact.status().ToString().c_str());
    return;
  }

  std::printf("%-24s %14s %12s %14s\n", "group", "approx", "+-bound",
              "exact");
  size_t shown = 0;
  for (const ApproximateGroupRow& row : approx->rows()) {
    if (++shown > 12) {
      std::printf("... (%zu more groups)\n", approx->num_groups() - 12);
      break;
    }
    const auto truth = exact->Find(row.key);
    std::printf("%-24s %14.6g %12.4g %14.6g\n",
                GroupKeyToString(row.key).c_str(), row.estimates[0],
                row.bounds[0], truth.has_value() ? truth->estimates[0] : 0.0);
  }
  std::printf("approx: %.2f ms | exact: %.2f ms (%.0fx)\n\n", approx_ms,
              exact_ms, exact_ms / std::max(approx_ms, 1e-6));
}

/// Renders one network answer: epoch, timing, and up to 12 group rows.
void PrintNetResponse(const serve::Response& response) {
  if (!response.status.ok()) {
    std::printf("  error: %s\n", response.status.ToString().c_str());
    return;
  }
  std::printf("  epoch %llu | %zu groups | queue %.3f ms | exec %.3f ms\n",
              static_cast<unsigned long long>(response.epoch),
              response.result.num_groups(), response.queue_seconds * 1e3,
              response.exec_seconds * 1e3);
  size_t shown = 0;
  for (const ApproximateGroupRow& row : response.result.rows()) {
    if (++shown > 12) {
      std::printf("  ... (%zu more groups)\n",
                  response.result.num_groups() - 12);
      break;
    }
    std::printf("  %-24s %14.6g %12.4g\n", GroupKeyToString(row.key).c_str(),
                row.estimates[0], row.bounds[0]);
  }
}

// The --serve tour, now over the wire: waves of resilient queries travel
// loopback TCP through a real retrying AquaClient (frames, CRCs, timeouts
// and all), with a token-deduplicated network insert plus a Refresh
// between rounds. The epochs in the output show snapshot publication
// happening mid-flight without any reader blocking or seeing a torn view.
int RunServeTour(AquaEngine* engine, net::TcpFrontEnd* front_end,
                 const Table& base) {
  net::ClientOptions client_options;
  client_options.max_attempts = 4;
  net::AquaClient client("127.0.0.1", front_end->port(), client_options);

  serve::Request request;
  request.sql =
      "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem "
      "GROUP BY l_returnflag";
  request.mode = serve::QueryMode::kResilient;
  request.deadline = std::chrono::milliseconds(500);

  std::printf("tour: 3 rounds of 4 resilient queries over loopback TCP, "
              "with a tokened network insert + refresh between rounds...\n");
  for (int round = 0; round < 3; ++round) {
    for (int q = 0; q < 4; ++q) {
      auto response = client.Call(request);
      if (!response.ok()) {
        std::printf("  transport error: %s\n",
                    response.status().ToString().c_str());
        continue;
      }
      std::printf(
          "  epoch %llu | %zu groups | queue %.3f ms | exec %.3f ms\n",
          static_cast<unsigned long long>(response->epoch),
          response->result.num_groups(), response->queue_seconds * 1e3,
          response->exec_seconds * 1e3);
    }
    if (round == 2) break;
    std::vector<Value> row;
    for (size_t c = 0; c < base.num_columns(); ++c) {
      row.push_back(base.GetValue(round, c));
    }
    // The token makes the retry loop safe: a duplicate delivery is
    // answered from the front-end's cache, never executed twice.
    auto inserted = client.Insert("lineitem", {row},
                                  "tour-round-" + std::to_string(round));
    if (!inserted.ok() || !inserted->status.ok()) {
      std::printf("insert failed: %s\n",
                  (inserted.ok() ? inserted->status : inserted.status())
                      .ToString()
                      .c_str());
      return 1;
    }
    Status st = engine->Refresh("lineitem");
    if (!st.ok()) {
      std::printf("maintenance failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("-- refreshed: published epoch %llu\n",
                static_cast<unsigned long long>(engine->epoch()));
  }
  const net::ClientStats cstats = client.stats();
  std::printf("tour client: %llu attempts, %llu retries\n",
              static_cast<unsigned long long>(cstats.attempts),
              static_cast<unsigned long long>(cstats.retries));
  return 0;
}

// The --connect REPL: no engine, no table load — just an AquaClient
// speaking the framed protocol to a remote --serve instance.
int RunConnect(const std::string& host, uint16_t port) {
  net::ClientOptions options;
  options.max_attempts = 4;
  net::AquaClient client(host, port, options);

  std::printf("connected shell -> %s:%u. Enter SQL; empty line quits.\n",
              host.c_str(), port);
  std::string line;
  while (true) {
    std::printf("aqua[%s:%u]> ", host.c_str(), port);
    std::fflush(stdout);
    if (!std::getline(std::cin, line) || line.empty()) break;
    serve::Request request;
    request.sql = line;
    request.mode = serve::QueryMode::kResilient;
    request.deadline = std::chrono::milliseconds(2000);
    auto response = client.Call(request);
    if (!response.ok()) {
      std::printf("  transport error: %s\n",
                  response.status().ToString().c_str());
      continue;
    }
    PrintNetResponse(*response);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  bool serve = false;
  uint16_t port = 0;  // --serve default: ephemeral, printed on startup.
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) demo = true;
    if (std::strcmp(argv[i], "--serve") == 0) serve = true;
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    }
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    }
  }

  if (!connect.empty()) {
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos || colon + 1 == connect.size()) {
      std::printf("--connect wants host:port, got '%s'\n", connect.c_str());
      return 1;
    }
    return RunConnect(connect.substr(0, colon),
                      static_cast<uint16_t>(
                          std::atoi(connect.c_str() + colon + 1)));
  }

  std::printf("loading lineitem (1M tuples, 1000 skewed groups)...\n");
  tpcd::LineitemConfig config;
  config.num_tuples = 1'000'000;
  config.num_groups = 1000;
  config.group_skew_z = 1.2;
  config.seed = 42;
  auto data = tpcd::GenerateLineitem(config);
  if (!data.ok()) {
    std::printf("generation failed: %s\n", data.status().ToString().c_str());
    return 1;
  }

  std::printf("registering with Aqua (builds a 5%% congressional "
              "sample)...\n");
  AquaEngine engine;
  SynopsisConfig sconfig;
  sconfig.strategy = AllocationStrategy::kCongress;
  sconfig.sample_fraction = 0.05;
  sconfig.grouping_columns = tpcd::LineitemGroupingColumnNames();
  sconfig.seed = 7;
  // The serve tour inserts between query waves, which needs the
  // incremental maintainer; it also recycles a few rows as the inserts.
  sconfig.incremental = serve;
  Table spare_rows(data->table.schema());
  if (serve) {
    std::vector<Value> row;
    for (size_t r = 0; r < 8; ++r) {
      row.clear();
      for (size_t c = 0; c < data->table.num_columns(); ++c) {
        row.push_back(data->table.GetValue(r, c));
      }
      (void)spare_rows.AppendRow(row);
    }
  }
  Status st =
      engine.RegisterTable("lineitem", std::move(data->table), sconfig);
  if (!st.ok()) {
    std::printf("register failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto synopsis = engine.GetSynopsis("lineitem");
  if (synopsis.ok()) {
    std::printf("ready: %zu sampled tuples across %zu strata.\n\n",
                (*synopsis)->sample().num_rows(),
                (*synopsis)->sample().strata().size());
  }

  if (serve) {
    serve::ServeOptions options;
    options.num_threads = 4;
    options.default_deadline = std::chrono::milliseconds(500);
    serve::AquaServer server(&engine, options);
    st = server.Start();
    if (!st.ok()) {
      std::printf("serve start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    net::FrontEndOptions fe_options;
    fe_options.port = port;
    net::TcpFrontEnd front_end(&server, fe_options);
    st = front_end.Start();
    if (!st.ok()) {
      std::printf("front end start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("serving on 127.0.0.1:%u — connect with: aqua_shell "
                "--connect 127.0.0.1:%u\n",
                front_end.port(), front_end.port());

    const int tour = RunServeTour(&engine, &front_end, spare_rows);

    // Stay up for remote shells until stdin closes (piped runs exit
    // immediately; a terminal serves until EOF or "quit").
    std::printf("serving until stdin closes (or 'quit')...\n");
    std::string line;
    while (std::getline(std::cin, line) && line != "quit") {
    }

    front_end.Stop();
    server.Stop();
    const net::FrontEndStats fstats = front_end.stats();
    const serve::ServerStats stats = server.stats();
    std::printf(
        "served %llu requests over %llu accepted connections "
        "(%llu rejected, %llu past deadline, %llu frames in/%llu out)\n",
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(fstats.accepts),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.deadline_expired),
        static_cast<unsigned long long>(fstats.frames_in),
        static_cast<unsigned long long>(fstats.frames_out));
    return tour;
  }

  if (demo) {
    const char* scripted[] = {
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) FROM lineitem "
        "GROUP BY l_returnflag, l_linestatus",
        "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_id BETWEEN "
        "100000 AND 170000",
        "SELECT l_returnflag, AVG(l_quantity), COUNT(*) FROM lineitem "
        "GROUP BY l_returnflag",
        "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem "
        "GROUP BY l_returnflag WITHIN 2% CONFIDENCE 95",
        "EXPLAIN PLAN SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
        "GROUP BY l_returnflag WITHIN 2% CONFIDENCE 95",
    };
    for (const char* sql_text : scripted) {
      std::printf("aqua> %s\n", sql_text);
      RunQuery(sql_text, engine);
    }
    return 0;
  }

  std::printf("enter SQL (SELECT ... FROM lineitem [WHERE ...] [GROUP BY "
              "...]); empty line quits.\n");
  std::string line;
  while (true) {
    std::printf("aqua> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line) || line.empty()) break;
    RunQuery(line, engine);
  }
  return 0;
}
