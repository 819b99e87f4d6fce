// bench_runner — executes the declared suite of bench binaries in --json
// mode and merges their reports into one BENCH_SUITE.json.
//
//   bench_runner [--json [FILE]] [--bench-dir DIR] [--only a,b,c]
//                [--history [FILE]]
//
// --history additionally appends the run to the cross-run performance
// ledger (default bench/history/BENCH_HISTORY.jsonl): one JSONL line with
// the run's provenance and effective thread count plus every report record
// named "<bench>.<record>" with its unit and class.  tools/bench_trend
// reads that ledger for median-based drift detection; the provenance and
// thread stamps keep it from ever comparing series run under different
// configurations.
//
// Each bench runs as `bench_<name> --json BENCH_<name>.json
// --benchmark_filter=NONE` (tables only, no google-benchmark timings — the
// per-phase numbers come from the construction profiler embedded in every
// report).  Benches are independent child processes, so they execute
// concurrently as par::TaskPool tasks (one bench per task, HYPERPATH_THREADS
// at a time); every bench writes into its own pre-assigned result slot and
// the suite is merged from those slots in declared order, so the output
// document is byte-identical to a serial run.  Per-bench reports land next
// to the suite file; the merged document is
//
//   {"suite": "hyperpath", "meta": {...run metadata...},
//    "reports": {"theorem1": {...}, ...}}
//
// Exit status is nonzero if any bench fails to run or emits an unparsable
// report; the suite is still written with whatever succeeded.  A suite
// path that cannot be opened is a usage error (exit 2) before any bench
// runs.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/run_metadata.hpp"
#include "obs/trend.hpp"
#include "par/task_pool.hpp"

namespace fs = std::filesystem;

namespace {

// The full bench suite, in experiment order.  Keep in sync with
// bench/CMakeLists.txt (bench_<name> targets).
const std::vector<std::string> kSuite = {
    "illustration", "theorem1",   "theorem2",     "lower_bound",
    "grids",        "relaxation", "hamdecomp",    "ccc_multicopy",
    "transform",    "trees",      "bitserial",    "largecopy",
    "faults",       "recovery",   "mc",           "parallel_sim",
    "simcore",      "ablation",   "par",          "oracle",
};

/// Outcome slot of one bench, filled by its pool task and consumed in
/// declared suite order.
struct BenchResult {
  bool ok = false;
  std::string text;   // raw report JSON when ok
  std::string error;  // diagnostic when !ok
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--json [FILE]] [--bench-dir DIR] [--only a,b,c]\n"
      "          [--history [FILE]]\n"
      "  --json [FILE]   suite output path (default BENCH_SUITE.json)\n"
      "  --bench-dir DIR directory holding bench_<name> binaries\n"
      "                  (default: <runner dir>/../bench)\n"
      "  --only a,b,c    run a subset of the suite\n"
      "  --history [FILE]\n"
      "                  append this run to the performance ledger\n"
      "                  (default bench/history/BENCH_HISTORY.jsonl)\n",
      argv0);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path out_path = "BENCH_SUITE.json";
  fs::path bench_dir;
  std::vector<std::string> names;
  {
    // Dedup the declared suite while preserving order.
    for (const std::string& n : kSuite) {
      bool seen = false;
      for (const std::string& m : names) seen = seen || (m == n);
      if (!seen) names.push_back(n);
    }
  }

  bool history = false;
  fs::path history_path = "bench/history/BENCH_HISTORY.jsonl";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--bench-dir" && i + 1 < argc) {
      bench_dir = argv[++i];
    } else if (arg == "--only" && i + 1 < argc) {
      names = split_csv(argv[++i]);
    } else if (arg == "--history") {
      history = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') history_path = argv[++i];
    } else {
      std::fprintf(stderr, "bench_runner: unknown argument %s\n",
                   arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (bench_dir.empty()) {
    std::error_code ec;
    fs::path self = fs::canonical(argv[0], ec);
    if (ec) self = argv[0];
    bench_dir = self.parent_path().parent_path() / "bench";
  }

  const fs::path report_dir =
      out_path.has_parent_path() ? out_path.parent_path() : fs::path(".");

  // Opened before any bench runs: a path that cannot be written would
  // otherwise fail every bench's report and only then be skipped.
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_runner: cannot open %s\n",
                 out_path.string().c_str());
    return 2;
  }

  // Run every bench as one pool task (the bench itself is a child process,
  // so tasks block in std::system and the pool size caps how many benches
  // run at once).  Each task only touches its own slot; diagnostics are
  // buffered there too and printed in declared order below, so output and
  // suite bytes never depend on completion order.
  std::vector<BenchResult> slots(names.size());
  hyperpath::par::parallel_for_chunks(
      0, names.size(), /*grain=*/1,
      [&](std::size_t, std::size_t lo, std::size_t hi, int) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::string& name = names[i];
          BenchResult& slot = slots[i];
          const fs::path bin = bench_dir / ("bench_" + name);
          const fs::path report = report_dir / ("BENCH_" + name + ".json");
          if (!fs::exists(bin)) {
            slot.error = "missing binary " + bin.string();
            continue;
          }
          const std::string cmd = "\"" + bin.string() + "\" --json \"" +
                                  report.string() +
                                  "\" --benchmark_filter=NONE > /dev/null 2>&1";
          std::printf("bench_runner: running bench_%s ...\n", name.c_str());
          std::fflush(stdout);
          const int rc = std::system(cmd.c_str());
          if (rc != 0) {
            slot.error =
                "bench_" + name + " exited with status " + std::to_string(rc);
            continue;
          }
          std::ifstream in(report);
          std::stringstream buf;
          buf << in.rdbuf();
          std::string text = buf.str();
          hyperpath::obs::JsonParseError err;
          const auto parsed = hyperpath::obs::json_parse(text, &err);
          if (!parsed || !parsed->find("experiment")) {
            slot.error = "bench_" + name +
                         " produced an invalid report (offset " +
                         std::to_string(err.offset) + ": " + err.message + ")";
            continue;
          }
          slot.ok = true;
          slot.text = std::move(text);
        }
      });

  int failures = 0;
  std::vector<std::pair<std::string, std::string>> reports;  // name -> raw
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!slots[i].ok) {
      std::fprintf(stderr, "bench_runner: %s\n", slots[i].error.c_str());
      ++failures;
      continue;
    }
    reports.emplace_back(names[i], std::move(slots[i].text));
  }

  hyperpath::obs::JsonWriter w;
  w.begin_object();
  w.field("suite", "hyperpath");
  w.key("meta");
  hyperpath::obs::RunMetadata::collect().write_json(w);
  w.key("reports");
  w.begin_object();
  for (const auto& [name, text] : reports) {
    w.key(name);
    w.raw_value(text);
  }
  w.end_object();
  w.end_object();

  out << w.str() << "\n";
  out.close();
  std::printf("bench_runner: wrote %s (%zu/%zu reports)\n",
              out_path.string().c_str(), reports.size(), names.size());

  // Ledger append: flatten the suite document just written into one
  // "<bench>.<record>" line; its provenance and thread count let
  // bench_trend group comparable runs and refuse the rest.
  if (history && failures == 0) {
    const auto suite = hyperpath::obs::json_parse(w.str());
    if (!suite) {
      std::fprintf(stderr, "bench_runner: suite document failed to re-parse; "
                           "ledger entry not written\n");
      return 1;
    }
    hyperpath::obs::LedgerEntry entry =
        hyperpath::obs::flatten_suite(*suite);
    if (history_path.has_parent_path()) {
      std::error_code ec;
      fs::create_directories(history_path.parent_path(), ec);
    }
    hyperpath::obs::JsonWriter lw;
    hyperpath::obs::write_ledger_entry(lw, entry);
    std::ofstream ledger(history_path, std::ios::app);
    if (!ledger) {
      std::fprintf(stderr, "bench_runner: cannot open ledger %s\n",
                   history_path.string().c_str());
      return 1;
    }
    ledger << lw.str() << "\n";
    ledger.close();
    std::printf("bench_runner: ledger +1 run (%zu records) -> %s\n",
                entry.records.size(), history_path.string().c_str());
  } else if (history) {
    std::fprintf(stderr,
                 "bench_runner: %d bench failure(s); ledger entry skipped\n",
                 failures);
  }
  return failures == 0 ? 0 : 1;
}
