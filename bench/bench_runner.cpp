// Suite driver: run every bench with --json and regenerate the measured
// tables in EXPERIMENTS.md from the snapshots.
//
// The contract that keeps the docs honest:
//   * every bench writes bench/data/BENCH_<name>.json with its tables as
//     pre-formatted cell strings (see common/bench_io.h), so regeneration
//     from the same snapshots is byte-identical;
//   * EXPERIMENTS.md brackets each measured table with
//       <!-- AUTOGEN:BEGIN <bench>:<table_id> -->
//       ...
//       <!-- AUTOGEN:END <bench>:<table_id> -->
//     and bench_runner owns everything between the markers;
//   * `bench_runner --check-docs` re-renders the blocks from the committed
//     snapshots and fails if the file on disk differs — the CI gate against
//     stale docs — or if a snapshot holds a gauge as a plain number, which
//     no current bench writes (each gauge is {value, high, low}).
//
// Modes:
//   bench_runner                 run all benches (full size), write
//                                snapshots to --data, regenerate --docs
//   bench_runner --quick         run reduced-size benches into
//                                <data>/quick/, leave the docs alone
//   bench_runner --regen-only    no bench runs; regenerate docs from the
//                                existing snapshots
//   bench_runner --check-docs    no bench runs; verify docs match the
//                                snapshots and every gauge has its range
//                                (exit 1 when stale)
//   bench_runner --check-perf    run bench_tab3_runtime --quick into
//                                <data>/quick/ and compare every stage's
//                                real time against the committed
//                                BENCH_tab3_runtime.json; exit 1 when a
//                                stage is slower than the committed value
//                                times --perf-tolerance (default 1.5 —
//                                wide enough for quick-mode noise, tight
//                                enough to catch a lost kernel or an
//                                accidental O(n^2))
//   bench_runner --only <name>   restrict the run to one bench
//
// Run from the repository root: the defaults are --bin-dir <dir of this
// binary>, --data bench/data, --docs EXPERIMENTS.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/table.h"

namespace fs = std::filesystem;
using vkey::json::Value;

namespace {

struct BenchSpec {
  const char* name;  // suite name; binary is bench_<name>
  bool autogen;      // false: snapshot only, never spliced into the docs
};

// tab3_runtime measures host wall time with google-benchmark; its numbers
// are machine-dependent, so it is excluded from doc regeneration.
const BenchSpec kBenches[] = {
    {"fig2_preliminary", true},
    {"fig3_prssi_vs_rrssi", true},
    {"fig4_rrssi_trace", true},
    {"fig9_arrssi_window", true},
    {"fig10_prediction", true},
    {"fig11_reconciliation", true},
    {"tab1_devices_speeds", true},
    {"fig12_13_sota", true},
    {"fig14_transfer", true},
    {"fig15_security", true},
    {"fig16_eve_trace", true},
    {"tab2_nist", true},
    {"ablation", true},
    {"robustness", true},
    {"gateway", true},
    {"soak", true},
    {"tab3_runtime", false},
};

struct Options {
  std::string bin_dir;
  std::string data_dir = "bench/data";
  std::string docs = "EXPERIMENTS.md";
  std::string only;
  bool quick = false;
  bool regen_only = false;
  bool check_docs = false;
  bool check_perf = false;
  double perf_tolerance = 1.5;
  std::string threads;  // forwarded to every bench; empty = bench default
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [--quick] [--regen-only] [--check-docs] [--check-perf]\n"
      "          [--perf-tolerance <f>] [--only <name>] [--threads <n>]\n"
      "          [--bin-dir <dir>] [--data <dir>] [--docs <path>]\n",
      argv0);
  std::exit(code);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.bin_dir = fs::path(argv[0]).parent_path().string();
  if (opt.bin_dir.empty()) opt.bin_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--regen-only") {
      opt.regen_only = true;
    } else if (a == "--check-docs") {
      opt.check_docs = true;
    } else if (a == "--check-perf") {
      opt.check_perf = true;
    } else if (a == "--perf-tolerance") {
      const std::string v = value("--perf-tolerance");
      char* end = nullptr;
      opt.perf_tolerance = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || opt.perf_tolerance < 1.0) {
        std::fprintf(stderr, "%s: --perf-tolerance needs a factor >= 1.0\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (a == "--only") {
      opt.only = value("--only");
    } else if (a == "--threads") {
      opt.threads = value("--threads");
      if (opt.threads.empty() ||
          opt.threads.find_first_not_of("0123456789") != std::string::npos ||
          opt.threads == "0") {
        std::fprintf(stderr, "%s: --threads needs a positive integer\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (a == "--bin-dir") {
      opt.bin_dir = value("--bin-dir");
    } else if (a == "--data") {
      opt.data_dir = value("--data");
    } else if (a == "--docs") {
      opt.docs = value("--docs");
    } else if (a == "--help" || a == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], a.c_str());
      usage(argv[0], 2);
    }
  }
  return opt;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  VKEY_REQUIRE(static_cast<bool>(in), "cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Render the replacement block for one AUTOGEN marker pair: the caption as
/// an italic line, a blank line, then the pipe table.
std::string render_block(const Value& snapshot, const std::string& table_id) {
  for (const auto& t : snapshot.at("tables").as_array()) {
    if (t.at("id").as_string() != table_id) continue;
    std::string out = "_" + t.at("caption").as_string() + "_\n\n";
    out += vkey::Table::markdown_from_json(t);
    return out;
  }
  throw vkey::Error("table id '" + table_id + "' not found in snapshot for " +
                    snapshot.at("bench").as_string());
}

/// Splice every AUTOGEN block in `docs_text` from the snapshots in
/// `data_dir`. Unknown or unreadable snapshots abort with a clear message.
std::string regenerate(const std::string& docs_text, const fs::path& data_dir) {
  static const std::string kBegin = "<!-- AUTOGEN:BEGIN ";
  static const std::string kEnd = "<!-- AUTOGEN:END ";
  std::string out;
  std::istringstream in(docs_text);
  std::string line;
  bool skipping = false;
  std::string open_key;
  while (std::getline(in, line)) {
    if (skipping) {
      if (line.rfind(kEnd, 0) == 0) {
        VKEY_REQUIRE(line == kEnd + open_key + " -->",
                     "AUTOGEN END marker mismatch: expected '" + open_key +
                         "', got line '" + line + "'");
        out += line + "\n";
        skipping = false;
      }
      continue;
    }
    out += line + "\n";
    if (line.rfind(kBegin, 0) == 0) {
      const std::size_t tail = line.find(" -->");
      VKEY_REQUIRE(tail != std::string::npos, "malformed AUTOGEN marker");
      open_key = line.substr(kBegin.size(), tail - kBegin.size());
      const std::size_t colon = open_key.find(':');
      VKEY_REQUIRE(colon != std::string::npos,
                   "AUTOGEN marker must be <bench>:<table_id>, got '" +
                       open_key + "'");
      const std::string bench = open_key.substr(0, colon);
      const std::string table_id = open_key.substr(colon + 1);
      const fs::path snap = data_dir / ("BENCH_" + bench + ".json");
      VKEY_REQUIRE(fs::exists(snap),
                   "missing snapshot " + snap.string() +
                       " (run bench_runner, or bench_" + bench +
                       " --json " + snap.string() + ")");
      const Value doc = Value::parse(read_file(snap));
      out += render_block(doc, table_id);
      skipping = true;
    }
  }
  VKEY_REQUIRE(!skipping, "unterminated AUTOGEN block '" + open_key + "'");
  return out;
}

/// --check-docs' second half: every snapshot's gauges carry their range,
/// {value, high, low}. A plain number marks a snapshot written before
/// gauges kept their range; each is printed, and the count returned.
int count_plain_gauges(const fs::path& data_dir) {
  int plain = 0;
  for (const auto& spec : kBenches) {
    const fs::path snap =
        data_dir / ("BENCH_" + std::string(spec.name) + ".json");
    if (!fs::exists(snap)) continue;
    const Value doc = Value::parse(read_file(snap));
    const Value* metrics = doc.find("metrics");
    const Value* gauges =
        metrics != nullptr ? metrics->find("gauges") : nullptr;
    if (gauges == nullptr) continue;
    for (const auto& [name, gauge] : gauges->as_object()) {
      if (gauge.is_object() && gauge.find("value") != nullptr &&
          gauge.find("high") != nullptr && gauge.find("low") != nullptr) {
        continue;
      }
      std::fprintf(stderr,
                   "%s: gauge %s is a plain number, not {value, high, low}; "
                   "regenerate with: bench_%s --json %s\n",
                   snap.string().c_str(), name.c_str(), spec.name,
                   snap.string().c_str());
      ++plain;
    }
  }
  return plain;
}

/// Stage -> real-time-ns map from a tab3_runtime snapshot (column 1 of the
/// captured google-benchmark table; cells are pre-formatted numbers).
std::vector<std::pair<std::string, double>> stage_times(const Value& snap) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& t : snap.at("tables").as_array()) {
    if (t.at("id").as_string() != "tab3_runtime") continue;
    for (const auto& row : t.at("rows").as_array()) {
      const auto& cells = row.as_array();
      VKEY_REQUIRE(cells.size() >= 2, "malformed tab3_runtime row");
      const std::string& name = cells[0].as_string();
      const std::string& val = cells[1].as_string();
      char* end = nullptr;
      const double ns = std::strtod(val.c_str(), &end);
      VKEY_REQUIRE(end != val.c_str(), "unparsable stage time '" + val + "'");
      out.emplace_back(name, ns);
    }
  }
  VKEY_REQUIRE(!out.empty(), "no tab3_runtime table in snapshot");
  return out;
}

/// --check-perf: fresh quick timings vs the committed tab3 snapshot.
/// Stages only present on one side are reported but do not fail the check
/// (a freshly added benchmark has no committed baseline yet; committing the
/// regenerated snapshot is the fix for a stale stage list).
int check_perf(const Options& opt) {
  const fs::path committed =
      fs::path(opt.data_dir) / "BENCH_tab3_runtime.json";
  VKEY_REQUIRE(fs::exists(committed),
               "missing committed baseline " + committed.string());
  const fs::path quick_dir = fs::path(opt.data_dir) / "quick";
  fs::create_directories(quick_dir);
  const fs::path fresh_snap = quick_dir / "BENCH_tab3_runtime.json";
  const fs::path bin = fs::path(opt.bin_dir) / "bench_tab3_runtime";
  std::string cmd =
      bin.string() + " --json " + fresh_snap.string() + " --quick";
  if (!opt.threads.empty()) cmd += " --threads " + opt.threads;
  std::printf("== bench_tab3_runtime (fresh --quick run) ==\n");
  std::fflush(stdout);
  const int rc = std::system(cmd.c_str());
  VKEY_REQUIRE(rc == 0, "bench_tab3_runtime failed");

  const auto base = stage_times(Value::parse(read_file(committed)));
  const auto fresh = stage_times(Value::parse(read_file(fresh_snap)));
  vkey::Table t({"stage", "committed (ns)", "fresh (ns)", "ratio", "verdict"});
  int regressions = 0;
  for (const auto& [name, base_ns] : base) {
    const auto it =
        std::find_if(fresh.begin(), fresh.end(),
                     [&](const auto& p) { return p.first == name; });
    if (it == fresh.end()) {
      t.add_row({name, vkey::Table::fmt(base_ns, 1), "missing", "-", "SKIP"});
      continue;
    }
    const double ratio = base_ns > 0.0 ? it->second / base_ns : 0.0;
    const bool ok = it->second <= base_ns * opt.perf_tolerance;
    if (!ok) ++regressions;
    t.add_row({name, vkey::Table::fmt(base_ns, 1),
               vkey::Table::fmt(it->second, 1), vkey::Table::fmt(ratio, 2),
               ok ? "ok" : "REGRESSION"});
  }
  for (const auto& [name, ns] : fresh) {
    if (std::find_if(base.begin(), base.end(), [&](const auto& p) {
          return p.first == name;
        }) == base.end()) {
      t.add_row({name, "(no baseline)", vkey::Table::fmt(ns, 1), "-", "NEW"});
    }
  }
  t.print("perf check vs " + committed.string() + " (tolerance " +
          vkey::Table::fmt(opt.perf_tolerance, 2) + "x)");
  if (regressions > 0) {
    std::fprintf(stderr,
                 "%d stage(s) regressed beyond %.2fx of the committed "
                 "baseline\n",
                 regressions, opt.perf_tolerance);
    return 1;
  }
  std::printf("all stages within %.2fx of the committed baseline\n",
              opt.perf_tolerance);
  return 0;
}

int run_benches(const Options& opt, const fs::path& data_dir) {
  int failures = 0;
  for (const auto& spec : kBenches) {
    if (!opt.only.empty() && opt.only != spec.name) continue;
    const fs::path bin = fs::path(opt.bin_dir) / ("bench_" + std::string(spec.name));
    const fs::path snap = data_dir / ("BENCH_" + std::string(spec.name) + ".json");
    std::string cmd = bin.string() + " --json " + snap.string();
    if (opt.quick) cmd += " --quick";
    if (!opt.threads.empty()) cmd += " --threads " + opt.threads;
    std::printf("== bench_%s ==\n", spec.name);
    std::fflush(stdout);
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "bench_%s failed (exit status %d)\n", spec.name,
                   rc);
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    if (opt.check_perf) return check_perf(opt);
    if (opt.check_docs) {
      const std::string on_disk = read_file(opt.docs);
      const std::string fresh = regenerate(on_disk, opt.data_dir);
      if (fresh != on_disk) {
        std::fprintf(stderr,
                     "%s is stale: AUTOGEN blocks differ from the snapshots "
                     "in %s.\nRegenerate with: bench_runner --regen-only\n",
                     opt.docs.c_str(), opt.data_dir.c_str());
        return 1;
      }
      if (count_plain_gauges(opt.data_dir) > 0) return 1;
      std::printf("%s is up to date with %s\n", opt.docs.c_str(),
                  opt.data_dir.c_str());
      return 0;
    }

    // Quick runs land in a scratch subdirectory so CI smoke runs never
    // overwrite the committed full-size snapshots the docs are built from.
    fs::path data_dir = opt.data_dir;
    if (opt.quick) data_dir /= "quick";
    fs::create_directories(data_dir);

    if (!opt.regen_only) {
      const int failures = run_benches(opt, data_dir);
      if (failures > 0) return 1;
    }

    if (opt.quick) {
      std::printf("quick snapshots in %s; docs left untouched\n",
                  data_dir.string().c_str());
      return 0;
    }
    if (!opt.only.empty() && !opt.regen_only) {
      std::printf("single-bench run; docs left untouched "
                  "(use --regen-only for a full regeneration)\n");
      return 0;
    }

    const std::string on_disk = read_file(opt.docs);
    const std::string fresh = regenerate(on_disk, data_dir);
    if (fresh == on_disk) {
      std::printf("%s already up to date\n", opt.docs.c_str());
    } else {
      std::ofstream out(opt.docs, std::ios::binary | std::ios::trunc);
      VKEY_REQUIRE(static_cast<bool>(out), "cannot write " + opt.docs);
      out << fresh;
      std::printf("regenerated %s\n", opt.docs.c_str());
    }
    return 0;
  } catch (const vkey::Error& e) {
    std::fprintf(stderr, "bench_runner: %s\n", e.what());
    return 2;
  }
}
