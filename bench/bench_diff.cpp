// Regression gate over two BENCH_tables.json files.
//
// The simulator is deterministic: every simulated figure (sim_seconds,
// messages, payload bytes, breakdown/critpath buckets, metric peaks) must be
// byte-for-byte reproducible across commits and host thread counts. Host
// wall-clock figures are not. bench_diff encodes exactly that contract:
//
//   * every field is compared EXACTLY (numbers by parsed value, which for
//     our own fixed-format writer means byte equality), EXCEPT
//   * host-timing keys (host_seconds, wall_seconds, serial_wall_seconds,
//     speedup_vs_serial) get a ratio tolerance with an absolute floor —
//     sub-floor timings are noise and always pass — and may be present in
//     only one of the two files, and
//   * host run-shape/provenance keys ("jobs", the "host" metadata object;
//     see diff::isIgnoredKey) are ignored outright.
//
// --allow-screened accepts an artifact from table_suite --screen: cells
// marked "screened": true on either side carry a model prediction, not
// simulated fields, and are skipped. The sweep- and table-level host
// timings of a screened artifact (wall_seconds, serial_wall_seconds,
// speedup_vs_serial outside any cell) are not compared either, because
// they time a different set of cells than the other side's sweep. Every
// cell that was simulated still compares in full, its host_seconds
// included; an unscreened pair compares exactly as without the flag.
//
//   bench_diff BASELINE.json CURRENT.json
//   bench_diff --host-tolerance=25 --host-floor-seconds=5 a.json b.json
//   bench_diff --allow-screened BASELINE.json SCREENED.json
//   bench_diff --explain=PROFILES_A,PROFILES_B a.json b.json
//
// --explain upgrades the verdict into a diagnosis: when cells drifted and
// both sides captured per-cell run profiles (table binaries under
// --profiles=DIR; one .profile.json per cell), bench_diff loads the
// drifted cells' profile pairs and prints the ranked differential report
// for each — why B's makespan moved, attributed to critical-path
// categories, barrier episodes, pages and wire classes (see
// obs/profile_diff.hpp). --explain-out=DIR also writes each report as
// JSON next to the text output, so CI can upload the directory as a
// failure artifact.
//
// Exit 0: no simulated drift. Exit 1: drift or a host timing beyond the
// tolerance (each divergence printed with its JSON path; the summary
// counts the two kinds apart). Exit 2: usage or I/O error. CI runs this
// against the committed BENCH_tables.json, so any change to the
// simulation's output must be accompanied by a regenerated baseline in the
// same commit.
//
// The comparison core lives in bench/diff_compare.hpp so the unit tests
// exercise the same code path as this gate.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/diff_compare.hpp"
#include "obs/profile.hpp"
#include "obs/profile_diff.hpp"
#include "support/json.hpp"

namespace {

using vodsm::support::Json;

Json loadFile(const std::string& name) {
  std::ifstream f(name, std::ios::binary);
  if (!f) throw vodsm::Error("cannot read " + name);
  std::ostringstream buf;
  buf << f.rdbuf();
  return Json::parse(buf.str());
}

[[noreturn]] void usage() {
  std::cerr << "usage: bench_diff [--host-tolerance=X]"
               " [--host-floor-seconds=S] [--allow-screened]"
               " [--explain=PROFILES_A,PROFILES_B] [--explain-out=DIR]"
               " BASELINE.json CURRENT.json\n";
  std::exit(2);
}

// For each drifted cell with a persisted profile on both sides, prints the
// ranked differential report (baseline = A) and, when `out_dir` is set,
// writes the JSON report there. Missing profiles are noted, not fatal: a
// drifted cell the baseline never profiled still fails the gate, it just
// cannot be explained.
int explainDrift(const std::vector<std::string>& cells,
                 const std::string& dir_a, const std::string& dir_b,
                 const std::string& out_dir) {
  namespace fs = std::filesystem;
  using namespace vodsm;
  if (!out_dir.empty()) fs::create_directories(out_dir);
  int explained = 0;
  for (const std::string& id : cells) {
    const std::string file = bench::diff::cellProfileFileName(id);
    const fs::path pa = fs::path(dir_a) / file;
    const fs::path pb = fs::path(dir_b) / file;
    if (!fs::exists(pa) || !fs::exists(pb)) {
      std::cout << "explain: no profile pair for " << id << " ("
                << (fs::exists(pa) ? pb : pa).string() << " missing)\n";
      continue;
    }
    const obs::RunProfile a = obs::loadRunProfileFile(pa.string());
    const obs::RunProfile b = obs::loadRunProfileFile(pb.string());
    const obs::DiffReport report = obs::diffProfiles(a, b);
    obs::printDiffReport(std::cout, report, "Differential report: " + id);
    if (!out_dir.empty()) {
      std::string json_name = file;
      json_name.replace(json_name.size() - std::string(".profile.json").size(),
                        std::string::npos, ".diff.json");
      std::ofstream f(fs::path(out_dir) / json_name);
      if (!f) throw vodsm::Error("cannot write " + out_dir + "/" + json_name);
      obs::writeDiffReportJson(f, report);
    }
    ++explained;
  }
  return explained;
}

// Full-token positive number; stod alone would accept "1x" and throw an
// uncaught exception on "abc".
double parseNum(const std::string& flag, const std::string& v) {
  size_t used = 0;
  double d = 0;
  try {
    d = std::stod(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (v.empty() || used != v.size() || d <= 0) {
    std::cerr << flag << "=" << v << ": expected a positive number\n";
    usage();
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vodsm::bench;
  diff::Config cfg;
  std::vector<std::string> files;
  std::string explain_a, explain_b, explain_out;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--host-tolerance=", 0) == 0)
      cfg.host_tolerance = parseNum("--host-tolerance", a.substr(17));
    else if (a.rfind("--host-floor-seconds=", 0) == 0)
      cfg.host_floor_seconds = parseNum("--host-floor-seconds", a.substr(21));
    else if (a == "--allow-screened")
      cfg.allow_screened = true;
    else if (a.rfind("--explain=", 0) == 0) {
      const std::string dirs = a.substr(10);
      const size_t comma = dirs.find(',');
      if (comma == std::string::npos || comma == 0 ||
          comma + 1 == dirs.size()) {
        std::cerr << "--explain expects two directories:"
                     " --explain=PROFILES_A,PROFILES_B\n";
        usage();
      }
      explain_a = dirs.substr(0, comma);
      explain_b = dirs.substr(comma + 1);
    } else if (a.rfind("--explain-out=", 0) == 0)
      explain_out = a.substr(14);
    else if (a.rfind("--", 0) == 0)
      usage();
    else
      files.push_back(a);
  }
  if (files.size() != 2) usage();
  if (!explain_out.empty() && explain_a.empty()) {
    std::cerr << "--explain-out requires --explain\n";
    usage();
  }

  try {
    Json base = loadFile(files[0]);
    Json cur = loadFile(files[1]);
    diff::Report rep;
    diff::compare(base, cur, "$", cfg, rep);
    if (rep.mismatches > 0) {
      std::cout << "bench_diff: " << rep.simulatedMismatches()
                << " simulated field(s) drifted and " << rep.host_mismatches
                << " host timing(s) beyond " << cfg.host_tolerance
                << "x between " << files[0] << " and " << files[1] << "\n";
      if (!explain_a.empty()) {
        std::cout << "bench_diff: explaining " << rep.drifted_cells.size()
                  << " drifted cell(s) from " << explain_a << " vs "
                  << explain_b << "\n";
        explainDrift(rep.drifted_cells, explain_a, explain_b, explain_out);
      }
      return 1;
    }
    std::cout << "bench_diff: OK — simulated fields identical ("
              << rep.host_checked << " host-timing fields within "
              << cfg.host_tolerance << "x";
    if (rep.screened_skipped > 0)
      std::cout << ", " << rep.screened_skipped << " screened cells skipped";
    if (rep.sweep_timings_skipped > 0)
      std::cout << ", " << rep.sweep_timings_skipped
                << " screened-sweep timings skipped";
    std::cout << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_diff: " << e.what() << "\n";
    return 2;
  }
}
