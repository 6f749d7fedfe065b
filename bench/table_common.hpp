// Shared helpers for the paper-table benchmark binaries.
//
// Each binary regenerates one table of the paper's evaluation (Section 5).
// Default problem sizes are scaled down from the paper's so the full suite
// runs in seconds; pass --full for paper-scale sizes and --procs=N to
// override the processor count of the statistics tables.
#pragma once

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/run.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

namespace vodsm::bench {

struct Options {
  bool full = false;
  int procs = 16;
  // Host threads for the cell sweep: 0 = VODSM_JOBS env or hardware
  // concurrency; 1 = serial.
  int jobs = 0;
  // When nonempty, append this run's machine-readable record there.
  std::string json;
  // Trace every cell and report per-run time breakdowns (stdout tables for
  // the per-table binaries, per-cell JSON fields everywhere). Each cell owns
  // its recorder, so the parallel sweep stays thread-safe; tracing never
  // charges simulated time, so all sim results are unchanged.
  bool breakdown = false;
  // Trace every cell and run the critical-path / page-contention analyses
  // on it (implies tracing for those cells; see bench/tables.cpp). Like
  // --breakdown these are pure trace consumers: sim results are unchanged.
  bool critpath = false;
  bool pageheat = false;
  // Meter every cell with a cell-local counter/gauge registry (no sampler,
  // peaks/means only) and record peak_twin_bytes / peak_diff_bytes /
  // mean_link_utilization per cell in the JSON. Metering never charges
  // simulated time, so all sim results are unchanged.
  bool metrics = false;
  // Trace every cell and print its ranked "why is this run slow" diagnosis
  // (obs::Diagnoser over the cell's trace + metrics). Pure post-processing
  // like the other analyses: sim results are unchanged, and the report is
  // byte-identical across --jobs.
  bool diagnose = false;
  // Trace + meter every cell and write one persisted run profile
  // (obs::RunProfile JSON) per cell into this directory, named after the
  // cell id ("IS/LRC_d/16p" -> "IS_LRC_d_16p.profile.json"). Accepted as
  // --profile=DIR and --profiles=DIR. Post-processing only: sim results
  // are unchanged and the profiles are byte-identical across --jobs.
  std::string profile_dir;
  // Load the per-cell baseline profiles from this directory and print the
  // ranked differential report (baseline = A, this run = B) for every cell
  // present in both. Implies profiling this run's cells.
  std::string compare_dir;
  // table_suite only: also run the sweep serially and record the speedup.
  bool compare_serial = false;
  // Fault-plan spec applied to every cell (net::parseFaultPlan grammar).
  // Empty means no injection: cells run byte-identical to a plan-free
  // build, and the JSON gains no fault fields (bench_regression_gate
  // compares exactly).
  std::string faults;
  // table_suite only: analytic screen. Path to a model_suite JSON; cells
  // whose recorded in-sample prediction error is within screen_tol are NOT
  // simulated — their JSON row carries the model's prediction, marked
  // "screened". Incompatible with --faults (the model knows nothing about
  // injected faults).
  std::string screen;
  double screen_tol = 0.10;
  // Cluster fabric / barrier algorithm / view-home sharding applied to every
  // cell (parsed eagerly so a typo'd spec cannot silently measure the
  // defaults). Empty strings keep the paper's star + centralized protocol,
  // and the JSON stays byte-identical to a flag-free run.
  std::string topology;
  std::string barrier;
  std::string view_homes;
  // table11_scaling only: extend the processor sweep past 256 to the
  // nightly 512/1024 points (hours of host time on one core; the nightly
  // workflow owns it).
  bool big = false;
};

inline int parseIntArg(const std::string& a, size_t prefix_len) {
  try {
    size_t used = 0;
    int v = std::stoi(a.substr(prefix_len), &used);
    if (used == a.size() - prefix_len) return v;
  } catch (...) {
  }
  std::cerr << "not a number: '" << a << "'\n";
  std::exit(2);
}

inline double parseDoubleArg(const std::string& a, size_t prefix_len) {
  try {
    size_t used = 0;
    double v = std::stod(a.substr(prefix_len), &used);
    if (used == a.size() - prefix_len) return v;
  } catch (...) {
  }
  std::cerr << "not a number: '" << a << "'\n";
  std::exit(2);
}

inline Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--full") o.full = true;
    else if (a == "--big") o.big = true;
    else if (a == "--breakdown") o.breakdown = true;
    else if (a == "--critpath") o.critpath = true;
    else if (a == "--pageheat") o.pageheat = true;
    else if (a == "--metrics") o.metrics = true;
    else if (a == "--diagnose") o.diagnose = true;
    else if (a == "--compare-serial") o.compare_serial = true;
    else if (a.rfind("--procs=", 0) == 0) o.procs = parseIntArg(a, 8);
    else if (a.rfind("--jobs=", 0) == 0) o.jobs = parseIntArg(a, 7);
    else if (a.rfind("--json=", 0) == 0) o.json = a.substr(7);
    else if (a.rfind("--profile=", 0) == 0) o.profile_dir = a.substr(10);
    else if (a.rfind("--profiles=", 0) == 0) o.profile_dir = a.substr(11);
    else if (a.rfind("--compare=", 0) == 0) o.compare_dir = a.substr(10);
    else if (a.rfind("--faults=", 0) == 0) o.faults = a.substr(9);
    else if (a.rfind("--screen=", 0) == 0) o.screen = a.substr(9);
    else if (a.rfind("--screen-tol=", 0) == 0)
      o.screen_tol = parseDoubleArg(a, 13);
    else if (a.rfind("--topology=", 0) == 0) o.topology = a.substr(11);
    else if (a.rfind("--barrier=", 0) == 0) o.barrier = a.substr(10);
    else if (a.rfind("--view-homes=", 0) == 0) o.view_homes = a.substr(13);
    else {
      std::cerr << "usage: " << argv[0]
                << " [--full] [--procs=N] [--jobs=N] [--json=PATH]"
                   " [--breakdown] [--critpath] [--pageheat]"
                   " [--metrics] [--diagnose] [--profiles=DIR]"
                   " [--compare=DIR] [--compare-serial] [--faults=SPEC]"
                   " [--screen=MODEL.json] [--screen-tol=X]"
                   " [--topology=SPEC] [--barrier=ALG] [--view-homes=POLICY]\n";
      std::exit(2);
    }
  }
  // Validate the topology/barrier/directory specs up front so every table
  // binary rejects a typo with usage instead of measuring the defaults.
  net::TopologyConfig topo_check;
  if (!o.topology.empty() && !net::parseTopologySpec(o.topology, &topo_check)) {
    std::cerr << "invalid --topology spec '" << o.topology << "'\n";
    std::exit(2);
  }
  dsm::BarrierAlg barrier_check;
  if (!o.barrier.empty() && !dsm::parseBarrierAlg(o.barrier, &barrier_check)) {
    std::cerr << "invalid --barrier '" << o.barrier << "'\n";
    std::exit(2);
  }
  dsm::ViewHomes homes_check;
  if (!o.view_homes.empty() &&
      !dsm::parseViewHomes(o.view_homes, &homes_check)) {
    std::cerr << "invalid --view-homes '" << o.view_homes << "'\n";
    std::exit(2);
  }
  if (!o.screen.empty() && !o.faults.empty()) {
    // The fitted models describe fault-free runs; screening a faulted
    // sweep would silently substitute fault-free predictions.
    std::cerr << "--screen and --faults are mutually exclusive\n";
    std::exit(2);
  }
  if (!o.screen.empty() &&
      (o.diagnose || !o.profile_dir.empty() || !o.compare_dir.empty())) {
    // Screened cells are predicted, not simulated: there is no trace to
    // diagnose or profile, so these combinations would silently produce
    // empty analyses for the screened subset.
    std::cerr << "--screen cannot be combined with --diagnose, --profiles"
                 " or --compare\n";
    std::exit(2);
  }
  if (o.screen_tol <= 0) {
    std::cerr << "--screen-tol must be positive\n";
    std::exit(2);
  }
  return o;
}

inline harness::RunConfig baseConfig(dsm::Protocol proto, int nprocs) {
  harness::RunConfig c;
  c.protocol = proto;
  c.nprocs = nprocs;
  return c;
}

// Applies the sweep-wide fabric options (validated up front by parseArgs,
// so the parses here cannot fail). Empty specs leave the defaults — star
// fabric, centralized barrier, id-mod-p homes — untouched, keeping
// flag-free sweeps byte-identical to pre-topology builds.
inline void applyFabric(harness::RunConfig& c, const Options& o) {
  if (!o.topology.empty())
    VODSM_CHECK(net::parseTopologySpec(o.topology, &c.net.topology));
  if (!o.barrier.empty())
    VODSM_CHECK(dsm::parseBarrierAlg(o.barrier, &c.proto.barrier));
  if (!o.view_homes.empty())
    VODSM_CHECK(dsm::parseViewHomes(o.view_homes, &c.proto.view_homes));
}

inline harness::RunConfig baseConfig(dsm::Protocol proto, int nprocs,
                                     const Options& o) {
  harness::RunConfig c = baseConfig(proto, nprocs);
  applyFabric(c, o);
  return c;
}

// Configuration for the sequential baseline of the speedup tables: one
// processor and a zero-cost DSM (a real sequential program takes no page
// faults, makes no twins and diffs nothing), leaving pure compute time.
inline harness::RunConfig sequentialConfig() {
  harness::RunConfig c;
  c.protocol = dsm::Protocol::kLrcDiff;
  c.nprocs = 1;
  c.costs = dsm::DsmCosts{.page_fault = 0,
                          .twin_copy = 0,
                          .diff_create_base = 0,
                          .diff_create_per_kb = 0,
                          .diff_apply_base = 0,
                          .diff_apply_per_kb = 0,
                          .handler_service = 0,
                          .barrier_fold = 0,
                          .barrier_per_notice = 0,
                          .apply_notice = 0,
                          .copy_per_kb = 0};
  return c;
}

// Paper-style statistics table: one column per DSM implementation.
class StatsTable {
 public:
  explicit StatsTable(std::string title) : title_(std::move(title)) {}

  void add(const std::string& name, const harness::RunResult& r,
           bool show_acquire_time = false) {
    names_.push_back(name);
    runs_.push_back(r);
    show_acquire_time_ |= show_acquire_time;
  }

  void print(std::ostream& os) const {
    os << "\n" << title_ << "\n";
    TextTable t;
    std::vector<std::string> header{""};
    for (const auto& n : names_) header.push_back(n);
    t.header(header);
    row(t, "Time (Sec.)", [](const harness::RunResult& r) {
      return TextTable::format(r.seconds);
    });
    row(t, "Barriers", [](const harness::RunResult& r) {
      return TextTable::format(r.barrierEpisodes());
    });
    row(t, "Acquires", [](const harness::RunResult& r) {
      return TextTable::format(r.dsm.acquires);
    });
    row(t, "Data (MByte)", [](const harness::RunResult& r) {
      return TextTable::format(r.dataMBytes());
    });
    row(t, "Num. Msg", [](const harness::RunResult& r) {
      return TextTable::format(r.net.messages);
    });
    row(t, "Diff Requests", [](const harness::RunResult& r) {
      return TextTable::format(r.dsm.diff_requests);
    });
    row(t, "Barrier Time (usec.)", [](const harness::RunResult& r) {
      return TextTable::format(r.dsm.avgBarrierMicros());
    });
    if (show_acquire_time_) {
      row(t, "Acquire Time (usec.)", [](const harness::RunResult& r) {
        return TextTable::format(r.dsm.avgAcquireMicros());
      });
    }
    row(t, "Rexmit", [](const harness::RunResult& r) {
      return TextTable::format(r.net.retransmissions);
    });
    t.print(os);
  }

 private:
  template <typename F>
  void row(TextTable& t, const std::string& label, F&& fmt) const {
    std::vector<std::string> cells{label};
    for (const auto& r : runs_) cells.push_back(fmt(r));
    t.row(std::move(cells));
  }

  std::string title_;
  std::vector<std::string> names_;
  std::vector<harness::RunResult> runs_;
  bool show_acquire_time_ = false;
};

// Paper-style speedup table: rows are implementations, columns processor
// counts; speedup is sequential time / parallel time.
class SpeedupTable {
 public:
  SpeedupTable(std::string title, std::vector<int> procs)
      : title_(std::move(title)), procs_(std::move(procs)) {}

  const std::vector<int>& procs() const { return procs_; }

  void add(const std::string& name, double sequential_seconds,
           const std::vector<double>& parallel_seconds) {
    VODSM_CHECK(parallel_seconds.size() == procs_.size());
    std::vector<double> speedups;
    for (double t : parallel_seconds)
      speedups.push_back(t > 0 ? sequential_seconds / t : 0.0);
    rows_.emplace_back(name, std::move(speedups));
  }

  void print(std::ostream& os) const {
    os << "\n" << title_ << "\n";
    TextTable t;
    std::vector<std::string> header{""};
    for (int p : procs_) header.push_back(std::to_string(p) + "-p");
    t.header(header);
    for (const auto& [name, sp] : rows_) {
      std::vector<std::string> cells{name};
      for (double s : sp) cells.push_back(TextTable::format(s));
      t.row(std::move(cells));
    }
    t.print(os);
  }

 private:
  std::string title_;
  std::vector<int> procs_;
  std::vector<std::pair<std::string, std::vector<double>>> rows_;
};

}  // namespace vodsm::bench
