#include "bench/tables.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "bench/diff_compare.hpp"
#include "bench/paper_params.hpp"
#include "harness/parallel_runner.hpp"
#include "model/model_set.hpp"
#include "support/json.hpp"
#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/diagnose.hpp"
#include "obs/metrics.hpp"
#include "obs/page_heat.hpp"
#include "obs/profile.hpp"
#include "obs/profile_diff.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace vodsm::bench {

namespace {

using apps::GaussVariant;
using apps::IsVariant;
using apps::NnVariant;
using apps::SorVariant;
using dsm::Protocol;
using harness::RunResult;

// Processor counts of the speedup tables (paper Tables 3, 5, 7, 9).
const std::vector<int> kSpeedupProcs = {2, 4, 8, 16, 24, 32};

// Compiler identification for the JSON "host" record. Host-dependent like
// the rest of that object, so bench_diff never compares it.
#if defined(__clang_version__)
constexpr const char* kCompilerId = "clang " __clang_version__;
#elif defined(__VERSION__)
constexpr const char* kCompilerId = "gcc " __VERSION__;
#else
constexpr const char* kCompilerId = "unknown";
#endif

std::string cellId(const std::string& app, const std::string& impl,
                   int procs) {
  return app + "/" + impl + "/" + std::to_string(procs) + "p";
}

// --- axis variations (table 10) -----------------------------------------

// One off-reference coordinate of the model axis space: a problem-size
// scale, a link bandwidth, or a frame-loss rate different from the paper
// testbed's. The suffix joins the cell id ("IS/LRC_d/16p/bw50").
struct AxisVariation {
  const char* suffix;
  double n_scale;
  double bw_mbps;
  double loss_pct;
};

// Two points per axis so every regressor of the model family is
// identified. Loss stays <= 0.5%: each lost frame costs a one-second RTO,
// so higher rates blow up simulated (and host) time.
constexpr AxisVariation kAxisVariations[] = {
    {"bw50", 1.0, 50.0, 0.0},    {"bw200", 1.0, 200.0, 0.0},
    {"loss0.2", 1.0, 100.0, 0.2}, {"loss0.5", 1.0, 100.0, 0.5},
    {"n0.5", 0.5, 100.0, 0.0},    {"n2", 2.0, 100.0, 0.0},
};

model::AxisPoint axisPoint(int procs, const AxisVariation& v) {
  model::AxisPoint a;
  a.procs = procs;
  a.n_scale = v.n_scale;
  a.bw_mbps = v.bw_mbps;
  a.loss_pct = v.loss_pct;
  a.explicit_axes = true;
  return a;
}

void applyAxes(harness::RunConfig& c, const model::AxisPoint& a) {
  c.net.bandwidth_bps = a.bw_mbps * 1e6;
  c.net.random_loss = a.loss_pct / 100.0;
}

// --- cell builders: one per (app, variant) pair -------------------------

// Which trace analyses a cell should run; copied out of Options so the
// cell lambdas stay self-contained. The fault plan travels by value for
// the same reason: every cell binds its own injector to its own run, so
// the parallel sweep shares no mutable fault state.
struct CellFlags {
  bool traced = false;
  bool critpath = false;
  bool pageheat = false;
  bool metrics = false;
  // Diagnosis implies tracing (and benefits from metrics; the caller turns
  // both on in flagsOf) — the Diagnoser is a pure trace/metrics consumer.
  bool diagnose = false;
  // Profiling implies tracing and metering (the caller turns both on in
  // flagsOf) — buildRunProfile is a pure trace/metrics consumer too.
  bool profile = false;
  net::FaultPlan faults;
};

CellFlags flagsOf(const Options& o) {
  const bool profile = !o.profile_dir.empty() || !o.compare_dir.empty();
  CellFlags f{o.breakdown || o.critpath || o.pageheat || o.diagnose ||
                  profile,
              o.critpath,
              o.pageheat,
              o.metrics || o.diagnose || profile,
              o.diagnose,
              profile,
              {}};
  if (!o.faults.empty()) {
    try {
      f.faults = net::parseFaultPlan(o.faults);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      std::exit(2);
    }
  }
  return f;
}

// Runs one cell, tracing/metering it through cell-local observers when
// requested. The recorder and registry live only for the run; the folded
// analyses travel out by value inside RunResult, and per-cell ownership
// keeps the parallel sweep free of shared mutable state. The metrics
// registry samples at interval 0: the bench only consumes peaks and means,
// so no time series is recorded.
template <typename RunFn>
RunResult runCell(const CellFlags& flags, harness::RunConfig cfg,
                  RunFn&& run) {
  obs::TraceRecorder rec;
  obs::MetricsRegistry mets;
  if (flags.traced) cfg.trace = &rec;
  if (flags.metrics) cfg.metrics = &mets;
  cfg.critpath = flags.critpath;
  cfg.pageheat = flags.pageheat;
  cfg.diagnose = flags.diagnose;
  cfg.profile = flags.profile;
  if (!flags.faults.empty()) cfg.faults = &flags.faults;
  return run(cfg);
}

Cell isCell(const Options& o, const std::string& impl, Protocol proto,
            IsVariant variant, int procs) {
  auto params = isParams(o.full);
  const CellFlags flags = flagsOf(o);
  return Cell{cellId("IS", impl, procs), [=] {
                return runCell(flags, baseConfig(proto, procs, o),
                               [&](const harness::RunConfig& cfg) {
                                 return apps::runIs(cfg, params, variant)
                                     .result;
                               });
              }};
}

Cell isSeqCell(const Options& o) {
  auto params = isParams(o.full);
  const CellFlags flags = flagsOf(o);
  return Cell{cellId("IS", "seq", 1), [=] {
                return runCell(flags, sequentialConfig(),
                               [&](const harness::RunConfig& cfg) {
                                 return apps::runIs(cfg, params,
                                                    IsVariant::kTraditional)
                                     .result;
                               });
              }};
}

Cell gaussCell(const Options& o, const std::string& impl, Protocol proto,
               GaussVariant variant, int procs) {
  auto params = gaussParams(o.full);
  const CellFlags flags = flagsOf(o);
  return Cell{cellId("Gauss", impl, procs), [=] {
                return runCell(flags, baseConfig(proto, procs, o),
                               [&](const harness::RunConfig& cfg) {
                                 return apps::runGauss(cfg, params, variant)
                                     .result;
                               });
              }};
}

Cell gaussSeqCell(const Options& o) {
  auto params = gaussParams(o.full);
  const CellFlags flags = flagsOf(o);
  return Cell{cellId("Gauss", "seq", 1),
              [=] {
                return runCell(flags, sequentialConfig(),
                               [&](const harness::RunConfig& cfg) {
                                 return apps::runGauss(
                                            cfg, params,
                                            GaussVariant::kTraditional)
                                     .result;
                               });
              }};
}

Cell sorCell(const Options& o, const std::string& impl, Protocol proto,
             SorVariant variant, int procs) {
  auto params = sorParams(o.full);
  const CellFlags flags = flagsOf(o);
  return Cell{cellId("SOR", impl, procs), [=] {
                return runCell(flags, baseConfig(proto, procs, o),
                               [&](const harness::RunConfig& cfg) {
                                 return apps::runSor(cfg, params, variant)
                                     .result;
                               });
              }};
}

Cell sorSeqCell(const Options& o) {
  auto params = sorParams(o.full);
  const CellFlags flags = flagsOf(o);
  return Cell{cellId("SOR", "seq", 1), [=] {
                return runCell(flags, sequentialConfig(),
                               [&](const harness::RunConfig& cfg) {
                                 return apps::runSor(cfg, params,
                                                     SorVariant::kTraditional)
                                     .result;
                               });
              }};
}

Cell nnCell(const Options& o, const std::string& impl, Protocol proto,
            NnVariant variant, int procs) {
  auto params = nnParams(o.full);
  const CellFlags flags = flagsOf(o);
  return Cell{cellId("NN", impl, procs), [=] {
                return runCell(flags, baseConfig(proto, procs, o),
                               [&](const harness::RunConfig& cfg) {
                                 return apps::runNn(cfg, params, variant)
                                     .result;
                               });
              }};
}

Cell nnSeqCell(const Options& o) {
  auto params = nnParams(o.full);
  const CellFlags flags = flagsOf(o);
  return Cell{cellId("NN", "seq", 1), [=] {
                return runCell(flags, sequentialConfig(),
                               [&](const harness::RunConfig& cfg) {
                                 return apps::runNn(cfg, params,
                                                    NnVariant::kTraditional)
                                     .result;
                               });
              }};
}

// Axis-sweep builders: like isCell/sorCell but at an off-reference
// coordinate. The problem-size scale hits the app's natural work knob
// (IS: key count; SOR: iteration count — both scale total work linearly
// without changing the sharing pattern); bandwidth and loss go through
// NetConfig.
Cell isAxisCell(const Options& o, const std::string& impl, Protocol proto,
                IsVariant variant, int procs, const AxisVariation& v) {
  auto params = isParams(o.full);
  params.n_keys = static_cast<size_t>(
      static_cast<double>(params.n_keys) * v.n_scale);
  const CellFlags flags = flagsOf(o);
  const model::AxisPoint axes = axisPoint(procs, v);
  Cell cell{cellId("IS", impl, procs) + "/" + v.suffix, [=] {
              harness::RunConfig base = baseConfig(proto, procs, o);
              applyAxes(base, axes);
              return runCell(flags, base,
                             [&](const harness::RunConfig& cfg) {
                               return apps::runIs(cfg, params, variant)
                                   .result;
                             });
            }};
  cell.axes = axes;
  return cell;
}

Cell sorAxisCell(const Options& o, const std::string& impl, Protocol proto,
                 SorVariant variant, int procs, const AxisVariation& v) {
  auto params = sorParams(o.full);
  params.iterations = std::max(
      1, static_cast<int>(static_cast<double>(params.iterations) *
                          v.n_scale));
  const CellFlags flags = flagsOf(o);
  const model::AxisPoint axes = axisPoint(procs, v);
  Cell cell{cellId("SOR", impl, procs) + "/" + v.suffix, [=] {
              harness::RunConfig base = baseConfig(proto, procs, o);
              applyAxes(base, axes);
              return runCell(flags, base,
                             [&](const harness::RunConfig& cfg) {
                               return apps::runSor(cfg, params, variant)
                                   .result;
                             });
            }};
  cell.axes = axes;
  return cell;
}

// Scaling-sweep builder (table 11): an IS cell on either the paper's
// reference fabric (star + centralized barrier + id-mod-p homes) or the
// scalable stack (fat tree + tree barrier + hashed homes). The fabric is
// pinned per cell — the sweep compares the two stacks side by side — so
// this deliberately ignores any --topology/--barrier/--view-homes options.
Cell scalingCell(const Options& o, const std::string& impl, Protocol proto,
                 IsVariant variant, int procs, bool scalable) {
  auto params = isParams(o.full);
  const CellFlags flags = flagsOf(o);
  return Cell{cellId("IS", impl, procs), [=] {
                harness::RunConfig base = baseConfig(proto, procs);
                if (scalable) {
                  base.net.topology.kind = net::TopologyKind::kFatTree;
                  base.proto.barrier = dsm::BarrierAlg::kTree;
                  base.proto.view_homes = dsm::ViewHomes::kHashed;
                }
                return runCell(flags, base,
                               [&](const harness::RunConfig& cfg) {
                                 return apps::runIs(cfg, params, variant)
                                     .result;
                               });
              }};
}

// --- table shapes -------------------------------------------------------

// Stats table: one column per named cell, in cell order.
TableSpec statsSpec(std::string name, std::string title,
                    std::vector<std::string> col_names,
                    std::vector<Cell> cells, bool show_acquire_time = false) {
  TableSpec spec;
  spec.name = std::move(name);
  spec.cells = std::move(cells);
  spec.print = [title = std::move(title), col_names = std::move(col_names),
                show_acquire_time](std::ostream& os,
                                   const std::vector<RunResult>& results) {
    StatsTable table(title);
    for (size_t i = 0; i < results.size(); ++i)
      table.add(col_names[i], results[i], show_acquire_time);
    table.print(os);
  };
  return spec;
}

// Speedup table: cell 0 is the sequential baseline, then row-major
// (row r, processor count k) at index 1 + r * |procs| + k.
TableSpec speedupSpec(std::string name, std::string title,
                      std::vector<std::string> row_names, Cell seq_cell,
                      std::vector<Cell> grid_cells) {
  TableSpec spec;
  spec.name = std::move(name);
  spec.cells.push_back(std::move(seq_cell));
  for (auto& c : grid_cells) spec.cells.push_back(std::move(c));
  spec.print = [title = std::move(title), row_names = std::move(row_names)](
                   std::ostream& os, const std::vector<RunResult>& results) {
    SpeedupTable table(title, kSpeedupProcs);
    const double t_seq = results[0].seconds;
    const size_t np = kSpeedupProcs.size();
    for (size_t r = 0; r < row_names.size(); ++r) {
      std::vector<double> times;
      for (size_t k = 0; k < np; ++k)
        times.push_back(results[1 + r * np + k].seconds);
      table.add(row_names[r], t_seq, times);
    }
    table.print(os);
  };
  return spec;
}

}  // namespace

TableSpec table1Spec(const Options& o) {
  return statsSpec(
      "table1_is_stats",
      "Table 1: Statistics of IS on " + std::to_string(o.procs) +
          " processors",
      {"LRC_d", "VC_d", "VC_sd"},
      {isCell(o, "LRC_d", Protocol::kLrcDiff, IsVariant::kTraditional,
              o.procs),
       isCell(o, "VC_d", Protocol::kVcDiff, IsVariant::kVopp, o.procs),
       isCell(o, "VC_sd", Protocol::kVcSd, IsVariant::kVopp, o.procs)});
}

TableSpec table2Spec(const Options& o) {
  return statsSpec(
      "table2_is_fewer_barriers",
      "Table 2: Statistics of IS with fewer barriers on " +
          std::to_string(o.procs) + " processors",
      {"VC_d", "VC_sd"},
      {isCell(o, "VC_d_lb", Protocol::kVcDiff,
              IsVariant::kVoppFewerBarriers, o.procs),
       isCell(o, "VC_sd_lb", Protocol::kVcSd, IsVariant::kVoppFewerBarriers,
              o.procs)});
}

TableSpec table3Spec(const Options& o) {
  std::vector<Cell> grid;
  for (int p : kSpeedupProcs)
    grid.push_back(
        isCell(o, "LRC_d", Protocol::kLrcDiff, IsVariant::kTraditional, p));
  for (int p : kSpeedupProcs)
    grid.push_back(isCell(o, "VC_sd", Protocol::kVcSd, IsVariant::kVopp, p));
  for (int p : kSpeedupProcs)
    grid.push_back(isCell(o, "VC_sd_lb", Protocol::kVcSd,
                          IsVariant::kVoppFewerBarriers, p));
  return speedupSpec("table3_is_speedup",
                     "Table 3: Speedup of IS on LRC_d and VC_sd",
                     {"LRC_d", "VC_sd", "VC_sd lb"}, isSeqCell(o),
                     std::move(grid));
}

TableSpec table4Spec(const Options& o) {
  return statsSpec(
      "table4_gauss_stats",
      "Table 4: Statistics of Gauss on " + std::to_string(o.procs) +
          " processors",
      {"LRC_d", "VC_d", "VC_sd"},
      {gaussCell(o, "LRC_d", Protocol::kLrcDiff, GaussVariant::kTraditional,
                 o.procs),
       gaussCell(o, "VC_d", Protocol::kVcDiff, GaussVariant::kVopp, o.procs),
       gaussCell(o, "VC_sd", Protocol::kVcSd, GaussVariant::kVopp,
                 o.procs)});
}

TableSpec table5Spec(const Options& o) {
  std::vector<Cell> grid;
  for (int p : kSpeedupProcs)
    grid.push_back(gaussCell(o, "LRC_d", Protocol::kLrcDiff,
                             GaussVariant::kTraditional, p));
  for (int p : kSpeedupProcs)
    grid.push_back(
        gaussCell(o, "VC_sd", Protocol::kVcSd, GaussVariant::kVopp, p));
  return speedupSpec("table5_gauss_speedup",
                     "Table 5: Speedup of Gauss on LRC_d and VC_sd",
                     {"LRC_d", "VC_sd"}, gaussSeqCell(o), std::move(grid));
}

TableSpec table6Spec(const Options& o) {
  return statsSpec(
      "table6_sor_stats",
      "Table 6: Statistics of SOR on " + std::to_string(o.procs) +
          " processors",
      {"LRC_d", "VC_d", "VC_sd"},
      {sorCell(o, "LRC_d", Protocol::kLrcDiff, SorVariant::kTraditional,
               o.procs),
       sorCell(o, "VC_d", Protocol::kVcDiff, SorVariant::kVopp, o.procs),
       sorCell(o, "VC_sd", Protocol::kVcSd, SorVariant::kVopp, o.procs)});
}

TableSpec table7Spec(const Options& o) {
  std::vector<Cell> grid;
  for (int p : kSpeedupProcs)
    grid.push_back(
        sorCell(o, "LRC_d", Protocol::kLrcDiff, SorVariant::kTraditional, p));
  for (int p : kSpeedupProcs)
    grid.push_back(sorCell(o, "VC_sd", Protocol::kVcSd, SorVariant::kVopp, p));
  return speedupSpec("table7_sor_speedup",
                     "Table 7: Speedup of SOR on LRC_d and VC_sd",
                     {"LRC_d", "VC_sd"}, sorSeqCell(o), std::move(grid));
}

TableSpec table8Spec(const Options& o) {
  return statsSpec(
      "table8_nn_stats",
      "Table 8: Statistics of NN on " + std::to_string(o.procs) +
          " processors",
      {"LRC_d", "VC_d", "VC_sd"},
      {nnCell(o, "LRC_d", Protocol::kLrcDiff, NnVariant::kTraditional,
              o.procs),
       nnCell(o, "VC_d", Protocol::kVcDiff, NnVariant::kVopp, o.procs),
       nnCell(o, "VC_sd", Protocol::kVcSd, NnVariant::kVopp, o.procs)},
      /*show_acquire_time=*/true);
}

TableSpec table9Spec(const Options& o) {
  std::vector<Cell> grid;
  for (int p : kSpeedupProcs)
    grid.push_back(
        nnCell(o, "LRC_d", Protocol::kLrcDiff, NnVariant::kTraditional, p));
  for (int p : kSpeedupProcs)
    grid.push_back(nnCell(o, "VC_sd", Protocol::kVcSd, NnVariant::kVopp, p));
  for (int p : kSpeedupProcs)
    grid.push_back(nnCell(o, "MPI", Protocol::kVcSd, NnVariant::kMpi, p));
  return speedupSpec("table9_nn_speedup",
                     "Table 9: Speedup of NN on LRC_d, VC_sd and MPI",
                     {"LRC_d", "VC_sd", "MPI"}, nnSeqCell(o),
                     std::move(grid));
}

TableSpec table10Spec(const Options& o) {
  TableSpec spec;
  spec.name = "table10_axis_sweep";
  for (const AxisVariation& v : kAxisVariations) {
    spec.cells.push_back(isAxisCell(o, "LRC_d", Protocol::kLrcDiff,
                                    IsVariant::kTraditional, o.procs, v));
    spec.cells.push_back(
        isAxisCell(o, "VC_sd", Protocol::kVcSd, IsVariant::kVopp, o.procs, v));
    spec.cells.push_back(sorAxisCell(o, "LRC_d", Protocol::kLrcDiff,
                                     SorVariant::kTraditional, o.procs, v));
    spec.cells.push_back(sorAxisCell(o, "VC_sd", Protocol::kVcSd,
                                     SorVariant::kVopp, o.procs, v));
  }
  std::vector<std::string> ids;
  for (const Cell& c : spec.cells) ids.push_back(c.id);
  spec.print = [ids = std::move(ids), procs = o.procs](
                   std::ostream& os, const std::vector<RunResult>& results) {
    os << "\nTable 10: Axis sweep (bandwidth / loss / size) on "
       << std::to_string(procs) << " processors\n";
    TextTable t;
    t.header({"cell", "Time (Sec.)", "Num. Msg", "Rexmit"});
    for (size_t i = 0; i < results.size(); ++i)
      t.row({ids[i], TextTable::format(results[i].seconds),
             TextTable::format(results[i].net.messages),
             TextTable::format(results[i].net.retransmissions)});
    t.print(os);
  };
  return spec;
}

TableSpec table11Spec(const Options& o) {
  std::vector<int> procs = {32, 64, 128, 256};
  if (o.big) {
    procs.push_back(512);
    procs.push_back(1024);
  }
  TableSpec spec;
  spec.name = "table11_scaling";
  for (int p : procs) {
    // Past 256 processors the star/centralized cells are deep in
    // retransmission collapse — simulated time and host memory both blow
    // up on work the 256p rows already demonstrate — so the big-p rows
    // carry only the scalable stack.
    if (p <= 256) {
      spec.cells.push_back(scalingCell(o, "LRC_d", Protocol::kLrcDiff,
                                       IsVariant::kTraditional, p,
                                       /*scalable=*/false));
    }
    spec.cells.push_back(scalingCell(o, "LRC_d_ft", Protocol::kLrcDiff,
                                     IsVariant::kTraditional, p,
                                     /*scalable=*/true));
    if (p <= 256) {
      spec.cells.push_back(scalingCell(o, "VC_sd", Protocol::kVcSd,
                                       IsVariant::kVopp, p,
                                       /*scalable=*/false));
    }
    // VOPP IS lays out p^2 contribution views, so each node's page table
    // is O(p^2) and the cluster's host footprint O(p^3): ~7.5 GB at 512
    // processors, past any CI runner at 1024. The traditional variant's
    // flat bucket array keeps the 1024p row affordable, and still
    // exercises trunks, the tree barrier, and sharded homes at full
    // scale.
    if (p <= 512) {
      spec.cells.push_back(scalingCell(o, "VC_sd_ft", Protocol::kVcSd,
                                       IsVariant::kVopp, p,
                                       /*scalable=*/true));
    }
  }
  std::vector<std::string> ids;
  for (const Cell& c : spec.cells) ids.push_back(c.id);
  spec.print = [ids = std::move(ids)](
                   std::ostream& os, const std::vector<RunResult>& results) {
    os << "\nTable 11: IS scaling — star/central vs fat tree with tree "
          "barrier and hashed view homes (_ft)\n";
    TextTable t;
    t.header({"cell", "Time (Sec.)", "Num. Msg", "Barrier Time (usec.)",
              "Rexmit"});
    for (size_t i = 0; i < results.size(); ++i)
      t.row({ids[i], TextTable::format(results[i].seconds),
             TextTable::format(results[i].net.messages),
             TextTable::format(results[i].dsm.avgBarrierMicros()),
             TextTable::format(results[i].net.retransmissions)});
    t.print(os);
  };
  return spec;
}

std::vector<TableSpec> allTableSpecs(const Options& o) {
  std::vector<TableSpec> specs;
  specs.push_back(table1Spec(o));
  specs.push_back(table2Spec(o));
  specs.push_back(table3Spec(o));
  specs.push_back(table4Spec(o));
  specs.push_back(table5Spec(o));
  specs.push_back(table6Spec(o));
  specs.push_back(table7Spec(o));
  specs.push_back(table8Spec(o));
  specs.push_back(table9Spec(o));
  specs.push_back(table10Spec(o));
  return specs;
}

int applyScreen(std::vector<TableSpec>& specs, const std::string& model_path,
                double tol, std::ostream& log) {
  std::ifstream f(model_path, std::ios::binary);
  VODSM_CHECK_MSG(f.good(), "cannot read screen model " + model_path);
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::vector<model::CellEval> evals =
      model::loadModelEvals(support::Json::parse(buf.str()));
  std::map<std::string, const model::CellEval*> by_id;
  for (const model::CellEval& e : evals) by_id[e.id] = &e;

  int screened = 0;
  for (TableSpec& spec : specs) {
    for (Cell& cell : spec.cells) {
      const auto it = by_id.find(cell.id);
      // Only skip a cell the model has demonstrably hit: its recorded
      // prediction error (from the model's own fit run) must be within
      // tolerance. Unknown cells always simulate.
      if (it == by_id.end() || it->second->rel_err > tol) continue;
      const double predicted = it->second->predicted;
      const std::string note = it->second->note;
      cell.run = [predicted, note] {
        RunResult r;
        r.seconds = predicted;
        r.screened = true;
        r.screen_note = note;
        return r;
      };
      char line[64];
      std::snprintf(line, sizeof(line), "%.6f s (fit err %.1f%%", predicted,
                    it->second->rel_err * 100.0);
      log << "screen: skip " << cell.id << " — predicted " << line
          << ", model " << note << ")\n";
      ++screened;
    }
  }
  return screened;
}

SpecRun runSpec(const TableSpec& spec, int jobs) {
  using Clock = std::chrono::steady_clock;
  SpecRun out;
  out.results.resize(spec.cells.size());
  out.cell_host_seconds.resize(spec.cells.size(), 0.0);
  const auto t0 = Clock::now();
  harness::ParallelRunner(jobs).forEach(spec.cells.size(), [&](size_t i) {
    const auto c0 = Clock::now();
    out.results[i] = spec.cells[i].run();
    out.cell_host_seconds[i] =
        std::chrono::duration<double>(Clock::now() - c0).count();
  });
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

std::string profileFileName(const std::string& cell_id) {
  return diff::cellProfileFileName(cell_id);
}

int writeCellProfiles(const std::string& dir,
                      const std::vector<TableSpec>& specs,
                      const std::vector<SpecRun>& runs, std::ostream& log) {
  std::filesystem::create_directories(dir);
  int written = 0;
  for (size_t s = 0; s < specs.size(); ++s) {
    for (size_t i = 0; i < specs[s].cells.size(); ++i) {
      const RunResult& r = runs[s].results[i];
      if (!r.profile.enabled()) continue;  // screened / MPI reference cells
      obs::RunProfile p = r.profile;
      p.label = specs[s].cells[i].id;
      const std::filesystem::path path =
          std::filesystem::path(dir) / profileFileName(p.label);
      std::ofstream f(path);
      VODSM_CHECK_MSG(f.good(), "cannot write " + path.string());
      obs::writeRunProfileJson(f, p);
      ++written;
    }
  }
  log << "profiles: wrote " << written << " cell profiles to " << dir
      << "\n";
  return written;
}

int compareCellProfiles(const std::string& baseline_dir,
                        const std::vector<TableSpec>& specs,
                        const std::vector<SpecRun>& runs, std::ostream& os,
                        std::ostream& log) {
  int printed = 0;
  for (size_t s = 0; s < specs.size(); ++s) {
    for (size_t i = 0; i < specs[s].cells.size(); ++i) {
      const RunResult& r = runs[s].results[i];
      if (!r.profile.enabled()) continue;
      const std::string& id = specs[s].cells[i].id;
      const std::filesystem::path path =
          std::filesystem::path(baseline_dir) / profileFileName(id);
      if (!std::filesystem::exists(path)) {
        log << "compare: no baseline profile for " << id << " ("
            << path.string() << ")\n";
        continue;
      }
      const obs::RunProfile baseline =
          obs::loadRunProfileFile(path.string());
      obs::RunProfile current = r.profile;
      current.label = id;
      const obs::DiffReport report = obs::diffProfiles(baseline, current);
      obs::printDiffReport(os, report, "Differential report: " + id);
      ++printed;
    }
  }
  return printed;
}

namespace {

std::string jsonEsc(const std::string& s) {
  std::string esc;
  for (char c : s) {
    if (c == '"' || c == '\\') esc.push_back('\\');
    esc.push_back(c);
  }
  return esc;
}

}  // namespace

void writeTablesJson(std::ostream& os, const std::vector<TableSpec>& specs,
                     const std::vector<SpecRun>& runs, const Options& o,
                     int jobs, double wall_seconds,
                     double serial_wall_seconds) {
  size_t n_cells = 0;
  for (const auto& s : specs) n_cells += s.cells.size();
  size_t n_screened = 0;
  for (const auto& run : runs)
    for (const auto& r : run.results)
      if (r.screened) ++n_screened;
  os << std::setprecision(6) << std::fixed;
  os << "{\n";
  os << "  \"suite\": \"paper_tables\",\n";
  // Host provenance: which machine/configuration produced this artifact.
  // Every key here is host-dependent, so bench_diff ignores the whole
  // object (like "jobs"); the simulated fields it compares stay
  // byte-identical regardless of where the suite ran.
  os << "  \"host\": {\"cores\": " << std::thread::hardware_concurrency()
     << ", \"jobs\": " << jobs
     << ", \"compiler\": \"" << kCompilerId << "\"},\n";
  os << "  \"full\": " << (o.full ? "true" : "false") << ",\n";
  os << "  \"breakdown\": " << (o.breakdown ? "true" : "false") << ",\n";
  if (!o.faults.empty()) {
    // Record the active fault spec (escaped as a JSON string) so a faulted
    // artifact can never be mistaken for a baseline. Fault-free runs write
    // no fault keys at all, keeping the baseline byte-identical.
    os << "  \"faults\": \"" << jsonEsc(o.faults) << "\",\n";
  }
  if (!o.screen.empty()) {
    // Screen provenance, written only on screened sweeps (like "faults"):
    // a screened artifact names its model and how many cells it skipped,
    // so it can never be mistaken for a fully simulated baseline.
    // bench_diff only tolerates these keys under --allow-screened.
    os << "  \"screen\": \"" << jsonEsc(o.screen) << "\",\n";
    os << "  \"screened_cells\": " << n_screened << ",\n";
  }
  os << "  \"jobs\": " << jobs << ",\n";
  os << "  \"cells\": " << n_cells << ",\n";
  os << "  \"wall_seconds\": " << wall_seconds << ",\n";
  if (serial_wall_seconds > 0) {
    os << "  \"serial_wall_seconds\": " << serial_wall_seconds << ",\n";
    os << "  \"speedup_vs_serial\": "
       << (wall_seconds > 0 ? serial_wall_seconds / wall_seconds : 0.0)
       << ",\n";
  }
  os << "  \"tables\": [\n";
  for (size_t s = 0; s < specs.size(); ++s) {
    os << "    {\"name\": \"" << specs[s].name << "\", \"wall_seconds\": "
       << runs[s].wall_seconds << ", \"cells\": [\n";
    for (size_t i = 0; i < specs[s].cells.size(); ++i) {
      const auto& r = runs[s].results[i];
      const model::AxisPoint& ax = specs[s].cells[i].axes;
      if (r.screened) {
        // A screened cell was never simulated: it records the model's
        // prediction and NO simulated fields, so it cannot contaminate a
        // baseline comparison (bench_diff skips it under --allow-screened
        // and fails loudly otherwise).
        os << "      {\"id\": \"" << specs[s].cells[i].id
           << "\", \"screened\": true, \"predicted_seconds\": " << r.seconds
           << ", \"screen_note\": \"" << jsonEsc(r.screen_note) << "\"}"
           << (i + 1 < specs[s].cells.size() ? "," : "") << "\n";
        continue;
      }
      os << "      {\"id\": \"" << specs[s].cells[i].id
         << "\", \"sim_seconds\": " << r.seconds;
      if (ax.explicit_axes) {
        // The cell's coordinates in the model axis space; input metadata,
        // not simulated output, so bench_diff ignores the object.
        os << ", \"axes\": {\"procs\": " << ax.procs
           << ", \"n_scale\": " << ax.n_scale
           << ", \"bw_mbps\": " << ax.bw_mbps
           << ", \"loss_pct\": " << ax.loss_pct << "}";
      }
      os << ", \"host_seconds\": " << runs[s].cell_host_seconds[i]
         << ", \"messages\": " << r.net.messages
         << ", \"payload_bytes\": " << r.net.payload_bytes;
      if (!o.faults.empty()) {
        // Per-cell fault columns, present only on faulted sweeps.
        os << ", \"retransmissions\": " << r.net.retransmissions
           << ", \"frames_dropped_fault\": " << r.net.frames_dropped_fault
           << ", \"frames_duplicated\": " << r.net.frames_duplicated
           << ", \"frames_reordered\": " << r.net.frames_reordered
           << ", \"frames_degraded\": " << r.net.frames_degraded;
      }
      if (r.breakdown.enabled()) {
        const obs::BucketSet& b = r.breakdown.aggregate;
        os << ", \"breakdown_seconds\": {\"compute\": "
           << sim::toSeconds(b.compute)
           << ", \"barrier_wait\": " << sim::toSeconds(b.barrier_wait)
           << ", \"acquire_wait\": " << sim::toSeconds(b.acquire_wait)
           << ", \"fault_diff\": " << sim::toSeconds(b.fault_diff)
           << ", \"idle\": " << sim::toSeconds(b.idle) << "}";
      }
      if (r.critpath.enabled()) {
        // Critical-path attribution: the buckets partition the cell's
        // makespan exactly, so these sum to sim_seconds.
        const auto& cat = r.critpath.by_cat;
        os << ", \"critpath_seconds\": {";
        for (int c = 0; c < obs::kPathCatCount; ++c) {
          os << (c ? ", " : "") << "\"" << obs::kPathCatName[c]
             << "\": " << sim::toSeconds(cat[c]);
        }
        os << "}";
      }
      if (r.metrics.enabled()) {
        // Protocol memory footprint and network utilization. Peaks are
        // max-over-nodes high-water marks; utilization is busy time over
        // total link-direction-time (see obs::MetricsSummary). The MPI
        // reference cells are unmetered, so these keys are absent there.
        os << ", \"peak_twin_bytes\": "
           << r.metrics.maxPeak(obs::Metric::kTwinBytes)
           << ", \"peak_diff_bytes\": "
           << r.metrics.maxPeak(obs::Metric::kDiffStoreBytes)
           << ", \"mean_link_utilization\": "
           << r.metrics.meanLinkUtilization();
      }
      os << "}" << (i + 1 < specs[s].cells.size() ? "," : "") << "\n";
    }
    os << "    ]}" << (s + 1 < specs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int tableMain(const TableSpec& spec, const Options& o) {
  SpecRun run = runSpec(spec, o.jobs);
  spec.print(std::cout, run.results);
  if (o.breakdown) {
    for (size_t i = 0; i < spec.cells.size(); ++i)
      if (run.results[i].breakdown.enabled())
        obs::printBreakdown(std::cout, run.results[i].breakdown,
                            "Time breakdown: " + spec.cells[i].id);
  }
  if (o.critpath) {
    for (size_t i = 0; i < spec.cells.size(); ++i)
      if (run.results[i].critpath.enabled())
        obs::printCriticalPath(std::cout, run.results[i].critpath,
                               "Critical path: " + spec.cells[i].id);
  }
  if (o.pageheat) {
    for (size_t i = 0; i < spec.cells.size(); ++i)
      if (run.results[i].pageheat.enabled())
        obs::printPageHeat(std::cout, run.results[i].pageheat,
                           "Page contention: " + spec.cells[i].id);
  }
  if (o.diagnose) {
    for (size_t i = 0; i < spec.cells.size(); ++i)
      if (run.results[i].diagnosis.enabled())
        obs::printDiagnosis(std::cout, run.results[i].diagnosis,
                            "Diagnosis: " + spec.cells[i].id);
  }
  try {
    if (!o.profile_dir.empty())
      writeCellProfiles(o.profile_dir, {spec}, {run}, std::cerr);
    if (!o.compare_dir.empty())
      compareCellProfiles(o.compare_dir, {spec}, {run}, std::cout,
                          std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (!o.json.empty()) {
    std::ofstream f(o.json);
    if (!f) {
      std::cerr << "cannot write " << o.json << "\n";
      return 1;
    }
    writeTablesJson(f, {spec}, {run}, o, harness::resolveJobs(o.jobs),
                    run.wall_seconds, /*serial_wall_seconds=*/0);
  }
  return 0;
}

}  // namespace vodsm::bench
