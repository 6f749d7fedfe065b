// Whole-suite driver: every cell of the paper's nine evaluation tables
// (Tables 1-9) executed through the parallel experiment runner, then
// printed in table order and recorded to BENCH_tables.json.
//
// All ~120 cells across all tables are flattened into one work list and
// sharded over host threads, so the tail cells of one table overlap the
// next table's — the sweep's wall-clock is bounded by total work / cores,
// not by the slowest table. Results are collected in submission order, so
// stdout is byte-identical to running the nine binaries serially.
//
//   table_suite                      # all tables, all cores
//   table_suite --jobs=1             # serial fallback
//   table_suite --compare-serial     # also measure the serial sweep and
//                                    # record speedup in the JSON
//   table_suite --json=out.json      # default: BENCH_tables.json
//   table_suite --screen=model.json  # analytic screen: skip cells the
//                                    # fitted model predicts within
//                                    # --screen-tol (default 10%)
#include <chrono>
#include <fstream>
#include <iostream>

#include "bench/tables.hpp"
#include "harness/parallel_runner.hpp"

int main(int argc, char** argv) {
  using namespace vodsm;
  using Clock = std::chrono::steady_clock;
  auto opts = bench::parseArgs(argc, argv);
  if (opts.json.empty()) opts.json = "BENCH_tables.json";
  // The suite always traces and meters: BENCH_tables.json carries a
  // per-cell time breakdown, critical-path attribution and memory/
  // utilization metrics, and neither tracing nor metering can perturb
  // the simulated results.
  opts.breakdown = true;
  opts.critpath = true;
  opts.metrics = true;
  const int jobs = harness::resolveJobs(opts.jobs);

  auto specs = bench::allTableSpecs(opts);

  if (!opts.screen.empty()) {
    // Replace model-predicted cells' runs with their predictions before
    // flattening; every skip is logged with the predicted value and the
    // model term it came from. Non-screened cells are untouched, so their
    // simulated fields stay byte-identical to a screen-free sweep.
    try {
      const int skipped =
          bench::applyScreen(specs, opts.screen, opts.screen_tol, std::cerr);
      std::cerr << "table_suite: screen " << opts.screen << " skipped "
                << skipped << " cells (tol "
                << static_cast<int>(opts.screen_tol * 100) << "%)\n";
    } catch (const std::exception& e) {
      std::cerr << "table_suite: " << e.what() << "\n";
      return 2;
    }
  }

  // Flatten every table's cells into one global sweep.
  struct Slot {
    size_t spec;
    size_t cell;
  };
  std::vector<Slot> slots;
  for (size_t s = 0; s < specs.size(); ++s)
    for (size_t c = 0; c < specs[s].cells.size(); ++c)
      slots.push_back({s, c});

  auto sweep = [&](int sweep_jobs) {
    std::vector<bench::SpecRun> runs(specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
      runs[s].results.resize(specs[s].cells.size());
      runs[s].cell_host_seconds.resize(specs[s].cells.size(), 0.0);
    }
    const auto t0 = Clock::now();
    harness::ParallelRunner(sweep_jobs).forEach(slots.size(), [&](size_t i) {
      const auto [s, c] = slots[i];
      const auto c0 = Clock::now();
      runs[s].results[c] = specs[s].cells[c].run();
      runs[s].cell_host_seconds[c] =
          std::chrono::duration<double>(Clock::now() - c0).count();
    });
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    for (auto& r : runs) r.wall_seconds = wall;  // one shared sweep
    return std::pair(std::move(runs), wall);
  };

  std::cerr << "table_suite: " << slots.size() << " cells across "
            << specs.size() << " tables, jobs=" << jobs << "\n";
  auto [runs, wall] = sweep(jobs);

  double serial_wall = 0;
  if (opts.compare_serial && jobs > 1) {
    std::cerr << "table_suite: re-running serially for comparison...\n";
    serial_wall = sweep(1).second;
  }

  for (size_t s = 0; s < specs.size(); ++s)
    specs[s].print(std::cout, runs[s].results);

  // Persisted per-cell run profiles and differential reports against a
  // baseline profile directory (see obs/profile.hpp, obs/profile_diff.hpp).
  // Both are pure post-processing over the sweep's traces.
  try {
    if (!opts.profile_dir.empty())
      bench::writeCellProfiles(opts.profile_dir, specs, runs, std::cerr);
    if (!opts.compare_dir.empty())
      bench::compareCellProfiles(opts.compare_dir, specs, runs, std::cout,
                                 std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "table_suite: " << e.what() << "\n";
    return 1;
  }

  std::ofstream f(opts.json);
  if (!f) {
    std::cerr << "cannot write " << opts.json << "\n";
    return 1;
  }
  bench::writeTablesJson(f, specs, runs, opts, jobs, wall, serial_wall);
  std::cerr << "table_suite: sweep took " << wall << " s";
  if (serial_wall > 0)
    std::cerr << " (serial: " << serial_wall
              << " s, speedup: " << serial_wall / wall << "x)";
  std::cerr << "; wrote " << opts.json << "\n";
  return 0;
}
