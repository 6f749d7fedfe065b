// Workload cells of the host benchmark: which simulations each workload
// runs, how a cell is run through the apps layer, and how its output is
// checked against the app's serial reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "harness/run.hpp"

namespace perfbench {

enum class App { kIs, kGauss };

// One independent simulation: an app, its variant, its inputs and the
// cluster it runs on. `id` is the cell's id in the committed BENCH_*.json.
struct CellDef {
  std::string id;
  App app = App::kIs;
  int variant = 0;  // the app's *Variant enum value
  vodsm::harness::RunConfig config;
  vodsm::apps::IsParams is;
  vodsm::apps::GaussParams gauss;
};

struct Workload {
  std::string name;
  std::vector<CellDef> cells;
};

// The cells of a named workload with inputs drawn from `seed`; seed 0 gives
// the inputs of the committed baselines. Throws vodsm::Error on an unknown
// name.
Workload makeWorkload(const std::string& name, uint64_t seed);

// What a cell's program computed, in the form its serial reference takes:
// IS rank sums or the Gauss checksum.
struct Answer {
  std::vector<int64_t> rank_sums;
  double checksum = 0;
  bool operator==(const Answer&) const = default;
};

// Cells that share a key share one serial reference.
std::string referenceKey(const CellDef& cell);
Answer serialReference(const CellDef& cell);

struct CellRun {
  vodsm::harness::RunResult result;
  Answer answer;
};

// Runs the cell's app under `config` (the cell's own config with observers
// attached by the caller).
CellRun runCell(const CellDef& cell, const vodsm::harness::RunConfig& config);

}  // namespace perfbench
