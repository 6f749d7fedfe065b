// Automated "why is this run slow" diagnosis over the observability stack.
//
// A Diagnoser runs a catalog of composable analysis passes (PerFlow-style)
// over the artifacts the obs layer already reconstructs — the run DAG
// (obs/graph.hpp), the exact critical path, the five-bucket breakdown, the
// page-heat fold, and the metrics summary — and emits ranked Finding
// records: what pattern was detected, how much of the makespan it explains,
// where it lives (node / link / id / barrier episode / time window), the
// evidence behind the claim, and a remediation hint.
//
// Contracts, asserted in tests/test_diagnose.cpp:
//  * Pure post-processing: diagnosing a run never touches simulated state,
//    so a diagnosed run is bit-identical to an undiagnosed one.
//  * Deterministic output: every pass iterates ordered containers and the
//    final ranking breaks severity ties by category then location, so the
//    text and JSON reports are byte-identical across --jobs values.
//  * Root causes outrank symptoms: on an injected-fault run the top-ranked
//    finding names the injected fault class and its location. Detector
//    severities are calibrated for this — e.g. the hotspot summarizer
//    scores compute slices by their *excess* over a uniform share so a
//    straggler's own compute never outranks the straggler finding.
//
// Layering: vodsm_obs sits below net and dsm, so passes that need
// network-config or message-class knowledge receive it through the plain
// std::function hooks on DiagnosisInput (wired by the vopp layer); null
// hooks degrade those detectors gracefully instead of breaking the build
// layering.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/page_heat.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace vodsm::obs {

// Finding categories. Enum order is the ranking tie-break (lower wins), so
// injected-fault root causes come before generic communication patterns,
// which come before the catch-all critical-path hotspot.
enum class FindingCat : uint8_t {
  kPartition = 0,
  kStraggler,
  kDegradedLink,
  kRetransmitStorm,
  // A multi-switch trunk link whose serialization kept it busy for a large
  // fraction of the run (passes/trunk.cpp; star topologies have no trunks).
  kTrunkSaturation,
  kGrantStorm,
  kAllToAllDiff,
  kLoadImbalance,
  kDiffStoreGrowth,
  kHotspot,
  // Page-granular refinement of a barrier-imbalance finding: which pages
  // the slow node was stalled on inside the gap (passes/page_imbalance.cpp).
  kPageImbalance,
  // Differential categories, emitted only by obs::diffProfiles
  // (profile_diff.hpp) when explaining the makespan delta between two run
  // profiles — never by the single-run passes. Order encodes the same
  // root-cause-over-symptom rule: a detected transfer shift outranks the
  // per-category deltas it manifests as, which outrank the secondary
  // episode/page/wire attributions.
  kTransferShift,
  kPathDelta,
  kEpisodeDelta,
  kPageDelta,
  kNetDelta,
  kMetricDelta,
  kStructureDelta,
  kFindingCatCount,
};
inline constexpr int kFindingCatCount =
    static_cast<int>(FindingCat::kFindingCatCount);
inline constexpr const char* kFindingCatName[kFindingCatCount] = {
    "partition",       "straggler",
    "degraded_link",   "retransmission_storm",
    "trunk_saturation", "grant_storm",
    "all_to_all_diff", "load_imbalance",
    "diff_store_growth", "critical_path_hotspot",
    "page_imbalance",
    "transfer_shift",  "critical_path_delta",
    "episode_delta",   "page_heat_delta",
    "net_delta",       "metric_delta",
    "structure_delta",
};

inline const char* findingCatName(FindingCat c) {
  return kFindingCatName[static_cast<int>(c)];
}

// One scored diagnosis record. `severity` is the fraction of the run's
// makespan the detected pattern explains, clamped to [0, 1]; machine
// location fields are -1 when not applicable.
struct Finding {
  FindingCat cat = FindingCat::kHotspot;
  double severity = 0;          // fraction of makespan explained
  std::string location;         // human-readable: node / link / id / window
  int64_t node = -1;            // machine location: node id
  int64_t id = -1;              // machine location: page/lock/view/barrier
  sim::Time window_begin = -1;  // machine location: time window
  sim::Time window_end = -1;
  std::string evidence;  // why the detector believes this
  std::string remedy;    // what to try about it
};

struct Diagnosis {
  bool on = false;
  sim::Time makespan = 0;
  int nprocs = 0;
  std::vector<Finding> findings;  // ranked: severity desc, cat, location

  bool enabled() const { return on; }
  const Finding* top() const {
    return findings.empty() ? nullptr : &findings.front();
  }
};

// Wire message classes, mirroring net::MsgClass order so the vopp layer can
// wire `DiagnosisInput::classify` with a plain cast (asserted where wired).
enum class WireClass : uint8_t {
  kAcquire = 0,
  kGrant,
  kRelease,
  kDiffRequest,
  kDiffReply,
  kBarrier,
  kData,
  kOther,
};

// One inter-switch trunk's utilization, mirrored from
// net::Network::TrunkUse by the vopp layer (obs sits below net, so this is
// a plain copy, not a dependency). Empty on single-switch topologies.
struct TrunkUtilization {
  int leaf = 0;
  int spine = 0;
  bool up = false;  // leaf -> spine direction (false: spine -> leaf)
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  sim::Time busy = 0;  // total serialization time on the trunk
};

// Everything a pass may consume. `trace` and `graph` are required; the
// analysis folds are optional (null disables the passes that need them).
struct DiagnosisInput {
  const TraceRecorder* trace = nullptr;
  const EventGraph* graph = nullptr;
  const CriticalPath* critpath = nullptr;
  const Breakdown* breakdown = nullptr;
  const PageHeat* pageheat = nullptr;
  const MetricsSummary* metrics = nullptr;
  int nprocs = 0;
  sim::Time finish = 0;
  // Classifies a kSend event's a0 (wire message type) into a WireClass.
  std::function<WireClass(uint64_t)> classify;
  // Undegraded serialization time of a frame of `bytes` total bytes
  // (net::NetConfig::txTime on the run's config).
  std::function<sim::Time(uint64_t)> tx_time;
  // Multi-switch trunk utilization (empty on the star).
  std::vector<TrunkUtilization> trunks;
};

// One analysis pass: reads the input, appends zero or more findings.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual void run(const DiagnosisInput& in,
                   std::vector<Finding>& out) const = 0;
};

// Runs a pass catalog and ranks the merged findings. Constructed with the
// default catalog (see src/obs/passes/); addPass() appends custom passes.
class Diagnoser {
 public:
  Diagnoser();  // default catalog
  explicit Diagnoser(bool with_default_catalog);

  void addPass(std::unique_ptr<Pass> pass);
  size_t passCount() const { return passes_.size(); }

  Diagnosis run(const DiagnosisInput& in) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// Convenience entry point: builds graph, critical path, breakdown, and page
// heat from the trace, then runs the default catalog. `metrics` may be
// null; `classify` / `tx_time` may be empty (see DiagnosisInput).
Diagnosis diagnose(const TraceRecorder& trace, int nprocs, sim::Time finish,
                   const MetricsSummary* metrics = nullptr,
                   std::function<WireClass(uint64_t)> classify = {},
                   std::function<sim::Time(uint64_t)> tx_time = {},
                   std::vector<TrunkUtilization> trunks = {});

// Renders the ranked findings as a fixed-width report with evidence and
// remediation lines. Deterministic: fixed precision, no host state.
void printDiagnosis(std::ostream& os, const Diagnosis& d,
                    const std::string& title);

// Machine-readable report. Hand-written fixed-precision JSON (the support
// Json class is a parser, not a writer); parses back via support/json.hpp.
void writeDiagnosisJson(std::ostream& os, const Diagnosis& d);

}  // namespace vodsm::obs
