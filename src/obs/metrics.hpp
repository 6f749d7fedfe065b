// Per-node counters and gauges sampled on the simulated clock.
//
// Where obs/trace.hpp answers "what happened and when", the MetricsRegistry
// answers "how much protocol state existed over time": live twin bytes,
// stored diff bytes, pending write notices, NIC queue occupancy, link busy
// time, held views. The same observation invariant applies, and is asserted
// in tests/test_obs.cpp:
//
//  * Zero effect on simulated results. Instrumentation sites only *read*
//    values the run already computed (deltas and timestamps it had in hand);
//    recording never charges simulated time. The fixed-interval sampler runs
//    as engine events, but its callbacks are read-only with respect to all
//    simulated state (clocks, RNG, queues), so a metered run is bit-identical
//    to an unmetered one.
//  * Near-zero overhead when disabled: every site guards on a runtime-checked
//    registry pointer (`if (auto* m = ctx.metrics) ...`).
//  * No formatting on the hot path. add() updates a small per-(node, metric)
//    accumulator; names and units live in a static table used only at export.
//
// Two recording granularities coexist:
//  * On-change accounting is always on: every add() maintains the current
//    value, the high-water mark (peak + its timestamp), and the time-weighted
//    integral used for means. This is what the bench tables consume
//    (peak_twin_bytes etc.) and costs no engine events at all.
//  * The fixed-interval sampler (startSampling with interval > 0) snapshots
//    every live series into a long-format time-series row when its value
//    changed since the last tick. Consumers: --metrics-csv and the Perfetto
//    counter tracks.
//
// Timestamps come from whatever clock the instrumented layer already uses:
// node-local clocks for dsm/vopp sites, engine time for network sites. A
// series mixes domains only in rare handler-vs-program cases; add() clamps
// backward timestamps so integrals stay well-defined (peaks are exact either
// way).
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace vodsm::obs {

// Metric identity. Grouped by the instrumented layer; the dotted names in
// kMetricInfo mirror the grouping.
enum class Metric : uint8_t {
  // dsm: protocol memory footprint (lrc.cpp, vc.cpp, runtime.hpp)
  kTwinBytes = 0,     // gauge: live twin pages * page size
  kDiffStoreBytes,    // gauge: retained diff log, wire-encoded bytes
  kDiffStoreCount,    // gauge: retained diff log, entry count
  kPendingNotices,    // gauge: write notices awaiting a fault
  kDiffsCreated,      // counter: diffs produced at release/interval close
  kDiffsApplied,      // counter: diffs merged into pages
  kTwinReclaimBytes,  // counter: twin bytes freed at release/interval close
  kDiffReclaimBytes,  // counter: stored diff bytes freed by home-side GC
  // net: link and queue occupancy (network.hpp)
  kRxQueueFrames,   // gauge: NIC receive queue depth
  kRxQueueBytes,    // gauge: NIC receive queue bytes
  kInflightBytes,   // gauge: frame bytes between send and delivery/drop
  kUplinkBusyNs,    // counter: cumulative uplink serialization time
  kDownlinkBusyNs,  // counter: cumulative downlink serialization time
  kFrameDrops,      // counter: frames lost (random loss + NIC overflow)
  // vopp: synchronization state (cluster.hpp)
  kHeldViews,         // gauge: views (read or write) currently held
  kHeldLocks,         // gauge: locks currently held
  kBlockedAtBarrier,  // gauge: 1 while the node waits at a barrier
  kMetricCount,
};
inline constexpr size_t kMetricCount =
    static_cast<size_t>(Metric::kMetricCount);

enum class MetricKind : uint8_t { kGauge = 0, kCounter = 1 };

// Export-time metadata; never consulted by add().
struct MetricInfo {
  const char* name;  // dotted, stable: "<layer>.<what>"
  MetricKind kind;
  const char* unit;
};

inline constexpr MetricInfo kMetricInfo[kMetricCount] = {
    {"dsm.twin_bytes", MetricKind::kGauge, "bytes"},
    {"dsm.diff_store_bytes", MetricKind::kGauge, "bytes"},
    {"dsm.diff_store_count", MetricKind::kGauge, "diffs"},
    {"dsm.pending_notices", MetricKind::kGauge, "notices"},
    {"dsm.diffs_created", MetricKind::kCounter, "diffs"},
    {"dsm.diffs_applied", MetricKind::kCounter, "diffs"},
    {"dsm.twin_reclaim_bytes", MetricKind::kCounter, "bytes"},
    {"dsm.diff_reclaim_bytes", MetricKind::kCounter, "bytes"},
    {"net.rx_queue_frames", MetricKind::kGauge, "frames"},
    {"net.rx_queue_bytes", MetricKind::kGauge, "bytes"},
    {"net.inflight_bytes", MetricKind::kGauge, "bytes"},
    {"net.uplink_busy_ns", MetricKind::kCounter, "ns"},
    {"net.downlink_busy_ns", MetricKind::kCounter, "ns"},
    {"net.frame_drops", MetricKind::kCounter, "frames"},
    {"vopp.held_views", MetricKind::kGauge, "views"},
    {"vopp.held_locks", MetricKind::kGauge, "locks"},
    {"vopp.blocked_at_barrier", MetricKind::kGauge, "procs"},
};

inline const MetricInfo& metricInfo(Metric m) {
  return kMetricInfo[static_cast<size_t>(m)];
}

// One long-format time-series row: "at simulated time ts, node's metric had
// this value". Emitted by the sampler (change-deduplicated per series) plus
// one final row per live series at run finish.
struct MetricSample {
  sim::Time ts = 0;
  uint32_t node = 0;
  Metric metric = Metric::kTwinBytes;
  int64_t value = 0;
};

// Per-(node, metric) aggregate available after the run.
struct MetricSummaryRow {
  uint32_t node = 0;
  Metric metric = Metric::kTwinBytes;
  int64_t peak = 0;
  sim::Time peak_ts = 0;
  int64_t final_value = 0;
  double mean = 0;  // time-weighted over [0, finish]
};

struct MetricsSummary {
  bool on = false;
  int nprocs = 0;
  sim::Time finish = 0;
  // Only series that were ever touched, sorted by (metric, node).
  std::vector<MetricSummaryRow> rows;

  bool enabled() const { return on; }
  // Max peak across nodes; 0 when no node touched the metric.
  int64_t maxPeak(Metric m) const;
  // Sum of final values across nodes (the natural total for counters).
  int64_t totalFinal(Metric m) const;
  // Busy time summed over both directions of every link, divided by total
  // link-direction-time 2 * nprocs * finish. In [0, 1] for any run.
  double meanLinkUtilization() const;
};

class MetricsRegistry {
 public:
  // interval == 0 keeps on-change accounting (peaks, finals, means) but
  // schedules no sampler events and records no time series.
  explicit MetricsRegistry(sim::Time sample_interval = 0)
      : interval_(sample_interval) {}

  sim::Time sampleInterval() const { return interval_; }

  // Apply a delta to one series. `ts` is the simulated time the change
  // happened at, in whatever clock domain the caller's layer runs on.
  void add(uint32_t node, Metric m, int64_t delta, sim::Time ts) {
    if (node >= nodes_.size()) nodes_.resize(static_cast<size_t>(node) + 1);
    Series& s = nodes_[node][static_cast<size_t>(m)];
    if (ts > s.last_ts) {
      s.area += static_cast<__int128>(s.value) *
                static_cast<__int128>(ts - s.last_ts);
      s.last_ts = ts;
    }
    s.value += delta;
    s.touched = true;
    if (s.value > s.peak) {
      s.peak = s.value;
      s.peak_ts = s.last_ts;
    }
  }

  int64_t value(uint32_t node, Metric m) const {
    if (node >= nodes_.size()) return 0;
    return nodes_[node][static_cast<size_t>(m)].value;
  }

  // Begin the fixed-interval sampler (no-op when interval == 0). The tick
  // callback snapshots changed series and reschedules itself only while the
  // engine has real work pending, so it never keeps the run alive on its
  // own and the engine drains exactly as it would unmetered.
  void startSampling(sim::Engine& engine);

  // Called once after the engine drains: extends every integral to the
  // finish time and appends a final time-series row per live series.
  void closeRun(int nprocs, sim::Time finish);

  const std::vector<MetricSample>& samples() const { return samples_; }

  // Aggregate view; valid after closeRun().
  MetricsSummary summary() const;

 private:
  struct Series {
    int64_t value = 0;
    int64_t peak = 0;
    sim::Time peak_ts = 0;
    sim::Time last_ts = 0;
    __int128 area = 0;  // integral of value over time, for means
    int64_t last_sampled = 0;
    bool sampled_once = false;
    bool touched = false;
  };

  void sampleTick(sim::Engine& engine);
  void snapshot(sim::Time ts, bool force);

  sim::Time interval_;
  std::vector<std::array<Series, kMetricCount>> nodes_;
  std::vector<MetricSample> samples_;
  int nprocs_ = 0;
  sim::Time finish_ = 0;
  bool closed_ = false;
};

// Long-format CSV of the sampled time series: t_seconds,node,metric,value.
// Deterministic for a given run (pure function of the sample list).
void writeMetricsCsv(std::ostream& os, const MetricsRegistry& reg);

// Fixed-width summary table: peak (with owning node and time), end-of-run
// total, and time-weighted mean per metric.
void printMemstats(std::ostream& os, const MetricsSummary& s,
                   const std::string& title);

}  // namespace vodsm::obs
