// One workload process of the VODSM host benchmark (perfbench/run.py starts
// it and reads the JSON object on its last stdout line).
//
//   vodsm_perfbench --workload=NAME --seed=N --mode=setup|run|traced
//                   [--spans=FILE]
//
// setup   computes the serial references and stops where the first
//         simulated cell would start.
// run     also runs the workload's cells as its users run them, checks
//         every cell against its serial reference, and reports host and
//         simulated time.
// traced  as run, but with an obs::TraceRecorder and obs::MetricsRegistry
//         in every RunConfig; times the obs analyses as direct calls;
//         replays the workload's message and diff mix through sim, net and
//         mem; and reports the per-layer counts and costs.
//
// The process records its own spans around every call into a layer and,
// with --spans, writes them out when it ends. The program itself is not
// instrumented.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cells.hpp"
#include "harness/parallel_runner.hpp"
#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/page_heat.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "support/json_writer.hpp"

namespace perfbench {
namespace {

using namespace vodsm;
using Clock = std::chrono::steady_clock;

// Seconds on the monotonic clock, comparable with the parent's
// time.monotonic() on Linux (both read CLOCK_MONOTONIC).
double now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// --- spans --------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::string name;
    int cell = -1;    // workload cell the span belongs to; -1 for none
    int parent = -1;  // index of the enclosing span; -1 for a root
    double start = 0;
    double end = 0;
  };

  int open(std::string name, int cell, int parent) {
    std::lock_guard<std::mutex> g(mu_);
    spans_.push_back(Span{std::move(name), cell, parent, now(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  // Closes span `id` and returns its duration in seconds.
  double close(int id) {
    const double t = now();
    std::lock_guard<std::mutex> g(mu_);
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = t;
    return s.end - s.start;
  }
  void write(std::ostream& os) const {
    std::lock_guard<std::mutex> g(mu_);
    support::JsonWriter w(os);
    w.beginObject().key("spans").beginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.beginObject()
          .key("id").value(static_cast<int>(i))
          .key("name").value(s.name)
          .key("cell").value(s.cell)
          .key("parent").value(s.parent)
          .key("start").value(s.start, "%.9f")
          .key("end").value(s.end, "%.9f")
          .endObject();
    }
    w.endArray().endObject();
    os << "\n";
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

// Times one call into a layer as a span; returns its duration in seconds.
template <typename F>
double timed(const std::string& name, int cell, int parent, F&& f) {
  const int id = g_spans.open(name, cell, parent);
  try {
    f();
  } catch (...) {
    g_spans.close(id);
    throw;
  }
  return g_spans.close(id);
}

// --- minimal JSON output ------------------------------------------------

std::string quoted(const std::string& s) {
  return "\"" + support::jsonEscape(s) + "\"";
}

// One-line JSON object: the result must be the last line of stdout.
class Obj {
 public:
  Obj& add(const std::string& k, const std::string& raw) {
    s_ += (s_.empty() ? "" : ", ") + quoted(k) + ": " + raw;
    return *this;
  }
  Obj& add(const std::string& k, double v) {
    return add(k, support::jsonNumber(v));
  }
  Obj& add(const std::string& k, uint64_t v) {
    return add(k, std::to_string(v));
  }
  Obj& add(const std::string& k, int v) { return add(k, std::to_string(v)); }
  Obj& add(const std::string& k, bool v) {
    return add(k, std::string(v ? "true" : "false"));
  }
  Obj& str(const std::string& k, const std::string& v) {
    return add(k, quoted(v));
  }
  std::string done() const { return "{" + s_ + "}"; }

 private:
  std::string s_;
};

// --- host record --------------------------------------------------------

#if defined(__clang_version__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__VERSION__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

uint64_t memTotalKb() {
  std::ifstream f("/proc/meminfo");
  std::string key;
  uint64_t kb = 0;
  while (f >> key >> kb) {
    if (key == "MemTotal:") return kb;
    f.ignore(256, '\n');
  }
  return 0;
}

std::string hostRecord() {
  return Obj()
      .add("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .add("mem_total_mb", static_cast<double>(memTotalKb()) / 1024.0)
      .str("compiler", kCompiler)
      .str("build_type", VODSM_PERFBENCH_BUILD_TYPE)
      .done();
}

// --- sweeps -------------------------------------------------------------

// What a traced cell's recorder, registry and analyses showed.
struct Observed {
  uint64_t engine_events = 0;
  uint64_t trace_events = 0;
  uint64_t twins = 0;
  uint64_t diff_pages = 0;
  uint64_t diff_bytes = 0;
  int64_t peak_twin_bytes = 0;
  int64_t peak_diff_bytes = 0;
  obs::BucketSet buckets;
  double breakdown_s = 0;
  double critpath_s = 0;
  double pageheat_s = 0;
  double profile_s = 0;
  LayerMix mix;
};

struct Outcome {
  bool ok = false;
  std::string error;
  double cell_s = 0;  // the whole cell: run, check and analyses
  double run_s = 0;   // inside apps::run*
  double sim_seconds = 0;
  dsm::DsmStats dsm;
  net::NetStats net;
  Observed seen;
};

void scanTrace(const obs::TraceRecorder& rec, Observed& o) {
  o.trace_events = rec.size();
  for (const obs::Event& e : rec.events()) {
    switch (e.cat) {
      case obs::Cat::kEngineRun:
        if (e.phase == obs::Phase::kEnd) o.engine_events += e.a0;
        break;
      case obs::Cat::kTwin:
        ++o.twins;
        break;
      case obs::Cat::kDiffCreate:
        if (e.phase == obs::Phase::kEnd && e.a0 > 0) {
          o.diff_pages += e.a0;
          o.diff_bytes += e.a1;
          o.mix.diff_bytes[e.a1 / e.a0] += e.a0;
        }
        break;
      case obs::Cat::kSend:
        if (e.a0 != 0) o.mix.msg_bytes[e.a1]++;  // type 0 is a pure ack
        break;
      default:
        break;
    }
  }
}

void analyse(const CellDef& cell, const obs::TraceRecorder& rec,
             const harness::RunResult& r, int cell_idx, int parent,
             Observed& o) {
  scanTrace(rec, o);
  o.mix.nodes = cell.config.nprocs;
  o.peak_twin_bytes = r.metrics.maxPeak(obs::Metric::kTwinBytes);
  o.peak_diff_bytes = r.metrics.maxPeak(obs::Metric::kDiffStoreBytes);
  o.buckets = r.breakdown.aggregate;
  if (!r.breakdown.enabled()) return;  // runners that record no spans
  const int n = cell.config.nprocs;
  const sim::Time finish = r.breakdown.run_time;
  o.breakdown_s = timed("obs.breakdown", cell_idx, parent, [&] {
    (void)obs::foldBreakdown(rec, n, finish);
  });
  o.critpath_s = timed("obs.critpath", cell_idx, parent, [&] {
    (void)obs::computeCriticalPath(rec, n, finish);
  });
  o.pageheat_s = timed("obs.pageheat", cell_idx, parent,
                       [&] { (void)obs::foldPageHeat(rec); });
  o.profile_s = timed("obs.profile", cell_idx, parent, [&] {
    (void)obs::buildRunProfile(rec, n, finish,
                               r.metrics.enabled() ? &r.metrics : nullptr);
  });
}

struct Sweep {
  std::vector<Outcome> cells;
  double wall_s = 0;  // first cell start -> last cell checked
};

Sweep sweep(const Workload& w, const std::map<std::string, Answer>& refs,
            bool traced) {
  Sweep s;
  s.cells.resize(w.cells.size());
  const int root = g_spans.open(
      traced ? "harness.sweep.traced" : "harness.sweep.run", -1, -1);
  harness::ParallelRunner(1).forEach(w.cells.size(), [&](size_t i) {
    const CellDef& cell = w.cells[i];
    Outcome& out = s.cells[i];
    const int ci = static_cast<int>(i);
    const int span = g_spans.open("harness.cell", ci, root);
    try {
      obs::TraceRecorder rec;
      obs::MetricsRegistry mets;
      harness::RunConfig cfg = cell.config;
      if (traced) {
        cfg.trace = &rec;
        cfg.metrics = &mets;
      }
      CellRun run;
      out.run_s = timed("vopp.run", ci, span,
                        [&] { run = runCell(cell, cfg); });
      out.sim_seconds = run.result.seconds;
      out.dsm = run.result.dsm;
      out.net = run.result.net;
      timed("apps.check", ci, span, [&] {
        out.ok = run.answer == refs.at(referenceKey(cell));
      });
      if (!out.ok)
        out.error = cell.id + ": result does not match the serial reference";
      if (traced) analyse(cell, rec, run.result, ci, span, out.seen);
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = cell.id + ": " + e.what();
    }
    out.cell_s = g_spans.close(span);
  });
  s.wall_s = g_spans.close(root);
  return s;
}

// --- reports ------------------------------------------------------------

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double run_s = 0;
  double sim_s = 0;
  double busy_s = 0;
  double max_cell_s = 0;
  std::string cells_json;
  std::string errors_json;
};

Totals totals(const Workload& w, const Sweep& s) {
  Totals t;
  for (size_t i = 0; i < s.cells.size(); ++i) {
    const Outcome& o = s.cells[i];
    ++t.attempted;
    if (!o.ok) {
      ++t.failed;
      t.errors_json += (t.errors_json.empty() ? "" : ", ") + quoted(o.error);
    }
    t.run_s += o.run_s;
    t.sim_s += o.sim_seconds;
    t.busy_s += o.cell_s;
    t.max_cell_s = std::max(t.max_cell_s, o.cell_s);
    t.cells_json += (i ? ", " : "") +
                    Obj().str("id", w.cells[i].id)
                        .add("ok", o.ok)
                        .add("sim_seconds", o.sim_seconds)
                        .add("messages", o.net.messages)
                        .add("payload_bytes", o.net.payload_bytes)
                        .done();
  }
  return t;
}

void addSweep(Obj& out, const Totals& t) {
  out.add("attempted", t.attempted)
      .add("failed", t.failed)
      .add("errors", "[" + t.errors_json + "]")
      .add("run_s", t.run_s)
      .add("sim_s", t.sim_s)
      .add("cells", "[" + t.cells_json + "]");
}

// Per-layer counts (exact, repeat run to run) and host costs of a traced
// sweep. The caller divides the replay costs by an untraced sweep's
// apps::run* time, measured in a fresh process of its own.
void addLayers(Obj& out, const Workload& w, const Sweep& traced,
               uint64_t seed) {
  const Totals tt = totals(w, traced);
  Observed all;
  dsm::DsmStats dsm;
  net::NetStats net;
  for (const Outcome& o : traced.cells) {
    const Observed& s = o.seen;
    all.engine_events += s.engine_events;
    all.trace_events += s.trace_events;
    all.twins += s.twins;
    all.diff_pages += s.diff_pages;
    all.diff_bytes += s.diff_bytes;
    all.peak_twin_bytes = std::max(all.peak_twin_bytes, s.peak_twin_bytes);
    all.peak_diff_bytes = std::max(all.peak_diff_bytes, s.peak_diff_bytes);
    all.buckets.add(s.buckets);
    all.breakdown_s += s.breakdown_s;
    all.critpath_s += s.critpath_s;
    all.pageheat_s += s.pageheat_s;
    all.profile_s += s.profile_s;
    all.mix.merge(s.mix);
    dsm.add(o.dsm);
    net.add(o.net);
  }
  const double mb = 1e6;
  const uint64_t drops = net.frames_dropped_overflow +
                         net.frames_dropped_random + net.frames_dropped_fault;
  Obj counts;
  counts.add("sim.events", all.engine_events)
      .add("net.messages", net.messages)
      .add("net.frames", net.frames_sent)
      .add("net.payload_mb", static_cast<double>(net.payload_bytes) / mb)
      .add("net.wire_mb", static_cast<double>(net.wire_bytes) / mb)
      .add("net.goodput_ratio",
           net.wire_bytes ? static_cast<double>(net.payload_bytes) /
                                static_cast<double>(net.wire_bytes)
                          : 0.0)
      .add("net.retransmissions", net.retransmissions)
      .add("net.drops", drops)
      .add("mem.twins", all.twins)
      .add("mem.diffs_created", dsm.diffs_created)
      .add("mem.diffs_applied", dsm.diffs_applied)
      .add("mem.diff_pages", all.diff_pages)
      .add("mem.diff_mb", static_cast<double>(all.diff_bytes) / mb)
      .add("mem.peak_twin_mb", static_cast<double>(all.peak_twin_bytes) / mb)
      .add("mem.peak_diff_mb", static_cast<double>(all.peak_diff_bytes) / mb)
      .add("dsm.page_faults", dsm.page_faults)
      .add("dsm.diff_requests", dsm.diff_requests)
      .add("dsm.notices", dsm.notices_recorded)
      .add("dsm.acquires", dsm.acquires)
      .add("dsm.barriers", dsm.barriers)
      .add("dsm.barrier_wait_s", sim::toSeconds(all.buckets.barrier_wait))
      .add("dsm.acquire_wait_s", sim::toSeconds(all.buckets.acquire_wait))
      .add("dsm.fault_diff_s", sim::toSeconds(all.buckets.fault_diff))
      .add("obs.trace_events", all.trace_events)
      .add("obs.trace_mb",
           static_cast<double>(all.trace_events * sizeof(obs::Event)) / mb);
  out.add("counts", counts.done());

  // Replays: fixed amounts of work, so their cost per unit does not depend
  // on how much of it the workload did.
  constexpr uint64_t kReplayEvents = 2'000'000;
  constexpr uint64_t kReplayPages = 100'000;
  constexpr uint64_t kReplayMsgBytes = 256'000'000;
  uint64_t mix_msgs = 0, mix_bytes = 0;
  for (const auto& [bytes, n] : all.mix.msg_bytes) {
    mix_msgs += n;
    mix_bytes += bytes * n;
  }
  const double mean_msg = mix_msgs ? static_cast<double>(mix_bytes) /
                                         static_cast<double>(mix_msgs)
                                   : 1.0;
  const uint64_t replay_msgs = std::clamp<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(kReplayMsgBytes) /
                            std::max(mean_msg, 1.0)),
      2'000, 50'000);
  double ns_event = 0, ns_msg = 0;
  DiffCost diff;
  timed("sim.replay", -1, -1, [&] {
    ns_event = replayEngine(all.mix.nodes, kReplayEvents, seed);
  });
  timed("net.replay", -1, -1, [&] {
    ns_msg = replayNetwork(all.mix, replay_msgs, ns_event, seed);
  });
  timed("mem.replay", -1, -1,
        [&] { diff = replayDiffs(all.mix, kReplayPages, seed); });

  Obj timings;
  timings.add("sim.ns_per_event", ns_event)
      .add("net.ns_per_msg", ns_msg)
      .add("mem.ns_per_diff_create", diff.create_ns)
      .add("mem.ns_per_diff_apply", diff.apply_ns)
      .add("traced_run_s", tt.run_s)
      .add("obs.breakdown_s", all.breakdown_s)
      .add("obs.critpath_s", all.critpath_s)
      .add("obs.pageheat_s", all.pageheat_s)
      .add("obs.profile_s", all.profile_s)
      .add("harness.busy_ratio", tt.busy_s / traced.wall_s)
      .add("harness.max_cell_s", tt.max_cell_s);
  out.add("timings", timings.done());
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  std::string mode = "run";
  std::string spans;
};

int usage() {
  std::fprintf(stderr,
               "usage: vodsm_perfbench --workload=NAME --seed=N "
               "--mode=setup|run|traced [--spans=FILE]\n");
  return 2;
}

int runMain(const Args& a) {
  const Workload w = makeWorkload(a.workload, a.seed);

  // Setup: the serial references every cell is checked against.
  std::map<std::string, Answer> refs;
  const int setup = g_spans.open("apps.setup", -1, -1);
  for (size_t i = 0; i < w.cells.size(); ++i) {
    const std::string key = referenceKey(w.cells[i]);
    if (refs.count(key)) continue;
    timed("apps.reference", static_cast<int>(i), setup,
          [&] { refs[key] = serialReference(w.cells[i]); });
  }
  const double check_s = g_spans.close(setup);
  const double first_cell_at = now();

  Obj out;
  out.str("mode", a.mode)
      .str("workload", w.name)
      .add("seed", a.seed)
      .add("host", hostRecord())
      .add("first_cell_at", first_cell_at)
      .add("check_s", check_s);
  uint64_t failed = 0;
  if (a.mode != "setup") {
    const Sweep s = sweep(w, refs, a.mode == "traced");
    const Totals t = totals(w, s);
    addSweep(out.add("wall_s", s.wall_s), t);
    if (a.mode == "traced" && t.failed == 0) addLayers(out, w, s, a.seed);
    failed = t.failed;
  }
  if (!a.spans.empty()) {
    std::ofstream f(a.spans);
    g_spans.write(f);
  }
  std::printf("%s\n", out.done().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const size_t n = std::char_traits<char>::length(prefix);
      return s.compare(0, n, prefix) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = val("--workload=")) a.workload = v;
    else if (const char* v = val("--seed=")) a.seed = std::stoull(v);
    else if (const char* v = val("--mode=")) a.mode = v;
    else if (const char* v = val("--spans=")) a.spans = v;
    else return perfbench::usage();
  }
  if (a.workload.empty() ||
      (a.mode != "setup" && a.mode != "run" && a.mode != "traced"))
    return perfbench::usage();
  try {
    return perfbench::runMain(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vodsm_perfbench: %s\n", e.what());
    return 1;
  }
}
