// vodsm_run — command-line experiment runner.
//
// Run any of the paper's applications on any runtime with explicit
// parameters and get the paper-style statistics row:
//
//   vodsm_run --app=is    --runtime=vc_sd --procs=16 --variant=vopp
//   vodsm_run --app=gauss --runtime=lrc_d --procs=8 --variant=traditional
//   vodsm_run --app=nn    --runtime=mpi   --procs=32 --epochs=100
//   vodsm_run --app=sor   --runtime=vc_d  --rows=1024 --cols=1024 --iters=50
//
// Every run is checked against the serial reference; the tool exits
// non-zero on mismatch.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "apps/nn.hpp"
#include "apps/sor.hpp"
#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/page_heat.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"
#include "obs/profile_diff.hpp"
#include "support/table.hpp"

using namespace vodsm;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --app=is|gauss|sor|nn [options]\n"
      "  --runtime=lrc_d|vc_d|vc_sd|mpi   (default vc_sd; mpi is NN-only)\n"
      "  --variant=vopp|traditional|vopp_lb (default vopp)\n"
      "  --procs=N       processors (default 16)\n"
      "  --topology=SPEC cluster fabric: star (default), or\n"
      "                  fattree|leafspine[:leaf=N,spines=N,trunk-gbps=G,\n"
      "                  trunk-us=U] (multi-switch with contended trunks)\n"
      "  --barrier=central|tree|butterfly  barrier algorithm (default\n"
      "                  central, the paper's centralized manager)\n"
      "  --view-homes=default|hashed|migrate  view/lock directory sharding\n"
      "                  (default: id mod p; migrate moves VC view homes to\n"
      "                  their dominant writer)\n"
      "  --seed=N        simulation seed (default 42)\n"
      "  --trace=FILE    write a Chrome/Perfetto trace of the run\n"
      "  --breakdown     print per-node simulated-time breakdown\n"
      "  --netstats      print per-message-kind traffic breakdown\n"
      "  --critpath      print the run's critical-path attribution\n"
      "  --pageheat      print per-page contention table\n"
      "  --pageheat-csv=FILE  write the full per-page table as CSV\n"
      "  --diagnose[=FILE]  print the ranked why-is-this-run-slow report;\n"
      "                  with =FILE also write it as JSON\n"
      "  --profile=FILE  write the persisted run profile (byte-stable JSON\n"
      "                  summary: buckets, critical path, barrier episodes,\n"
      "                  page heat, metric peaks, wire counters)\n"
      "  --compare=BASE.profile.json  diff this run against a baseline\n"
      "                  profile and print the ranked why-is-B-slower report\n"
      "  --compare-json=FILE  also write the differential report as JSON\n"
      "                  (requires --compare)\n"
      "  --memstats      print peak/mean counter-gauge summary (twin/diff\n"
      "                  bytes, queue depths, link utilization)\n"
      "  --faults=SPEC   inject deterministic faults; SPEC is\n"
      "                  kind:k=v,...;kind:... (kinds: loss burst dup\n"
      "                  reorder degrade partition slow), @plan.json, or\n"
      "                  profile:NAME (lossy bursty degraded partition\n"
      "                  straggler flaky mixed)\n"
      "  --metrics-csv=FILE   write the sampled per-node metric time series\n"
      "  --metrics-interval=USEC  metric sampling period (default 1000)\n"
      "  IS:    --keys=N --buckets=N --iters=N\n"
      "  Gauss: --n=N\n"
      "  SOR:   --rows=N --cols=N --iters=N\n"
      "  NN:    --samples=N --epochs=N --hidden=N\n",
      argv0);
  std::exit(2);
}

struct Args {
  const char* argv0 = "";
  std::map<std::string, std::string> kv;
  std::string get(const std::string& key, const std::string& dflt) const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
  // A numeric flag must be a whole unsigned decimal in [lo, hi]; anything
  // else ("abc", "16x", "-5", or a value its field cannot hold) prints
  // usage and exits 2.
  uint64_t num(const std::string& key, uint64_t dflt, uint64_t lo = 0,
               uint64_t hi = UINT64_MAX) const {
    auto it = kv.find(key);
    if (it == kv.end()) return dflt;
    const std::string& v = it->second;
    const bool digits =
        !v.empty() && v.find_first_not_of("0123456789") == std::string::npos;
    try {
      if (digits) {
        const uint64_t n = std::stoull(v);
        if (n >= lo && n <= hi) return n;
      }
    } catch (const std::out_of_range&) {
    }
    std::fprintf(stderr, "error: bad number --%s=%s\n", key.c_str(), v.c_str());
    usage(argv0);
  }
  // An int-typed flag: a number in [lo, INT_MAX].
  int count(const std::string& key, int dflt, int lo = 0) const {
    return static_cast<int>(num(key, dflt, lo, INT_MAX));
  }
};

void printResult(const std::string& title, const harness::RunResult& r,
                 bool ok) {
  std::printf("%s\n", title.c_str());
  std::printf("  Time (Sec.)          %10.3f\n", r.seconds);
  std::printf("  Barriers             %10llu\n",
              static_cast<unsigned long long>(r.barrierEpisodes()));
  std::printf("  Acquires             %10llu\n",
              static_cast<unsigned long long>(r.dsm.acquires));
  std::printf("  Data (MByte)         %10.2f\n", r.dataMBytes());
  std::printf("  Num. Msg             %10llu\n",
              static_cast<unsigned long long>(r.net.messages));
  std::printf("  Diff Requests        %10llu\n",
              static_cast<unsigned long long>(r.dsm.diff_requests));
  std::printf("  Barrier Time (usec.) %10.2f\n", r.dsm.avgBarrierMicros());
  std::printf("  Acquire Time (usec.) %10.2f\n", r.dsm.avgAcquireMicros());
  std::printf("  Rexmit               %10llu\n",
              static_cast<unsigned long long>(r.net.retransmissions));
  // Fault-injection counters appear only when a plan actually fired, so
  // fault-free output stays byte-identical.
  if (r.net.frames_dropped_fault || r.net.frames_duplicated ||
      r.net.frames_reordered || r.net.frames_degraded) {
    std::printf("  Fault drops          %10llu\n",
                static_cast<unsigned long long>(r.net.frames_dropped_fault));
    std::printf("  Fault dups           %10llu\n",
                static_cast<unsigned long long>(r.net.frames_duplicated));
    std::printf("  Fault reorders       %10llu\n",
                static_cast<unsigned long long>(r.net.frames_reordered));
    std::printf("  Fault degraded       %10llu\n",
                static_cast<unsigned long long>(r.net.frames_degraded));
  }
  std::printf("  Result               %10s\n", ok ? "ok" : "MISMATCH");
}

void printNetKinds(const net::NetStats& s) {
  std::printf("\nPer-kind traffic\n");
  TextTable t;
  t.header({"kind", "messages", "payload (KB)", "rexmit", "drops"});
  for (int k = 0; k < net::kMsgClassCount; ++k) {
    const net::KindStats& ks = s.kind[k];
    if (ks.messages == 0 && ks.retransmissions == 0 && ks.drops == 0)
      continue;
    t.rowv(net::kMsgClassName[k], ks.messages,
           static_cast<double>(ks.payload_bytes) / 1000.0,
           ks.retransmissions, ks.drops);
  }
  t.rowv("acks", s.acks, 0.0, uint64_t{0}, s.ack_drops);
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  // Every flag this tool understands. A typo (--pagheat) used to be silently
  // ignored and the run would report nothing unusual; now it is an error.
  static const std::set<std::string> kKnownFlags = {
      "app",          "runtime",   "variant",      "procs",
      "topology",     "barrier",   "view-homes",   "seed",
      "hidden",       "trace",     "breakdown",    "netstats",
      "critpath",     "pageheat",  "pageheat-csv", "memstats",
      "metrics-csv",  "metrics-interval",          "faults",
      "diagnose",     "profile",   "compare",      "compare-json",
      "keys",         "buckets",   "iters",        "n",
      "rows",         "cols",      "samples",      "epochs"};
  Args args;
  args.argv0 = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage(argv[0]);
    auto eq = a.find('=');
    const std::string key =
        eq == std::string::npos ? a.substr(2) : a.substr(2, eq - 2);
    if (!kKnownFlags.count(key)) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      usage(argv[0]);
    }
    if (eq == std::string::npos)
      args.kv[key] = "1";  // bare flag (--breakdown, --netstats)
    else
      args.kv[key] = a.substr(eq + 1);
  }
  const std::string app = args.get("app", "");
  const std::string runtime = args.get("runtime", "vc_sd");
  const std::string variant = args.get("variant", "vopp");

  harness::RunConfig cfg;
  cfg.nprocs = args.count("procs", 16, 1);
  cfg.seed = args.num("seed", 42);
  // Topology/barrier/directory specs are validated eagerly: a typo'd spec
  // used to silently fall back to the default and quietly measure the wrong
  // configuration.
  const std::string topo_spec = args.get("topology", "");
  if (!topo_spec.empty() &&
      !net::parseTopologySpec(topo_spec, &cfg.net.topology)) {
    std::fprintf(stderr, "error: invalid --topology spec '%s'\n",
                 topo_spec.c_str());
    usage(argv[0]);
  }
  const std::string barrier_spec = args.get("barrier", "");
  if (!barrier_spec.empty() &&
      !dsm::parseBarrierAlg(barrier_spec, &cfg.proto.barrier)) {
    std::fprintf(stderr, "error: invalid --barrier '%s'\n",
                 barrier_spec.c_str());
    usage(argv[0]);
  }
  const std::string homes_spec = args.get("view-homes", "");
  if (!homes_spec.empty() &&
      !dsm::parseViewHomes(homes_spec, &cfg.proto.view_homes)) {
    std::fprintf(stderr, "error: invalid --view-homes '%s'\n",
                 homes_spec.c_str());
    usage(argv[0]);
  }
  const std::string trace_path = args.get("trace", "");
  const bool want_breakdown = args.kv.count("breakdown") > 0;
  const bool want_netstats = args.kv.count("netstats") > 0;
  const bool want_critpath = args.kv.count("critpath") > 0;
  const bool want_pageheat = args.kv.count("pageheat") > 0;
  const std::string pageheat_csv = args.get("pageheat-csv", "");
  const bool want_memstats = args.kv.count("memstats") > 0;
  const std::string metrics_csv = args.get("metrics-csv", "");
  // --diagnose prints the ranked report; --diagnose=FILE also writes the
  // machine-readable JSON. Diagnosis consumes the trace and the metrics
  // summary, so it turns both on.
  const bool want_diagnose = args.kv.count("diagnose") > 0;
  const std::string diagnose_value = args.get("diagnose", "");
  const std::string diagnose_json =
      diagnose_value == "1" ? "" : diagnose_value;
  // Profiles and comparisons consume the trace and metrics summary, so they
  // turn both on (like --diagnose). Both are post-processing: the simulated
  // run stays bit-identical.
  const std::string profile_path = args.get("profile", "");
  const std::string compare_path = args.get("compare", "");
  const std::string compare_json = args.get("compare-json", "");
  if (!compare_json.empty() && compare_path.empty()) {
    std::fprintf(stderr, "error: --compare-json requires --compare\n");
    usage(argv[0]);
  }
  const bool want_profile = !profile_path.empty() || !compare_path.empty();
  obs::TraceRecorder recorder;
  if (!trace_path.empty() || want_breakdown || want_critpath || want_pageheat ||
      !pageheat_csv.empty() || want_diagnose || want_profile)
    cfg.trace = &recorder;
  cfg.critpath = want_critpath;
  cfg.pageheat = want_pageheat || !pageheat_csv.empty();
  cfg.diagnose = want_diagnose;
  cfg.profile = want_profile;
  // Metrics piggyback on any trace export (counter tracks) and are also
  // available standalone via --memstats / --metrics-csv.
  obs::MetricsRegistry registry{
      sim::usec(static_cast<int64_t>(args.num("metrics-interval", 1000)))};
  if (want_memstats || !metrics_csv.empty() || !trace_path.empty() ||
      want_diagnose || want_profile)
    cfg.metrics = &registry;
  net::FaultPlan fault_plan;
  const std::string fault_spec = args.get("faults", "");
  if (!fault_spec.empty()) {
    try {
      fault_plan = net::parseFaultPlan(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    cfg.faults = &fault_plan;
  }
  if (runtime == "lrc_d") cfg.protocol = dsm::Protocol::kLrcDiff;
  else if (runtime == "vc_d") cfg.protocol = dsm::Protocol::kVcDiff;
  else if (runtime == "vc_sd" || runtime == "mpi")
    cfg.protocol = dsm::Protocol::kVcSd;
  else usage(argv[0]);
  if (runtime == "mpi" && want_profile) {
    std::fprintf(stderr,
                 "error: --profile/--compare are not available for the mpi "
                 "runtime (no DSM trace to profile)\n");
    return 2;
  }

  const std::string title = app + " on " + runtime + " (" + variant + "), " +
                            std::to_string(cfg.nprocs) + " processors";
  harness::RunResult result;
  bool ok = false;
  try {
    if (app == "is") {
      apps::IsParams p;
      p.n_keys = args.num("keys", 1u << 20);
      const uint64_t buckets = args.num("buckets", 1u << 13, 1, 1ull << 32);
      p.max_key = static_cast<uint32_t>(buckets - 1);
      p.iterations = args.count("iters", 10);
      auto v = variant == "traditional" ? apps::IsVariant::kTraditional
               : variant == "vopp_lb"   ? apps::IsVariant::kVoppFewerBarriers
                                        : apps::IsVariant::kVopp;
      auto run = apps::runIs(cfg, p, v);
      result = run.result;
      ok = run.rank_sums == apps::isSerialRankSums(p, cfg.nprocs);
    } else if (app == "gauss") {
      apps::GaussParams p;
      p.n = args.num("n", 448);
      auto v = variant == "traditional" ? apps::GaussVariant::kTraditional
                                        : apps::GaussVariant::kVopp;
      auto run = apps::runGauss(cfg, p, v);
      result = run.result;
      ok = run.checksum == apps::gaussSerialChecksum(p);
    } else if (app == "sor") {
      apps::SorParams p;
      p.rows = args.num("rows", 512);
      p.cols = args.num("cols", 512);
      p.iterations = args.count("iters", 20);
      auto v = variant == "traditional" ? apps::SorVariant::kTraditional
                                        : apps::SorVariant::kVopp;
      auto run = apps::runSor(cfg, p, v);
      result = run.result;
      ok = run.checksum == apps::sorSerialChecksum(p);
    } else if (app == "nn") {
      apps::NnParams p;
      p.samples = args.num("samples", 512);
      p.epochs = args.count("epochs", 30);
      p.hidden = args.count("hidden", 40);
      auto v = runtime == "mpi"          ? apps::NnVariant::kMpi
               : variant == "traditional" ? apps::NnVariant::kTraditional
                                          : apps::NnVariant::kVopp;
      auto run = apps::runNn(cfg, p, v);
      result = run.result;
      ok = run.checksum == apps::nnSerialChecksum(p, cfg.nprocs);
    } else {
      usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  printResult(title, result, ok);
  if (want_netstats) printNetKinds(result.net);
  if (want_breakdown && result.breakdown.enabled())
    obs::printBreakdown(std::cout, result.breakdown, "Time breakdown");
  if (want_critpath)
    obs::printCriticalPath(std::cout, result.critpath, "Critical path");
  if (want_pageheat)
    obs::printPageHeat(std::cout, result.pageheat, "Page contention");
  if (want_diagnose) {
    obs::printDiagnosis(std::cout, result.diagnosis, "Diagnosis: " + title);
    if (!diagnose_json.empty()) {
      std::ofstream os(diagnose_json, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     diagnose_json.c_str());
        return 1;
      }
      obs::writeDiagnosisJson(os, result.diagnosis);
      std::printf("diagnosis: %zu findings -> %s\n",
                  result.diagnosis.findings.size(), diagnose_json.c_str());
    }
  }
  if (want_profile) result.profile.label = title;
  if (!profile_path.empty()) {
    std::ofstream os(profile_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", profile_path.c_str());
      return 1;
    }
    obs::writeRunProfileJson(os, result.profile);
    std::printf("profile -> %s\n", profile_path.c_str());
  }
  if (!compare_path.empty()) {
    try {
      const obs::RunProfile baseline = obs::loadRunProfileFile(compare_path);
      const obs::DiffReport report =
          obs::diffProfiles(baseline, result.profile);
      obs::printDiffReport(std::cout, report,
                           "Differential report: " + baseline.label +
                               " (A) vs " + title + " (B)");
      if (!compare_json.empty()) {
        std::ofstream os(compare_json, std::ios::binary);
        if (!os) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       compare_json.c_str());
          return 1;
        }
        obs::writeDiffReportJson(os, report);
        std::printf("differential report: %zu findings -> %s\n",
                    report.findings.size(), compare_json.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (want_memstats) {
    if (result.metrics.enabled())
      obs::printMemstats(std::cout, result.metrics, "Memory/utilization stats");
    else
      std::printf("\n(metrics not available for this runtime)\n");
  }
  if (!metrics_csv.empty()) {
    std::ofstream os(metrics_csv, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_csv.c_str());
      return 1;
    }
    obs::writeMetricsCsv(os, registry);
    std::printf("\nmetrics: %zu samples -> %s\n", registry.samples().size(),
                metrics_csv.c_str());
  }
  if (!pageheat_csv.empty()) {
    std::ofstream os(pageheat_csv, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", pageheat_csv.c_str());
      return 1;
    }
    obs::writePageHeatCsv(os, result.pageheat);
    std::printf("\npage heat: %zu pages -> %s\n", result.pageheat.rows.size(),
                pageheat_csv.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    obs::writeChromeTrace(os, recorder, cfg.metrics);
    std::printf("\ntrace: %zu events -> %s\n", recorder.size(),
                trace_path.c_str());
  }
  return ok ? 0 : 1;
}
