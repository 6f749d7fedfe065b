// The comparison core of bench_diff, header-only so unit tests can drive
// it directly (tests/test_bench_tools.cpp) while the bench_diff binary
// stays a thin main().
//
// Contract (see bench_diff.cpp for the CLI story):
//   * every field compares EXACTLY, except
//   * host-timing keys get a ratio tolerance with an absolute floor and
//     may be present in only one file,
//   * ignored keys ("jobs", "sim_threads", "host") never compare at all —
//     they describe the machine that ran the suite, not the simulation, and
//   * under Config::allow_screened, screened cells and the sweep- and
//     table-level host timings of a screened sweep never compare.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace vodsm::bench::diff {

// Profile file name for a cell id: '/' becomes '_' and ".profile.json" is
// appended ("IS/LRC_d/16p" -> "IS_LRC_d_16p.profile.json"). Shared between
// the table binaries (which write per-cell profiles under --profiles) and
// bench_diff --explain (which reads them back for drifted cells).
inline std::string cellProfileFileName(const std::string& cell_id) {
  std::string name = cell_id;
  for (char& c : name)
    if (c == '/') c = '_';
  return name + ".profile.json";
}

struct Config {
  // A host timing passes when the larger value is within `host_tolerance`
  // times the smaller, or both are under the floor. Generous by default:
  // the gate is for simulated drift, not for benchmarking the host.
  double host_tolerance = 25.0;
  double host_floor_seconds = 5.0;
  // Accept cells one side skipped via the analytic screen ("screened":
  // true): such a cell carries a model prediction instead of simulated
  // fields, so nothing in it compares. Likewise the host timings outside
  // any cell (sweep- and table-level wall_seconds, serial_wall_seconds,
  // speedup_vs_serial) of a screened sweep — a document carrying
  // "screened_cells" — are not compared: they time a different set of
  // cells than the other side's sweep. Per-cell host_seconds of simulated
  // cells still compare. Off by default — the regression gate must never
  // run against a screened artifact by accident.
  bool allow_screened = false;
};

struct Report {
  int mismatches = 0;       // every kind; host_mismatches is a subset
  int host_mismatches = 0;  // host timings beyond tolerance
  int host_checked = 0;
  int screened_skipped = 0;
  int sweep_timings_skipped = 0;  // screened sweep's timings outside cells
  static constexpr int kMaxPrinted = 50;
  std::ostream* out = &std::cout;
  // Ids of the cells ("$.tables[].cells[]" objects, recognized by their
  // string "id" member) whose subtree drifted, in first-drift order.
  // bench_diff --explain uses these to pick which per-cell profile pairs
  // to difference.
  std::vector<std::string> drifted_cells;
  std::string current_cell;  // set while comparing inside a cell object
  // Set while comparing inside a screened sweep under allow_screened.
  bool in_screened_sweep = false;

  int simulatedMismatches() const { return mismatches - host_mismatches; }

  void fail(const std::string& path, const std::string& why,
            bool host_timing = false) {
    if (host_timing) ++host_mismatches;
    if (mismatches < kMaxPrinted)
      *out << "  " << path << ": " << why << "\n";
    else if (mismatches == kMaxPrinted)
      *out << "  ... further mismatches suppressed\n";
    ++mismatches;
    if (!current_cell.empty() &&
        std::find(drifted_cells.begin(), drifted_cells.end(),
                  current_cell) == drifted_cells.end())
      drifted_cells.push_back(current_cell);
  }
};

inline bool isHostTimingKey(const std::string& key) {
  return key == "host_seconds" || key == "wall_seconds" ||
         key == "serial_wall_seconds" || key == "speedup_vs_serial";
}

// Host run-shape and provenance keys: thread counts and machine identity
// never change simulated output, so neither presence nor value compares.
// The suite no longer writes "sim_threads" (the engine has one serial
// schedule), but the committed BENCH_*.json baselines still carry it, so
// it stays ignored rather than reading as a missing field.
// "axes" is a cell's coordinate record (model_suite input), not a
// simulated result, so a baseline from before the axis sweeps still gates
// exactly on every field it does have.
inline bool isIgnoredKey(const std::string& key) {
  return key == "jobs" || key == "sim_threads" || key == "host" ||
         key == "axes";
}

// Screen-provenance keys, ignored only under Config::allow_screened.
inline bool isScreenKey(const std::string& key) {
  return key == "screen" || key == "screened_cells";
}

// A screened sweep carries the "screened_cells" provenance at its root.
inline bool isScreenedSweep(const support::Json& v) {
  return v.isObject() && v.find("screened_cells") != nullptr;
}

// Under allow_screened, an object marked "screened": true on either side
// is a model prediction, not a measurement — nothing in it compares.
inline bool isScreenedCell(const support::Json& v) {
  if (!v.isObject()) return false;
  const support::Json* s = v.find("screened");
  return s != nullptr && s->type() == support::Json::Type::kBool &&
         s->asBool();
}

inline std::string describe(const support::Json& v) {
  using support::Json;
  switch (v.type()) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return v.asBool() ? "true" : "false";
    case Json::Type::kString: return "\"" + v.asString() + "\"";
    case Json::Type::kNumber: {
      std::ostringstream os;
      os << v.asNumber();
      return os.str();
    }
    case Json::Type::kArray:
      return "array[" + std::to_string(v.items().size()) + "]";
    case Json::Type::kObject:
      return "object{" + std::to_string(v.members().size()) + "}";
  }
  return "?";
}

inline void checkHostTiming(const support::Json& base,
                            const support::Json& cur,
                            const std::string& path, const Config& cfg,
                            Report& rep) {
  using support::Json;
  if (base.type() != Json::Type::kNumber ||
      cur.type() != Json::Type::kNumber) {
    rep.fail(path, "host-timing field is not a number", true);
    return;
  }
  ++rep.host_checked;
  const double a = base.asNumber();
  const double b = cur.asNumber();
  if (a <= cfg.host_floor_seconds && b <= cfg.host_floor_seconds) return;
  const double lo = std::min(a, b);
  const double hi = std::max(a, b);
  if (lo > 0 && hi / lo <= cfg.host_tolerance) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "host timing drifted beyond %.0fx: baseline %g vs current %g",
                cfg.host_tolerance, a, b);
  rep.fail(path, buf, true);
}

inline void compare(const support::Json& base, const support::Json& cur,
                    const std::string& path, const Config& cfg, Report& rep) {
  using support::Json;
  if (base.type() != cur.type()) {
    rep.fail(path, describe(base) + " became " + describe(cur));
    return;
  }
  switch (base.type()) {
    case Json::Type::kNull:
      return;
    case Json::Type::kBool:
      if (base.asBool() != cur.asBool())
        rep.fail(path, describe(base) + " became " + describe(cur));
      return;
    case Json::Type::kString:
      if (base.asString() != cur.asString())
        rep.fail(path, describe(base) + " became " + describe(cur));
      return;
    case Json::Type::kNumber:
      // Exact. Both files come from the same fixed-precision writer, so a
      // deterministic simulation reproduces the byte-identical text and
      // therefore the identical double.
      if (base.asNumber() != cur.asNumber())
        rep.fail(path, describe(base) + " became " + describe(cur));
      return;
    case Json::Type::kArray: {
      const auto& a = base.items();
      const auto& b = cur.items();
      if (a.size() != b.size()) {
        rep.fail(path, "array length " + std::to_string(a.size()) +
                           " became " + std::to_string(b.size()));
        return;
      }
      for (size_t i = 0; i < a.size(); ++i)
        compare(a[i], b[i], path + "[" + std::to_string(i) + "]", cfg, rep);
      return;
    }
    case Json::Type::kObject: {
      if (cfg.allow_screened &&
          (isScreenedCell(base) || isScreenedCell(cur))) {
        ++rep.screened_skipped;
        return;
      }
      // Cell objects carry a string "id"; remember it while comparing the
      // subtree so fail() can attribute drift to the cell.
      const Json* id = base.find("id");
      const bool is_cell =
          id != nullptr && id->type() == Json::Type::kString;
      const std::string saved_cell = rep.current_cell;
      if (is_cell) rep.current_cell = id->asString();
      const bool saved_screened_sweep = rep.in_screened_sweep;
      if (cfg.allow_screened && (isScreenedSweep(base) || isScreenedSweep(cur)))
        rep.in_screened_sweep = true;
      for (const auto& [key, bval] : base.members()) {
        if (isIgnoredKey(key)) continue;
        if (cfg.allow_screened && isScreenKey(key)) continue;
        const std::string sub = path + "." + key;
        // A screened sweep's timings outside any cell time a different set
        // of cells than the other side's sweep; only per-cell ones compare.
        if (rep.in_screened_sweep && rep.current_cell.empty() &&
            isHostTimingKey(key)) {
          ++rep.sweep_timings_skipped;
          continue;
        }
        const Json* cval = cur.find(key);
        if (!cval) {
          // Host timings are run-shape dependent (e.g. serial_wall_seconds
          // only exists under --compare-serial); absence is not drift.
          if (!isHostTimingKey(key)) rep.fail(sub, "key disappeared");
          continue;
        }
        if (isHostTimingKey(key))
          checkHostTiming(bval, *cval, sub, cfg, rep);
        else
          compare(bval, *cval, sub, cfg, rep);
      }
      for (const auto& [key, cval] : cur.members()) {
        (void)cval;
        if (isIgnoredKey(key) || isHostTimingKey(key)) continue;
        if (cfg.allow_screened && isScreenKey(key)) continue;
        if (!base.find(key)) rep.fail(path + "." + key, "key appeared");
      }
      rep.current_cell = saved_cell;
      rep.in_screened_sweep = saved_screened_sweep;
      return;
    }
  }
}

}  // namespace vodsm::bench::diff
