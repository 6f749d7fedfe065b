#include "cells.hpp"

#include <cstdio>

#include "bench/paper_params.hpp"
#include "bench/table_common.hpp"
#include "support/check.hpp"

namespace perfbench {

namespace {

using vodsm::apps::GaussVariant;
using vodsm::apps::IsVariant;
using vodsm::dsm::Protocol;
namespace bench = vodsm::bench;

// Input seeds move by a multiple of the 64-bit golden ratio per benchmark
// seed, so seed 0 keeps each app's default input seed (the committed
// baselines') and every other seed gives a different input stream.
constexpr uint64_t kSeedStride = 0x9E3779B97F4A7C15ull;

struct Inputs {
  vodsm::apps::IsParams is = bench::isParams(false);
  vodsm::apps::GaussParams gauss = bench::gaussParams(false);

  explicit Inputs(uint64_t seed) {
    is.key_seed += seed * kSeedStride;
    gauss.seed += seed * kSeedStride;
  }
};

std::string cellId(const char* app, const std::string& impl, int procs) {
  return std::string(app) + "/" + impl + "/" + std::to_string(procs) + "p";
}

CellDef cell(const Inputs& in, App app, const char* app_name,
             const std::string& impl, Protocol proto, int variant,
             int procs) {
  CellDef c;
  c.id = cellId(app_name, impl, procs);
  c.app = app;
  c.variant = variant;
  c.config = bench::baseConfig(proto, procs);
  c.is = in.is;
  c.gauss = in.gauss;
  return c;
}

CellDef isCell(const Inputs& in, const std::string& impl, Protocol proto,
               IsVariant v, int procs) {
  return cell(in, App::kIs, "IS", impl, proto, static_cast<int>(v), procs);
}
CellDef gaussCell(const Inputs& in, const std::string& impl, Protocol proto,
                  GaussVariant v, int procs) {
  return cell(in, App::kGauss, "Gauss", impl, proto, static_cast<int>(v),
              procs);
}

}  // namespace

Workload makeWorkload(const std::string& name, uint64_t seed) {
  const Inputs in(seed);
  Workload w;
  w.name = name;
  if (name == "is_vc_sd_64p") {
    w.cells = {isCell(in, "VC_sd", Protocol::kVcSd, IsVariant::kVopp, 64)};
  } else if (name == "gauss_lrc_d_16p") {
    w.cells = {gaussCell(in, "LRC_d", Protocol::kLrcDiff,
                         GaussVariant::kTraditional, 16)};
  } else {
    throw vodsm::Error("unknown workload '" + name + "'");
  }
  return w;
}

std::string referenceKey(const CellDef& c) {
  char buf[160];
  switch (c.app) {
    case App::kIs:
      std::snprintf(buf, sizeof(buf), "IS n=%zu k=%u it=%d s=%llu p=%d",
                    c.is.n_keys, c.is.max_key, c.is.iterations,
                    static_cast<unsigned long long>(c.is.key_seed),
                    c.config.nprocs);
      break;
    case App::kGauss:
      std::snprintf(buf, sizeof(buf), "Gauss n=%zu s=%llu", c.gauss.n,
                    static_cast<unsigned long long>(c.gauss.seed));
      break;
  }
  return buf;
}

Answer serialReference(const CellDef& c) {
  Answer a;
  switch (c.app) {
    case App::kIs:
      a.rank_sums = vodsm::apps::isSerialRankSums(c.is, c.config.nprocs);
      break;
    case App::kGauss:
      a.checksum = vodsm::apps::gaussSerialChecksum(c.gauss);
      break;
  }
  return a;
}

CellRun runCell(const CellDef& c, const vodsm::harness::RunConfig& config) {
  CellRun out;
  switch (c.app) {
    case App::kIs: {
      auto r = vodsm::apps::runIs(config, c.is,
                                  static_cast<IsVariant>(c.variant));
      out.result = std::move(r.result);
      out.answer.rank_sums = std::move(r.rank_sums);
      break;
    }
    case App::kGauss: {
      auto r = vodsm::apps::runGauss(config, c.gauss,
                                     static_cast<GaussVariant>(c.variant));
      out.result = std::move(r.result);
      out.answer.checksum = r.checksum;
      break;
    }
  }
  return out;
}

}  // namespace perfbench
