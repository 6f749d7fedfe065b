// Unit tests for the bench-layer analysis tools:
//
//  * bench/fit_model.hpp — the least-squares fitter behind fit_scaling must
//    recover a known T(p) = c * p^a * log2(p)^b exactly from synthetic
//    samples, fall back to b = 0 with two points or a singular system, and
//    report failure (ok = false) when even the fallback is singular.
//  * src/model — the multi-axis fitter must recover a generating model's
//    exact regressor subset from noise-free data, its leave-one-out score
//    must match hand-computed folds, the composed per-bucket models must
//    sum to the total model at EVERY axis point (including on a real traced
//    run, whose buckets provably partition p * T), and the model JSON /
//    Extra-P exports must be byte-deterministic and round-trip.
//  * bench/tables.hpp applyScreen — the analytic screen must skip exactly
//    the cells the model has demonstrably hit, and log each skip.
//  * bench/diff_compare.hpp — the bench_diff regression gate must compare
//    simulated fields exactly while stripping the host-shape keys ("jobs",
//    "sim_threads", the "host" metadata object, and the "axes" coordinate
//    record), so a baseline written before those records existed still
//    gates a current file that has them; screened cells compare only under
//    the explicit --allow-screened opt-in.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/is.hpp"
#include "bench/diff_compare.hpp"
#include "bench/fit_model.hpp"
#include "bench/tables.hpp"
#include "harness/run.hpp"
#include "model/extrap.hpp"
#include "model/fit.hpp"
#include "model/model_set.hpp"
#include "model/table_data.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "support/json.hpp"

namespace vodsm {
namespace {

using support::Json;

// --- fit_model ----------------------------------------------------------

std::vector<std::pair<int, double>> sampleModel(double c, double a, double b,
                                                const std::vector<int>& ps) {
  std::vector<std::pair<int, double>> pts;
  for (int p : ps)
    pts.emplace_back(p, c * std::pow(p, a) * std::pow(std::log2(p), b));
  return pts;
}

TEST(FitModel, RecoversSyntheticModelExactly) {
  // The paper-table sweep's processor counts; the model is noise-free, so
  // the normal equations must reproduce it to numerical precision.
  const double c = 0.5, a = -0.8, b = 1.2;
  bench::fit::Fit fit =
      bench::fit::fitSeries(sampleModel(c, a, b, {2, 4, 8, 16, 32}));
  ASSERT_TRUE(fit.ok);
  EXPECT_EQ(fit.points, 5);
  EXPECT_NEAR(fit.c, c, 1e-9);
  EXPECT_NEAR(fit.a, a, 1e-9);
  EXPECT_NEAR(fit.b, b, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_NEAR(fit.eval(64), c * std::pow(64, a) * std::pow(6.0, b), 1e-9);
}

TEST(FitModel, RecoversPurePowerLaw) {
  bench::fit::Fit fit =
      bench::fit::fitSeries(sampleModel(2.0, -1.0, 0.0, {2, 4, 8, 16}));
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.c, 2.0, 1e-9);
  EXPECT_NEAR(fit.a, -1.0, 1e-9);
  EXPECT_NEAR(fit.b, 0.0, 1e-9);
}

TEST(FitModel, TwoPointsFallBackToPowerLaw) {
  // Two samples cannot identify the log2 exponent: expect b = 0 and the
  // power law through both points, here T(p) = 1 * p^-1.
  bench::fit::Fit fit = bench::fit::fitSeries({{2, 0.5}, {4, 0.25}});
  ASSERT_TRUE(fit.ok);
  EXPECT_EQ(fit.points, 2);
  EXPECT_EQ(fit.b, 0.0);
  EXPECT_NEAR(fit.c, 1.0, 1e-9);
  EXPECT_NEAR(fit.a, -1.0, 1e-9);
}

TEST(FitModel, DuplicateProcsMakeTheLogTermSingular) {
  // Three samples but only two distinct p: the 3x3 system is singular
  // (the log-log column is an affine image of the ln p column), so the fit
  // must drop b and still solve the power law.
  bench::fit::Fit fit =
      bench::fit::fitSeries({{2, 1.0}, {4, 0.5}, {4, 0.5}});
  ASSERT_TRUE(fit.ok);
  EXPECT_EQ(fit.points, 3);
  EXPECT_EQ(fit.b, 0.0);
  EXPECT_NEAR(fit.a, -1.0, 1e-9);
}

TEST(FitModel, SingleDistinctProcIsUnfittable) {
  // One distinct p cannot pin an exponent at all: even the 2x2 fallback is
  // singular and the fit reports failure instead of inventing numbers.
  bench::fit::Fit fit =
      bench::fit::fitSeries({{4, 1.0}, {4, 2.0}, {4, 3.0}});
  EXPECT_FALSE(fit.ok);
  bench::fit::Fit too_few = bench::fit::fitSeries({{8, 1.0}});
  EXPECT_FALSE(too_few.ok);
  EXPECT_EQ(too_few.points, 1);
}

TEST(FitModel, SolveNormalRejectsSingularSystems) {
  std::vector<double> x;
  EXPECT_TRUE(bench::fit::solveNormal({{2, 0, 2}, {0, 4, 8}}, x));
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_FALSE(bench::fit::solveNormal({{1, 2, 3}, {2, 4, 6}}, x));
}

// --- model/fit: the multi-axis fitter -----------------------------------

model::AxisPoint axisAt(int procs, double n = 1.0, double bw = 100.0,
                        double loss = 0.0) {
  model::AxisPoint x;
  x.procs = procs;
  x.n_scale = n;
  x.bw_mbps = bw;
  x.loss_pct = loss;
  return x;
}

// T(x) for a known constant + exponent vector, through the same regressor
// basis the fitter uses.
double truth(const model::AxisPoint& x, double c,
             const std::array<double, model::kRegressorCount>& e) {
  double ln = std::log(c);
  for (int r = 0; r < model::kRegressorCount; ++r)
    ln += e[r] * model::regressor(x, r);
  return std::exp(ln);
}

TEST(MultiFit, RecoversAMultiAxisModelExactly) {
  // Noise-free samples from c * p^1.3 * n^0.7 * (100/bw)^0.5 *
  // (1+100*loss)^0.25, varied on every axis: the fitter must recover the
  // generating subset — and nothing more — to numerical precision.
  const double c = 0.5;
  const std::array<double, model::kRegressorCount> e = {1.3, 0.0, 0.7, 0.5,
                                                        0.25};
  std::vector<model::FitSample> pts;
  for (int p : {2, 4, 8, 16, 32}) pts.push_back({axisAt(p), 0});
  pts.push_back({axisAt(4, 0.5), 0});
  pts.push_back({axisAt(4, 2.0), 0});
  pts.push_back({axisAt(8, 1.0, 50.0), 0});
  pts.push_back({axisAt(8, 1.0, 200.0), 0});
  pts.push_back({axisAt(16, 1.0, 100.0, 0.2), 0});
  pts.push_back({axisAt(16, 1.0, 100.0, 0.5), 0});
  for (model::FitSample& s : pts) s.value = truth(s.axes, c, e);

  const model::MultiFit fit = model::fitMulti(pts);
  ASSERT_TRUE(fit.ok);
  const uint32_t want = (1u << model::kLnP) | (1u << model::kLnN) |
                        (1u << model::kLnInvBw) | (1u << model::kLnLoss);
  EXPECT_EQ(fit.mask, want);
  EXPECT_NEAR(fit.c, c, 1e-6);
  for (int r = 0; r < model::kRegressorCount; ++r)
    EXPECT_NEAR(fit.exp[r], e[r], 1e-6) << model::kRegressorTerm[r];
  // Predicts an unseen coordinate, off-grid on every axis.
  const model::AxisPoint probe = axisAt(24, 1.5, 80.0, 0.3);
  EXPECT_NEAR(fit.eval(probe), truth(probe, c, e),
              1e-6 * truth(probe, c, e));
}

TEST(MultiFit, SelectsTheMinimalRegressorSubset) {
  // The value depends on p alone, but decoy axes vary across the samples.
  // Cross-validated selection with the fewest-terms tie-break must keep
  // only the p term — a decoy can fit the training data no better, so it
  // never survives the strict-improvement margin.
  std::vector<model::FitSample> pts = {
      {axisAt(2, 0.5), 0},
      {axisAt(4, 1.0, 50.0), 0},
      {axisAt(8, 1.0, 100.0, 0.5), 0},
      {axisAt(16), 0},
      {axisAt(32, 2.0), 0},
  };
  for (model::FitSample& s : pts)
    s.value = 3.0 * std::pow(static_cast<double>(s.axes.procs), 0.5);
  const model::MultiFit fit = model::fitMulti(pts);
  ASSERT_TRUE(fit.ok);
  EXPECT_EQ(fit.mask, 1u << model::kLnP);
  EXPECT_NEAR(fit.c, 3.0, 1e-6);
  EXPECT_NEAR(fit.exp[model::kLnP], 0.5, 1e-6);
}

TEST(MultiFit, LoocvMatchesHandComputedFolds) {
  // Points (2,2), (4,4), (8,16) under the pure power law c * p^a:
  //   hold out (2,2):  fit on the rest gives p^2/4, predicts 1   -> 0.5
  //   hold out (4,4):  fit gives p^1.5/sqrt(2), predicts 2^2.5   -> sqrt(2)-1
  //   hold out (8,16): fit gives p, predicts 8                   -> 0.5
  // mean = (0.5 + sqrt(2)-1 + 0.5) / 3 = sqrt(2)/3.
  const std::vector<model::FitSample> pts = {
      {axisAt(2), 2.0}, {axisAt(4), 4.0}, {axisAt(8), 16.0}};
  EXPECT_NEAR(model::loocvRelErr(pts, 1u << model::kLnP),
              std::sqrt(2.0) / 3.0, 1e-12);
  // Two points cannot cross-validate a one-term model (each fold would fit
  // two coefficients to one sample): the score is reported incomputable.
  const std::vector<model::FitSample> two = {{axisAt(2), 2.0},
                                             {axisAt(4), 4.0}};
  EXPECT_LT(model::loocvRelErr(two, 1u << model::kLnP), 0);
}

// --- model/model_set: composition and cross-validation ------------------

// A synthetic (app, impl) series whose buckets follow known power laws;
// idle is structurally zero to exercise the zero-bucket path. Buckets are
// node-summed seconds, so sim_seconds = sum / p.
std::vector<model::CellSample> syntheticSeries() {
  std::vector<model::CellSample> cells;
  for (int p : {2, 4, 8, 16}) {
    model::CellSample c;
    c.id = "APP/X/" + std::to_string(p) + "p";
    c.app = std::string("APP");
    c.impl = std::string("X");
    c.axes = axisAt(p);
    c.has_breakdown = true;
    const double dp = p;
    c.breakdown = {2.0 * dp, 0.5 * dp * dp, 0.25 * dp, std::pow(dp, 1.5),
                   0.0};
    double sum = 0;
    for (double b : c.breakdown) sum += b;
    c.sim_seconds = sum / dp;
    cells.push_back(std::move(c));
  }
  return cells;
}

TEST(ModelSet, ComposedBucketsSumToTheTotalPredictionEverywhere) {
  const model::ModelSet set = model::buildModelSet(syntheticSeries(), 0);
  ASSERT_EQ(set.series.size(), 1u);
  const model::SeriesModel& m = set.series[0];
  ASSERT_TRUE(m.has_buckets);
  ASSERT_EQ(m.buckets.size(), static_cast<size_t>(model::kBucketCount));
  EXPECT_TRUE(m.buckets[4].zero);  // idle never paid
  EXPECT_EQ(m.buckets[4].eval(axisAt(8)), 0.0);
  // The composition is exact BY CONSTRUCTION at any coordinate, not just
  // the training grid — probe an off-grid point.
  const model::AxisPoint probe = axisAt(6);
  double node_sum = 0;
  for (const model::BucketModel& b : m.buckets) node_sum += b.eval(probe);
  EXPECT_DOUBLE_EQ(m.predictTotal(probe), node_sum / 6.0);
  // Noise-free power-law buckets: the composed model reproduces every
  // training cell.
  for (const model::CellEval& e : set.evals) EXPECT_LT(e.rel_err, 1e-6);
}

TEST(ModelSet, HoldoutSelectionIsDeterministicByIdOrder) {
  std::vector<model::CellSample> cells = syntheticSeries();
  // Sequential and 1-processor cells never enter a fit.
  model::CellSample seq;
  seq.id = "APP/seq/1p";
  seq.app = "APP";
  seq.impl = "seq";
  seq.axes = axisAt(1);
  seq.sim_seconds = 9.0;
  cells.push_back(seq);

  const model::ModelSet set = model::buildModelSet(cells, 3);
  EXPECT_EQ(set.evals.size(), 4u);  // the seq cell is excluded entirely
  // Id order is 16p < 2p < 4p < 8p (string sort), so with k = 3 the third
  // cell — APP/X/4p — is the one held out.
  int held = 0;
  for (const model::CellEval& e : set.evals)
    if (e.held_out) {
      ++held;
      EXPECT_EQ(e.id, "APP/X/4p");
      EXPECT_LT(e.rel_err, 1e-6);  // noise-free: predicted from the rest
    }
  EXPECT_EQ(held, 1);
  const double med = set.medianHeldOutRelErr();
  EXPECT_GE(med, 0.0);
  EXPECT_LT(med, 1e-6);
}

TEST(ModelSet, RealTracedBreakdownPartitionsAndComposes) {
  // A real traced IS run: the five aggregate buckets must partition
  // p * run_time EXACTLY (integer simulated time), and a model set built
  // from such cells must compose — bucket predictions summing to the total
  // prediction — at any coordinate.
  apps::IsParams params;
  params.n_keys = 1 << 12;
  params.max_key = (1 << 8) - 1;
  params.iterations = 3;

  std::vector<model::CellSample> cells;
  for (int procs : {2, 4}) {
    harness::RunConfig cfg;
    cfg.protocol = dsm::Protocol::kVcSd;
    cfg.nprocs = procs;
    obs::TraceRecorder rec;
    cfg.trace = &rec;
    const harness::RunResult r =
        apps::runIs(cfg, params, apps::IsVariant::kVopp).result;
    ASSERT_TRUE(r.breakdown.enabled());
    EXPECT_EQ(r.breakdown.aggregate.total(),
              static_cast<sim::Time>(procs) * r.breakdown.run_time);

    model::CellSample s;
    s.id = "IS/VC_sd/" + std::to_string(procs) + "p";
    s.app = "IS";
    s.impl = "VC_sd";
    s.axes = axisAt(procs);
    s.sim_seconds = r.seconds;
    s.has_breakdown = true;
    const obs::BucketSet& b = r.breakdown.aggregate;
    s.breakdown = {sim::toSeconds(b.compute), sim::toSeconds(b.barrier_wait),
                   sim::toSeconds(b.acquire_wait),
                   sim::toSeconds(b.fault_diff), sim::toSeconds(b.idle)};
    double sum = 0;
    for (double v : s.breakdown) sum += v;
    EXPECT_NEAR(sum, procs * s.sim_seconds, 1e-9);
    cells.push_back(std::move(s));
  }

  const model::ModelSet set = model::buildModelSet(cells, 0);
  ASSERT_EQ(set.series.size(), 1u);
  const model::SeriesModel& m = set.series[0];
  ASSERT_TRUE(m.has_buckets);
  const model::AxisPoint probe = axisAt(3);
  double node_sum = 0;
  for (const model::BucketModel& bm : m.buckets) node_sum += bm.eval(probe);
  EXPECT_DOUBLE_EQ(m.predictTotal(probe), node_sum / 3.0);
  EXPECT_FALSE(m.dominantTerm(probe).empty());
}

// --- model exports: byte determinism and round-trip ---------------------

TEST(ModelJson, ByteDeterministicAndEvalsRoundTrip) {
  const model::ModelSet set = model::buildModelSet(syntheticSeries(), 3);
  std::ostringstream a, b;
  model::writeModelJson(a, set);
  model::writeModelJson(b, set);
  EXPECT_EQ(a.str(), b.str());

  const std::vector<model::CellEval> evals =
      model::loadModelEvals(Json::parse(a.str()));
  ASSERT_EQ(evals.size(), set.evals.size());
  for (size_t i = 0; i < evals.size(); ++i) {
    EXPECT_EQ(evals[i].id, set.evals[i].id);
    EXPECT_EQ(evals[i].held_out, set.evals[i].held_out);
    EXPECT_EQ(evals[i].note, set.evals[i].note);
    // Written as %.6f: round-trips to within the printed precision.
    EXPECT_NEAR(evals[i].measured, set.evals[i].measured, 1e-6);
    EXPECT_NEAR(evals[i].predicted, set.evals[i].predicted, 1e-6);
    EXPECT_NEAR(evals[i].rel_err, set.evals[i].rel_err, 1e-6);
  }
  // Anything that is not a model document is rejected, not misread.
  EXPECT_ANY_THROW(model::loadModelEvals(Json::parse(R"({"kind": "x"})")));
}

TEST(Extrap, ExportIsByteDeterministic) {
  const std::vector<model::CellSample> cells = syntheticSeries();
  std::ostringstream a, b;
  model::writeExtrap(a, cells);
  model::writeExtrap(b, cells);
  EXPECT_EQ(a.str(), b.str());
  const std::string& text = a.str();
  EXPECT_NE(text.find("PARAMETER p"), std::string::npos);
  EXPECT_NE(text.find("REGION APP->X\n"), std::string::npos);
  EXPECT_NE(text.find("REGION APP->X->compute"), std::string::npos);
  EXPECT_NE(text.find("POINTS"), std::string::npos);
}

TEST(TableData, ParsesCellIdsWithAndWithoutVariationSuffix) {
  std::string app, impl;
  int procs = 0;
  ASSERT_TRUE(model::parseCellId("IS/LRC_d/16p/bw50", app, impl, procs));
  EXPECT_EQ(app, "IS");
  EXPECT_EQ(impl, "LRC_d");
  EXPECT_EQ(procs, 16);
  ASSERT_TRUE(model::parseCellId("SOR/VC_sd/2p", app, impl, procs));
  EXPECT_EQ(procs, 2);
  EXPECT_FALSE(model::parseCellId("not-a-cell-id", app, impl, procs));
  EXPECT_FALSE(model::parseCellId("IS/LRC_d/xp", app, impl, procs));
}

// --- bench/tables: the analytic screen ----------------------------------

TEST(ApplyScreen, SkipsOnlyDemonstratedCellsAndLogsThem) {
  // A model document with one cell inside tolerance (5%) and one outside
  // (50%); the spec also has a cell the model has never seen.
  model::ModelSet set;
  model::CellEval good;
  good.id = "IS/LRC_d/4p";
  good.measured = 1.0;
  good.predicted = 0.95;
  good.rel_err = 0.05;
  good.note = "compute: 0.95";
  model::CellEval bad;
  bad.id = "IS/LRC_d/8p";
  bad.measured = 1.0;
  bad.predicted = 1.5;
  bad.rel_err = 0.5;
  bad.note = "compute: 1.5";
  set.evals = {good, bad};
  const std::string path = ::testing::TempDir() + "vodsm_screen_model.json";
  {
    std::ofstream f(path, std::ios::binary);
    model::writeModelJson(f, set);
  }

  int simulated = 0;
  const auto real_run = [&simulated] {
    ++simulated;
    harness::RunResult r;
    r.seconds = 1.0;
    return r;
  };
  std::vector<bench::TableSpec> specs(1);
  specs[0].name = "t";
  specs[0].cells.emplace_back("IS/LRC_d/4p", real_run);
  specs[0].cells.emplace_back("IS/LRC_d/8p", real_run);
  specs[0].cells.emplace_back("IS/LRC_d/16p", real_run);

  std::ostringstream log;
  EXPECT_EQ(bench::applyScreen(specs, path, 0.10, log), 1);
  const harness::RunResult skipped = specs[0].cells[0].run();
  EXPECT_TRUE(skipped.screened);
  EXPECT_DOUBLE_EQ(skipped.seconds, 0.95);
  EXPECT_EQ(skipped.screen_note, "compute: 0.95");
  // The skip is logged with the predicted value and the model term.
  EXPECT_NE(log.str().find("screen: skip IS/LRC_d/4p"), std::string::npos);
  EXPECT_NE(log.str().find("0.950000 s"), std::string::npos);
  EXPECT_NE(log.str().find("compute: 0.95"), std::string::npos);
  // Out-of-tolerance and unknown cells still simulate.
  EXPECT_FALSE(specs[0].cells[1].run().screened);
  EXPECT_FALSE(specs[0].cells[2].run().screened);
  EXPECT_EQ(simulated, 2);

  EXPECT_ANY_THROW(
      bench::applyScreen(specs, path + ".does-not-exist", 0.10, log));
  std::remove(path.c_str());
}

// --- diff_compare -------------------------------------------------------

// Runs the gate's comparator with printing routed to a sink.
bench::diff::Report runCompare(const std::string& base,
                               const std::string& cur,
                               const bench::diff::Config& cfg) {
  bench::diff::Report rep;
  std::ostringstream sink;
  rep.out = &sink;
  bench::diff::compare(Json::parse(base), Json::parse(cur), "$", cfg, rep);
  rep.out = nullptr;  // the sink dies here; nobody prints after
  return rep;
}

// Mismatch count under the default config.
int mismatches(const std::string& base, const std::string& cur) {
  return runCompare(base, cur, bench::diff::Config{}).mismatches;
}

TEST(DiffCompare, HostShapeKeysAreIgnored) {
  EXPECT_TRUE(bench::diff::isIgnoredKey("jobs"));
  EXPECT_TRUE(bench::diff::isIgnoredKey("sim_threads"));
  EXPECT_TRUE(bench::diff::isIgnoredKey("host"));
  EXPECT_FALSE(bench::diff::isIgnoredKey("sim_seconds"));
  EXPECT_FALSE(bench::diff::isIgnoredKey("messages"));
  EXPECT_TRUE(bench::diff::isHostTimingKey("host_seconds"));
  EXPECT_TRUE(bench::diff::isHostTimingKey("speedup_vs_serial"));
  EXPECT_FALSE(bench::diff::isHostTimingKey("sim_seconds"));
}

TEST(DiffCompare, HostMetadataMayAppearWithoutRegeneratingTheBaseline) {
  // The committed baseline predates the "host" record; a current file that
  // carries one (with any contents) must still gate clean, in both
  // directions, and differing host contents must never count as drift.
  const std::string base = R"({"suite": "t", "sim_seconds": 1.5})";
  const std::string cur =
      R"({"suite": "t", "sim_seconds": 1.5,
          "host": {"cores": 64, "jobs": 8, "compiler": "gcc 12"}})";
  EXPECT_EQ(mismatches(base, cur), 0);
  EXPECT_EQ(mismatches(cur, base), 0);
  const std::string other_host =
      R"({"suite": "t", "sim_seconds": 1.5,
          "host": {"cores": 1, "jobs": 1, "compiler": "clang 17"}})";
  EXPECT_EQ(mismatches(cur, other_host), 0);
}

TEST(DiffCompare, ThreadCountsNeverCompare) {
  EXPECT_EQ(mismatches(R"({"jobs": 1, "sim_threads": 1, "messages": 10})",
                       R"({"jobs": 32, "sim_threads": 4, "messages": 10})"),
            0);
  // The committed baselines carry "sim_threads" per cell; a fresh record
  // from the serial-only engine lacks it, and that is not drift.
  const std::string base =
      R"({"cells": [{"id": "c", "sim_threads": 1, "messages": 10}]})";
  const std::string fresh = R"({"cells": [{"id": "c", "messages": 10}]})";
  EXPECT_EQ(mismatches(base, fresh), 0);
}

TEST(DiffCompare, SimulatedDriftStillFails) {
  EXPECT_EQ(mismatches(R"({"sim_seconds": 1.5})", R"({"sim_seconds": 1.6})"),
            1);
  // A non-ignored key appearing or disappearing is drift too.
  EXPECT_EQ(mismatches(R"({"a": 1})", R"({"a": 1, "b": 2})"), 1);
  EXPECT_EQ(mismatches(R"({"a": 1, "b": 2})", R"({"a": 1})"), 1);
}

TEST(DiffCompare, HostTimingsGetToleranceNotEquality) {
  // 20x apart but above the floor: within the default 25x tolerance.
  EXPECT_EQ(mismatches(R"({"wall_seconds": 10.0})",
                       R"({"wall_seconds": 200.0})"),
            0);
  // Beyond 25x: drift.
  EXPECT_EQ(mismatches(R"({"wall_seconds": 10.0})",
                       R"({"wall_seconds": 600.0})"),
            1);
  // Both under the 5s floor: noise, always passes.
  EXPECT_EQ(mismatches(R"({"host_seconds": 0.001})",
                       R"({"host_seconds": 4.9})"),
            0);
  // Present in only one file: not drift (run-shape dependent).
  EXPECT_EQ(mismatches(R"({"serial_wall_seconds": 9.0, "a": 1})",
                       R"({"a": 1})"),
            0);
}

TEST(DiffCompare, AxesCoordinateRecordsNeverCompare) {
  // "axes" is model_suite input (the cell's sweep coordinates), not a
  // simulated result: a baseline from before the axis sweeps must still
  // gate a current file that records them, and vice versa.
  EXPECT_TRUE(bench::diff::isIgnoredKey("axes"));
  const std::string base = R"({"id": "IS/LRC_d/16p/bw50", "sim_seconds": 2.0})";
  const std::string cur =
      R"({"id": "IS/LRC_d/16p/bw50", "sim_seconds": 2.0,
          "axes": {"procs": 16, "n_scale": 1, "bw_mbps": 50, "loss_pct": 0}})";
  EXPECT_EQ(mismatches(base, cur), 0);
  EXPECT_EQ(mismatches(cur, base), 0);
}

TEST(DiffCompare, ScreenedCellsAreDriftWithoutTheOptIn) {
  // A screened artifact must never slip through the default regression
  // gate: the screened cell carries none of the simulated fields, which
  // reads as drift unless --allow-screened was passed explicitly.
  const std::string base = R"({"cells": [{"id": "a", "sim_seconds": 1.5}]})";
  const std::string cur =
      R"({"cells": [{"id": "a", "screened": true,
                     "predicted_seconds": 1.4, "screen_note": "m"}],
          "screen": "model.json", "screened_cells": 1})";
  EXPECT_GT(mismatches(base, cur), 0);
}

TEST(DiffCompare, AllowScreenedSkipsPredictedCellsOnEitherSide) {
  bench::diff::Config cfg;
  cfg.allow_screened = true;
  const std::string measured =
      R"({"cells": [{"id": "a", "sim_seconds": 1.5},
                    {"id": "b", "sim_seconds": 2.5}]})";
  const std::string screened =
      R"({"cells": [{"id": "a", "screened": true,
                     "predicted_seconds": 1.4, "screen_note": "m"},
                    {"id": "b", "sim_seconds": 2.5}],
          "screen": "model.json", "screened_cells": 1})";
  bench::diff::Report rep = runCompare(measured, screened, cfg);
  EXPECT_EQ(rep.mismatches, 0);
  EXPECT_EQ(rep.screened_skipped, 1);
  // Symmetric: a screened BASELINE against a fresh measurement.
  rep = runCompare(screened, measured, cfg);
  EXPECT_EQ(rep.mismatches, 0);
  EXPECT_EQ(rep.screened_skipped, 1);
  // The opt-in only excuses screened cells — real drift in a cell that WAS
  // simulated still fails.
  const std::string drifted =
      R"({"cells": [{"id": "a", "screened": true,
                     "predicted_seconds": 1.4, "screen_note": "m"},
                    {"id": "b", "sim_seconds": 9.9}],
          "screen": "model.json", "screened_cells": 1})";
  EXPECT_EQ(runCompare(measured, drifted, cfg).mismatches, 1);
}

TEST(DiffCompare, AllowScreenedSkipsScreenedSweepTimingsOutsideCells) {
  bench::diff::Config cfg;
  cfg.allow_screened = true;
  // A full sweep timed at 27 s against a screened one at 0.8 s: both
  // timings are above the floor and 34x apart, but the screened sweep
  // simulated fewer cells, so its sweep and table times do not compare.
  const std::string full =
      R"({"wall_seconds": 27.0,
          "tables": [{"name": "t", "wall_seconds": 27.0, "cells": [
            {"id": "a", "sim_seconds": 1.5, "host_seconds": 20.0},
            {"id": "b", "sim_seconds": 2.5, "host_seconds": 7.0}]}]})";
  const std::string screened =
      R"({"screen": "model.json", "screened_cells": 1, "wall_seconds": 0.8,
          "tables": [{"name": "t", "wall_seconds": 0.8, "cells": [
            {"id": "a", "screened": true,
             "predicted_seconds": 1.4, "screen_note": "m"},
            {"id": "b", "sim_seconds": 2.5, "host_seconds": 0.7}]}]})";
  bench::diff::Report rep = runCompare(full, screened, cfg);
  EXPECT_EQ(rep.mismatches, 0);
  EXPECT_EQ(rep.sweep_timings_skipped, 2);
  EXPECT_EQ(rep.host_checked, 1);  // cell b's host_seconds still compares
  rep = runCompare(screened, full, cfg);
  EXPECT_EQ(rep.mismatches, 0);
  EXPECT_EQ(rep.sweep_timings_skipped, 2);

  // A simulated cell's host_seconds beyond 25x and above the floor still
  // fails, counted as a host timing rather than simulated drift.
  std::string slow_cell = screened;
  slow_cell.replace(slow_cell.find("0.7"), 3, "0.2");
  rep = runCompare(full, slow_cell, cfg);
  EXPECT_EQ(rep.mismatches, 1);
  EXPECT_EQ(rep.host_mismatches, 1);
  EXPECT_EQ(rep.simulatedMismatches(), 0);

  // The same sweep drift in an unscreened document still fails, with the
  // flag set and without it.
  std::string fast_sweep = full;
  for (size_t at; (at = fast_sweep.find("27.0")) != std::string::npos;)
    fast_sweep.replace(at, 4, "0.8");
  rep = runCompare(full, fast_sweep, cfg);
  EXPECT_EQ(rep.mismatches, 2);
  EXPECT_EQ(rep.host_mismatches, 2);
  EXPECT_EQ(rep.sweep_timings_skipped, 0);
  EXPECT_EQ(mismatches(full, fast_sweep), 2);
}

}  // namespace
}  // namespace vodsm
