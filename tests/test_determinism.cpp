// Determinism regression: the same RunConfig + seed must produce a
// bit-identical RunResult (a) across repeated runs, (b) under the serial
// runner versus the parallel runner, and (c) independently of how many
// sibling cells execute concurrently. This is the guarantee the parallel
// experiment driver rests on: a cell owns its whole simulator stack, so
// host-thread scheduling can never leak into simulated results.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "apps/nn.hpp"
#include "apps/sor.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/run.hpp"
#include "support/check.hpp"

namespace vodsm {
namespace {

using harness::RunConfig;
using harness::RunResult;

// Exact (bit-level) comparison of every field the tables report.
void expectResultEq(const RunResult& a, const RunResult& b,
                    const std::string& what) {
  EXPECT_EQ(a.seconds, b.seconds) << what;  // doubles: bit-identical or bust
  EXPECT_EQ(a.dsm.barriers, b.dsm.barriers) << what;
  EXPECT_EQ(a.dsm.acquires, b.dsm.acquires) << what;
  EXPECT_EQ(a.dsm.diff_requests, b.dsm.diff_requests) << what;
  EXPECT_EQ(a.dsm.page_faults, b.dsm.page_faults) << what;
  EXPECT_EQ(a.dsm.diffs_created, b.dsm.diffs_created) << what;
  EXPECT_EQ(a.dsm.diffs_applied, b.dsm.diffs_applied) << what;
  EXPECT_EQ(a.dsm.notices_recorded, b.dsm.notices_recorded) << what;
  EXPECT_EQ(a.dsm.barrier_wait_total, b.dsm.barrier_wait_total) << what;
  EXPECT_EQ(a.dsm.barrier_waits, b.dsm.barrier_waits) << what;
  EXPECT_EQ(a.dsm.acquire_wait_total, b.dsm.acquire_wait_total) << what;
  EXPECT_EQ(a.dsm.acquire_waits, b.dsm.acquire_waits) << what;
  EXPECT_EQ(a.net.frames_sent, b.net.frames_sent) << what;
  EXPECT_EQ(a.net.frames_delivered, b.net.frames_delivered) << what;
  EXPECT_EQ(a.net.frames_dropped_overflow, b.net.frames_dropped_overflow)
      << what;
  EXPECT_EQ(a.net.frames_dropped_random, b.net.frames_dropped_random) << what;
  EXPECT_EQ(a.net.wire_bytes, b.net.wire_bytes) << what;
  EXPECT_EQ(a.net.messages, b.net.messages) << what;
  EXPECT_EQ(a.net.acks, b.net.acks) << what;
  EXPECT_EQ(a.net.payload_bytes, b.net.payload_bytes) << what;
  EXPECT_EQ(a.net.retransmissions, b.net.retransmissions) << what;
}

// A small but protocol-diverse cell sweep: all four apps, all three
// protocols represented, sizes chosen so the whole suite stays in test
// time.
std::vector<std::pair<std::string, std::function<RunResult()>>> makeCells() {
  std::vector<std::pair<std::string, std::function<RunResult()>>> cells;

  apps::IsParams is;
  is.n_keys = 1 << 12;
  is.max_key = (1 << 8) - 1;
  is.iterations = 3;
  for (auto [name, proto, variant] :
       {std::tuple{"IS/LRC_d", dsm::Protocol::kLrcDiff,
                   apps::IsVariant::kTraditional},
        std::tuple{"IS/VC_d", dsm::Protocol::kVcDiff, apps::IsVariant::kVopp},
        std::tuple{"IS/VC_sd", dsm::Protocol::kVcSd,
                   apps::IsVariant::kVopp}}) {
    RunConfig c;
    c.protocol = proto;
    c.nprocs = 4;
    cells.emplace_back(name,
                       [=] { return apps::runIs(c, is, variant).result; });
  }

  apps::GaussParams gauss;
  gauss.n = 64;
  {
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = 4;
    cells.emplace_back("Gauss/VC_sd", [=] {
      return apps::runGauss(c, gauss, apps::GaussVariant::kVopp).result;
    });
  }

  apps::SorParams sor;
  sor.rows = 64;
  sor.cols = 64;
  sor.iterations = 3;
  {
    RunConfig c;
    c.protocol = dsm::Protocol::kLrcDiff;
    c.nprocs = 4;
    cells.emplace_back("SOR/LRC_d", [=] {
      return apps::runSor(c, sor, apps::SorVariant::kTraditional).result;
    });
  }

  apps::NnParams nn;
  nn.samples = 64;
  nn.epochs = 3;
  {
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = 4;
    cells.emplace_back("NN/MPI", [=] {
      return apps::runNn(c, nn, apps::NnVariant::kMpi).result;
    });
  }

  // A lossy-network cell: retransmission paths must be deterministic too
  // (the loss RNG is seeded per run, not shared).
  {
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = 4;
    c.net.random_loss = 0.02;
    c.net.rto = sim::msec(20);
    cells.emplace_back("IS/VC_sd/lossy", [=] {
      return apps::runIs(c, is, apps::IsVariant::kVopp).result;
    });
  }

  // Multi-switch fabrics with the scalable protocol stack: trunk FIFOs,
  // tree/butterfly barrier traffic, and hashed/migrating view homes all
  // add event paths that must stay deterministic too.
  {
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = 8;
    VODSM_CHECK(net::parseTopologySpec("fattree:leaf=4", &c.net.topology));
    c.proto.barrier = dsm::BarrierAlg::kTree;
    c.proto.view_homes = dsm::ViewHomes::kHashed;
    cells.emplace_back("IS/VC_sd/fattree-tree", [=] {
      return apps::runIs(c, is, apps::IsVariant::kVopp).result;
    });
  }
  {
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = 8;
    VODSM_CHECK(net::parseTopologySpec("leafspine:leaf=4,spines=2",
                                       &c.net.topology));
    c.proto.barrier = dsm::BarrierAlg::kButterfly;
    c.proto.view_homes = dsm::ViewHomes::kMigrate;
    cells.emplace_back("IS/VC_sd/leafspine-butterfly", [=] {
      return apps::runIs(c, is, apps::IsVariant::kVopp).result;
    });
  }

  // Fault-injected cells: the injector's per-destination RNG shards and
  // budgets must behave identically on every run.
  for (const char* profile : {"profile:mixed", "profile:partition"}) {
    static std::map<std::string, net::FaultPlan> plans;
    auto [it, inserted] = plans.try_emplace(profile);
    if (inserted) it->second = net::parseFaultPlan(profile);
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = 4;
    c.faults = &it->second;
    cells.emplace_back(std::string("IS/VC_sd/") + profile, [=] {
      return apps::runIs(c, is, apps::IsVariant::kVopp).result;
    });
  }

  return cells;
}

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  for (auto& [name, run] : makeCells()) {
    RunResult first = run();
    RunResult second = run();
    expectResultEq(first, second, name + " (repeat)");
  }
}

TEST(Determinism, ParallelRunnerMatchesSerialRunner) {
  auto cells = makeCells();
  std::vector<std::function<RunResult()>> tasks;
  for (auto& [name, run] : cells) tasks.push_back(run);

  // Serial runner: jobs=1 is the documented serial fallback path.
  std::vector<RunResult> serial = harness::runAll(tasks, /*jobs=*/1);
  // Parallel runner: more workers than cells, to force real interleaving.
  std::vector<RunResult> parallel = harness::runAll(tasks, /*jobs=*/8);
  // And again, to catch any run-to-run wobble under threading.
  std::vector<RunResult> parallel2 = harness::runAll(tasks, /*jobs=*/3);

  ASSERT_EQ(serial.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    expectResultEq(serial[i], parallel[i], cells[i].first + " (serial vs 8j)");
    expectResultEq(serial[i], parallel2[i], cells[i].first + " (serial vs 3j)");
  }
}

TEST(ParallelRunner, PreservesSubmissionOrder) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back([i] { return i * i; });
  auto out = harness::runAll(tasks, /*jobs=*/7);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST(ParallelRunner, PropagatesTaskExceptions) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 10; ++i)
    tasks.push_back([i]() -> int {
      if (i == 5) throw std::runtime_error("cell 5 exploded");
      return i;
    });
  EXPECT_THROW(harness::runAll(tasks, /*jobs=*/4), std::runtime_error);
  EXPECT_THROW(harness::runAll(tasks, /*jobs=*/1), std::runtime_error);
}

TEST(ParallelRunner, JobResolution) {
  EXPECT_GE(harness::defaultJobs(), 1);
  EXPECT_EQ(harness::resolveJobs(-3), 1);
  EXPECT_EQ(harness::resolveJobs(5), 5);
  EXPECT_GE(harness::resolveJobs(0), 1);
}

}  // namespace
}  // namespace vodsm
