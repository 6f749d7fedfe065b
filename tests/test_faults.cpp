// Unit tests for deterministic fault injection (net/faults.hpp).
//
//  * The spec parser: CLI grammar, node sets, profiles, JSON plans, errors.
//  * Injector mechanics: windows, periods, budgets, partitions, stragglers.
//  * Exact retransmission accounting: surgically dropping one data frame,
//    one ack, or one reply must produce a predictable resend count and
//    still deliver exactly once.
//  * Observation never perturbs: a null plan, an empty plan, and an
//    out-of-window plan produce bit-identical runs and traces.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/is.hpp"
#include "harness/run.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "sim/task.hpp"

namespace vodsm::net {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(FaultPlan, EmptySpecIsEmpty) {
  FaultPlan p = parseFaultPlan("");
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.seed, 0u);
}

TEST(FaultPlan, CliGrammarParsesKeysAndWindows) {
  FaultPlan p =
      parseFaultPlan("loss:p=0.25,from=0,to=3,t0=0.5,t1=2.5,count=7");
  ASSERT_EQ(p.rules.size(), 1u);
  const FaultRule& r = p.rules[0];
  EXPECT_EQ(r.kind, FaultKind::kLoss);
  EXPECT_DOUBLE_EQ(r.p, 0.25);
  EXPECT_EQ(r.src, 0u);
  EXPECT_EQ(r.dst, 3u);
  EXPECT_EQ(r.t0, sim::msec(500));
  EXPECT_EQ(r.t1, sim::msec(2500));
  EXPECT_EQ(r.budget, 7u);
}

TEST(FaultPlan, MultiSegmentSpecAndSeed) {
  FaultPlan p = parseFaultPlan("seed:42;loss:p=0.1;degrade:bw=4,lat=0.0003");
  EXPECT_EQ(p.seed, 42u);
  ASSERT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.rules[0].kind, FaultKind::kLoss);
  EXPECT_EQ(p.rules[1].kind, FaultKind::kDegrade);
  EXPECT_DOUBLE_EQ(p.rules[1].factor, 4.0);
  EXPECT_EQ(p.rules[1].delay, sim::usec(300));
}

TEST(FaultPlan, NodeSetSyntax) {
  FaultPlan p = parseFaultPlan("partition:nodes=0+2-4");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.rules[0].node_set, 0b11101ull);
}

TEST(FaultPlan, SlowOverNodeSetExpandsPerNode) {
  FaultPlan p = parseFaultPlan("slow:nodes=1-2,factor=3");
  ASSERT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.rules[0].kind, FaultKind::kSlow);
  EXPECT_EQ(p.rules[0].node, 1u);
  EXPECT_EQ(p.rules[1].node, 2u);
  EXPECT_EQ(p.rules[0].node_set, 0u);
  EXPECT_DOUBLE_EQ(p.rules[1].factor, 3.0);
}

void expectSameRule(const FaultRule& a, const FaultRule& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.t0, b.t0);
  EXPECT_EQ(a.t1, b.t1);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.duty, b.duty);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.node_set, b.node_set);
  EXPECT_DOUBLE_EQ(a.p, b.p);
  EXPECT_DOUBLE_EQ(a.factor, b.factor);
  EXPECT_EQ(a.delay, b.delay);
  EXPECT_EQ(a.budget, b.budget);
}

TEST(FaultPlan, EveryProfileExpands) {
  for (const std::string& name : chaosProfileNames()) {
    FaultPlan via_profile = parseFaultPlan("profile:" + name);
    FaultPlan direct = parseFaultPlan(chaosProfileSpec(name));
    EXPECT_FALSE(via_profile.empty()) << name;
    ASSERT_EQ(via_profile.rules.size(), direct.rules.size()) << name;
    for (size_t i = 0; i < direct.rules.size(); ++i)
      expectSameRule(via_profile.rules[i], direct.rules[i]);
  }
}

TEST(FaultPlan, JsonFileRoundTrip) {
  const std::string path = testing::TempDir() + "fault_plan.json";
  {
    std::ofstream out(path);
    out << R"({"seed": 7, "rules": [)"
        << R"({"kind": "loss", "p": 0.5, "t0": 0.001, "count": 3},)"
        << R"({"kind": "partition", "nodes": [1, 3]},)"
        << R"({"kind": "slow", "nodes": [0, 2], "factor": 2.5}]})";
  }
  FaultPlan p = parseFaultPlan("@" + path);
  EXPECT_EQ(p.seed, 7u);
  ASSERT_EQ(p.rules.size(), 4u);  // the slow set expands to two rules
  EXPECT_EQ(p.rules[0].kind, FaultKind::kLoss);
  EXPECT_DOUBLE_EQ(p.rules[0].p, 0.5);
  EXPECT_EQ(p.rules[0].t0, sim::msec(1));
  EXPECT_EQ(p.rules[0].budget, 3u);
  EXPECT_EQ(p.rules[1].kind, FaultKind::kPartition);
  EXPECT_EQ(p.rules[1].node_set, 0b1010ull);
  EXPECT_EQ(p.rules[2].node, 0u);
  EXPECT_EQ(p.rules[3].node, 2u);
}

TEST(FaultPlan, BareJsonArrayIsAPlan) {
  const std::string path = testing::TempDir() + "fault_rules.json";
  {
    std::ofstream out(path);
    out << R"([{"kind": "dup", "p": 0.25}])";
  }
  FaultPlan p = parseFaultPlan("@" + path);
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.rules[0].kind, FaultKind::kDup);
  EXPECT_EQ(p.seed, 0u);
}

TEST(FaultPlan, MalformedSpecsThrow) {
  EXPECT_THROW(parseFaultPlan("zap:p=1"), Error);        // unknown kind
  EXPECT_THROW(parseFaultPlan("loss:zzz=1"), Error);     // unknown key
  EXPECT_THROW(parseFaultPlan("loss:p=1.5"), Error);     // p outside [0,1]
  EXPECT_THROW(parseFaultPlan("loss:p"), Error);         // missing value
  EXPECT_THROW(parseFaultPlan("partition"), Error);      // needs nodes
  EXPECT_THROW(parseFaultPlan("slow:factor=2"), Error);  // needs node
  EXPECT_THROW(parseFaultPlan("burst:period=0.1"), Error);  // needs duty
  EXPECT_THROW(parseFaultPlan("partition:nodes=64"), Error);
  EXPECT_THROW(parseFaultPlan("profile:nope"), Error);
  EXPECT_THROW(parseFaultPlan("@/nonexistent/plan.json"), Error);
}

// ---------------------------------------------------------------------------
// Injector mechanics (onFrame queried directly).

TEST(FaultInjector, BurstBudgetDropsExactly) {
  FaultInjector inj(parseFaultPlan("burst:from=0,to=1,count=2"), 1, 2);
  EXPECT_TRUE(inj.onFrame(0, 1, 0).drop);
  EXPECT_FALSE(inj.onFrame(1, 0, 0).drop);  // reverse link untouched
  EXPECT_TRUE(inj.onFrame(0, 1, 0).drop);
  EXPECT_FALSE(inj.onFrame(0, 1, 0).drop);  // budget exhausted
  EXPECT_EQ(inj.droppedBy(0), 2u);
}

TEST(FaultInjector, WindowGatesHalfOpen) {
  FaultInjector inj(parseFaultPlan("loss:p=1,t0=0.001,t1=0.002"), 1, 2);
  EXPECT_FALSE(inj.onFrame(0, 1, sim::usec(500)).drop);
  EXPECT_TRUE(inj.onFrame(0, 1, sim::usec(1500)).drop);
  EXPECT_TRUE(inj.onFrame(0, 1, sim::msec(1)).drop);    // t0 inclusive
  EXPECT_FALSE(inj.onFrame(0, 1, sim::msec(2)).drop);   // t1 exclusive
}

TEST(FaultInjector, PeriodicDutyCycle) {
  FaultInjector inj(parseFaultPlan("burst:period=0.01,duty=0.002"), 1, 2);
  EXPECT_TRUE(inj.onFrame(0, 1, sim::usec(500)).drop);     // in first duty
  EXPECT_FALSE(inj.onFrame(0, 1, sim::msec(5)).drop);      // between bursts
  EXPECT_TRUE(inj.onFrame(0, 1, sim::usec(10500)).drop);   // next period
}

TEST(FaultInjector, PartitionDropsBoundaryCrossingsOnly) {
  FaultInjector inj(parseFaultPlan("partition:nodes=1"), 1, 3);
  EXPECT_TRUE(inj.onFrame(0, 1, 0).drop);
  EXPECT_TRUE(inj.onFrame(1, 2, 0).drop);
  EXPECT_FALSE(inj.onFrame(0, 2, 0).drop);  // both outside the set
}

TEST(FaultInjector, SlowRuleScalesOnlyItsNodeInWindow) {
  FaultInjector inj(parseFaultPlan("slow:node=1,factor=4,t0=0,t1=0.01"), 1,
                    2);
  EXPECT_EQ(inj.chargeScalerFor(0), nullptr);
  const sim::ChargeScaler* s = inj.chargeScalerFor(1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->scale(1000, sim::msec(5)), 4000);
  EXPECT_EQ(s->scale(1000, sim::msec(20)), 1000);  // window over
}

TEST(FaultInjector, DegradeStacksAndReorderAddsDelay) {
  FaultInjector inj(
      parseFaultPlan("degrade:bw=2;degrade:bw=3,lat=0.0001;reorder:p=1,"
                     "delay=0.0002"),
      1, 2);
  FaultAction a = inj.onFrame(0, 1, 0);
  EXPECT_FALSE(a.drop);
  EXPECT_TRUE(a.degraded);
  EXPECT_TRUE(a.reordered);
  EXPECT_DOUBLE_EQ(a.tx_factor, 6.0);
  EXPECT_EQ(a.extra_delay, sim::usec(300));
}

// ---------------------------------------------------------------------------
// Exact retransmission accounting through the reliable transport.

struct Pair {
  sim::Engine engine;
  NetConfig cfg;
  Network net;
  Endpoint a, b;
  explicit Pair(NetConfig c = NetConfig{}, uint64_t seed = 1)
      : cfg(c), net(engine, 2, cfg, seed), a(engine, net, 0),
        b(engine, net, 1) {}
};

NetConfig fastRto() {
  NetConfig cfg;
  cfg.rto = sim::msec(50);
  return cfg;
}

TEST(FaultTransport, DroppedDataFrameIsResentExactlyOnce) {
  Pair p(fastRto());
  FaultInjector inj(parseFaultPlan("burst:from=0,to=1,count=1"), 1, 2);
  p.net.setFaults(&inj);
  int count = 0;
  p.b.setHandler([&](Delivery&&, const ReplyToken&) { count++; });
  p.a.post(1, 9, Bytes(100), 0);
  p.engine.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(p.net.stats().frames_dropped_fault, 1u);
  EXPECT_EQ(p.net.stats().retransmissions, 1u);
  EXPECT_EQ(p.net.stats().acks, 1u);
  EXPECT_EQ(p.net.stats().frames_delivered + p.net.stats().frames_dropped_fault,
            p.net.stats().frames_sent);
}

TEST(FaultTransport, DroppedAckForcesResendButDeliversOnce) {
  Pair p(fastRto());
  // The first frame b sends back to a is the ack for the post.
  FaultInjector inj(parseFaultPlan("burst:from=1,to=0,count=1"), 1, 2);
  p.net.setFaults(&inj);
  int count = 0;
  p.b.setHandler([&](Delivery&&, const ReplyToken&) { count++; });
  p.a.post(1, 9, Bytes(100), 0);
  p.engine.run();
  EXPECT_EQ(count, 1);  // the duplicate data frame is deduplicated
  EXPECT_EQ(p.net.stats().frames_dropped_fault, 1u);
  EXPECT_EQ(p.net.stats().retransmissions, 1u);
  EXPECT_EQ(p.net.stats().acks, 2u);  // re-acked on the duplicate
  EXPECT_EQ(p.net.stats().ack_drops, 1u);
}

TEST(FaultTransport, DroppedReplyIsServedFromReplyCache) {
  Pair p(fastRto());
  // The first frame b sends back to a is the reply itself (replies double
  // as acks for requests).
  FaultInjector inj(parseFaultPlan("burst:from=1,to=0,count=1"), 1, 2);
  p.net.setFaults(&inj);
  int served = 0;
  p.b.setHandler([&](Delivery&& d, const ReplyToken& tok) {
    served++;
    p.b.reply(tok, static_cast<uint16_t>(d.type + 1),
              Bytes(d.payload.begin(), d.payload.end()), d.arrive);
  });
  int completed = 0;
  sim::spawn([](Endpoint& ep, int& done) -> sim::Task<void> {
    auto r = co_await ep.request(1, 5, Bytes(64), 0);
    EXPECT_EQ(r.type, 6);
    done++;
  }(p.a, completed));
  p.engine.run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(served, 1);  // handler never re-runs; the parked reply answers
  EXPECT_EQ(p.net.stats().frames_dropped_fault, 1u);
  // Two resends: the requester repeats the request, the responder replays
  // the reply parked in it.
  EXPECT_EQ(p.net.stats().retransmissions, 2u);
}

TEST(FaultTransport, DroppedReplyIsServedUnderManyConcurrentRequests) {
  Pair p(fastRto());
  // The first of 70 replies is lost. By the time its request is resent,
  // the other 69 have been answered; the lost one must still be replayed.
  FaultInjector inj(parseFaultPlan("burst:from=1,to=0,count=1"), 1, 2);
  p.net.setFaults(&inj);
  int served = 0;
  p.b.setHandler([&](Delivery&& d, const ReplyToken& tok) {
    served++;
    p.b.reply(tok, static_cast<uint16_t>(d.type + 1), Bytes(8), d.arrive);
  });
  int completed = 0;
  for (int i = 0; i < 70; ++i) {
    sim::spawn([](Endpoint& ep, int& done) -> sim::Task<void> {
      co_await ep.request(1, 5, Bytes(8), 0);
      done++;
    }(p.a, completed));
  }
  // A lost reply that cannot be replayed retries forever, so bound the run.
  while (p.engine.now() < sim::msec(500) && p.engine.step()) {
  }
  EXPECT_EQ(completed, 70);
  EXPECT_EQ(served, 70);
}

TEST(FaultTransport, ReplyIsFreedWithItsRequest) {
  Pair p;
  std::weak_ptr<const FrameData> request;
  std::weak_ptr<const FrameData> reply;
  bool parked = false;
  p.b.setHandler([&](Delivery&& d, const ReplyToken& tok) {
    p.b.reply(tok, static_cast<uint16_t>(d.type + 1), Bytes(64), d.arrive);
    parked = tok.request && tok.request->reply;
    request = tok.request;
    reply = tok.request->reply;
  });
  int completed = 0;
  sim::spawn([](Endpoint& ep, int& done) -> sim::Task<void> {
    co_await ep.request(1, 5, Bytes(64), 0);
    done++;
  }(p.a, completed));
  p.engine.run();
  EXPECT_EQ(completed, 1);
  EXPECT_TRUE(parked);
  EXPECT_TRUE(request.expired());
  EXPECT_TRUE(reply.expired());
}

// The same lifetime for a reply that shares its body: a diff reply's
// segments are the responder's logged diffs. Under dup:p=1 every request
// arrives twice, and the copy is answered from the parked reply without
// re-running the handler. The parked reply, and what the requester
// receives, alias the responder's buffer rather than copying it, and the
// reply is still freed with its request, leaving the responder's log as
// the buffer's only holder.
TEST(FaultTransport, SegmentedReplyIsResentFromItsRequestUnderDup) {
  Pair p(fastRto());
  FaultInjector inj(parseFaultPlan("dup:p=1"), 1, 2);
  p.net.setFaults(&inj);
  const SharedBytes logged = std::make_shared<const Bytes>(Bytes(256));
  std::weak_ptr<const FrameData> request;
  std::weak_ptr<const FrameData> reply;
  int served = 0;
  bool parked_aliases = false;
  p.b.setHandler([&](Delivery&& d, const ReplyToken& tok) {
    served++;
    Payload body{Bytes(4)};
    body.segments.push_back(logged);
    p.b.reply(tok, static_cast<uint16_t>(d.type + 1), std::move(body),
              d.arrive);
    request = tok.request;
    reply = tok.request->reply;
    parked_aliases = tok.request->reply &&
                     tok.request->reply->payload.segments.at(0) == logged;
  });
  int completed = 0;
  bool received_aliases = false;
  sim::spawn([](Endpoint& ep, const SharedBytes& want, int& done,
                bool& aliases) -> sim::Task<void> {
    RpcResult r = co_await ep.request(1, 5, Bytes(64), 0);
    aliases = r.frame->payload.segments.at(0) == want;
    done++;
  }(p.a, logged, completed, received_aliases));
  p.engine.run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(served, 1);
  EXPECT_TRUE(parked_aliases);
  EXPECT_TRUE(received_aliases);
  // The duplicate request drew one resend of the parked reply, and no RTO
  // fired.
  EXPECT_GT(p.net.stats().frames_duplicated, 0u);
  EXPECT_EQ(p.net.stats().retransmissions, 1u);
  EXPECT_EQ(p.net.stats().of(MsgClass::kOther).retransmissions, 1u);
  EXPECT_TRUE(request.expired());
  EXPECT_TRUE(reply.expired());
  EXPECT_EQ(logged.use_count(), 1);
}

TEST(FaultTransport, PartitionWindowYieldsExactRetransmitCount) {
  Pair p(fastRto());
  // Node 1 unreachable for 120 ms with a 50 ms RTO: the original send and
  // the resends at 50 and 100 ms die; the resend at 150 ms gets through.
  FaultInjector inj(parseFaultPlan("partition:nodes=1,t0=0,t1=0.12"), 1, 2);
  p.net.setFaults(&inj);
  int count = 0;
  p.b.setHandler([&](Delivery&&, const ReplyToken&) { count++; });
  p.a.post(1, 9, Bytes(100), 0);
  p.engine.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(p.net.stats().frames_dropped_fault, 3u);
  EXPECT_EQ(p.net.stats().retransmissions, 3u);
  EXPECT_EQ(p.net.stats().acks, 1u);
}

TEST(FaultTransport, DuplicationConservesFramesAndDeliversOnce) {
  Pair p(fastRto());
  FaultInjector inj(parseFaultPlan("dup:p=1"), 1, 2);
  p.net.setFaults(&inj);
  int count = 0;
  p.b.setHandler([&](Delivery&&, const ReplyToken&) { count++; });
  for (int i = 0; i < 10; ++i) p.a.post(1, 9, Bytes(20), 0);
  p.engine.run();
  EXPECT_EQ(count, 10);
  const NetStats& s = p.net.stats();
  EXPECT_GT(s.frames_duplicated, 0u);
  EXPECT_EQ(s.frames_delivered + s.frames_dropped_overflow +
                s.frames_dropped_random + s.frames_dropped_fault,
            s.frames_sent + s.frames_duplicated);
  EXPECT_EQ(s.retransmissions, 0u);  // duplicates never trip the RTO
}

TEST(FaultTransport, ReorderStillDeliversEveryPostExactlyOnce) {
  Pair p(fastRto());
  FaultInjector inj(parseFaultPlan("reorder:p=1,delay=0.0005"), 1, 2);
  p.net.setFaults(&inj);
  int count = 0;
  p.b.setHandler([&](Delivery&&, const ReplyToken&) { count++; });
  for (int i = 0; i < 5; ++i) p.a.post(1, 9, Bytes(200), 0);
  p.engine.run();
  EXPECT_EQ(count, 5);
  EXPECT_GT(p.net.stats().frames_reordered, 0u);
  EXPECT_EQ(p.net.stats().frames_delivered,
            p.net.stats().frames_sent);  // reordering never loses frames
}

// ---------------------------------------------------------------------------
// Absent means absent: a run with no plan, an empty plan, and a plan whose
// rules can never fire must be bit-identical (results and trace streams).

apps::IsParams tinyIs() {
  apps::IsParams p;
  p.n_keys = 1 << 10;
  p.max_key = (1 << 7) - 1;
  p.iterations = 2;
  return p;
}

struct TracedRun {
  harness::RunResult result;
  std::vector<obs::Event> events;
};

TracedRun runTracedIs(const FaultPlan* plan) {
  harness::RunConfig c;
  c.protocol = dsm::Protocol::kVcSd;
  c.nprocs = 4;
  c.faults = plan;
  obs::TraceRecorder rec;
  c.trace = &rec;
  harness::RunResult r =
      apps::runIs(c, tinyIs(), apps::IsVariant::kVopp).result;
  return {r, rec.events()};
}

void expectIdentical(const TracedRun& a, const TracedRun& b,
                     const std::string& what) {
  EXPECT_EQ(a.result.seconds, b.result.seconds) << what;
  EXPECT_EQ(a.result.net.frames_sent, b.result.net.frames_sent) << what;
  EXPECT_EQ(a.result.net.retransmissions, b.result.net.retransmissions)
      << what;
  EXPECT_EQ(a.result.net.frames_dropped_fault, 0u) << what;
  EXPECT_EQ(a.result.dsm.barrier_wait_total, b.result.dsm.barrier_wait_total)
      << what;
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  EXPECT_EQ(std::memcmp(a.events.data(), b.events.data(),
                        a.events.size() * sizeof(obs::Event)),
            0)
      << what;
}

TEST(FaultByteIdentity, AbsentEmptyAndInertPlansMatch) {
  TracedRun null_plan = runTracedIs(nullptr);
  FaultPlan empty;
  TracedRun empty_plan = runTracedIs(&empty);
  // Real rules whose window opens long after this ~half-second run ends:
  // the injector is installed but must neither fire nor perturb timing.
  FaultPlan inert = parseFaultPlan(
      "loss:p=1,t0=1000;dup:p=1,t0=1000;degrade:bw=9,t0=1000;"
      "slow:node=1,factor=9,t0=1000");
  TracedRun inert_plan = runTracedIs(&inert);
  expectIdentical(null_plan, empty_plan, "null vs empty plan");
  expectIdentical(null_plan, inert_plan, "null vs inert plan");
}

}  // namespace
}  // namespace vodsm::net
