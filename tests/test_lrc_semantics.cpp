// Focused LRC_d semantic tests: happens-before ordering of fetched diffs,
// multi-writer (false sharing) merges, lock manager behaviour, barrier
// consistency and interval bookkeeping.
#include <gtest/gtest.h>

#include "vopp/cluster.hpp"

namespace vodsm {
namespace {

using dsm::Protocol;

vopp::ClusterOptions lrc(int nprocs) {
  vopp::ClusterOptions o;
  o.protocol = Protocol::kLrcDiff;
  o.nprocs = nprocs;
  return o;
}

// Regression for the happens-before bug: a counter passed through a long
// lock chain across many nodes, then read cold by a node that must apply
// one diff per predecessor in the right order. Absolute-value diffs applied
// out of order would lose updates.
TEST(LrcSemantics, DiffChainAppliesInHappensBeforeOrder) {
  constexpr int kProcs = 8;
  constexpr int kRounds = 12;
  vopp::Cluster cluster(lrc(kProcs));
  size_t off = cluster.allocShared(8);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int r = 0; r < kRounds; ++r) {
      co_await node.acquireLock(1);
      co_await node.touchWrite(off, 8);
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) += 1;
      co_await node.releaseLock(1);
    }
    co_await node.barrier();
    // Everyone reads cold: must merge the whole chain correctly.
    co_await node.touchRead(off, 8);
    int64_t got =
        *reinterpret_cast<const int64_t*>(node.memView(off, 8).data());
    if (got != int64_t{kProcs} * kRounds) throw Error("lost update in chain");
    co_await node.barrier();
  });
  SUCCEED();
}

// Two nodes write different halves of the same page concurrently (classic
// false sharing). After the barrier both halves must be visible everywhere
// — the multiple-writer merge through twins and diffs.
TEST(LrcSemantics, FalseSharingMergesConcurrentWriters) {
  constexpr int kProcs = 4;
  vopp::Cluster cluster(lrc(kProcs));
  size_t off = cluster.allocShared(kProcs * 64);  // one page, 4 slots
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t mine = off + static_cast<size_t>(node.id()) * 64;
    for (int r = 1; r <= 5; ++r) {
      co_await node.touchWrite(mine, 64);
      auto* p = reinterpret_cast<int64_t*>(node.mem(mine, 64).data());
      for (int k = 0; k < 8; ++k) p[k] = node.id() * 1000 + r;
      co_await node.barrier();
      // Every slot of every node must show this round's value.
      co_await node.touchRead(off, kProcs * 64);
      for (int q = 0; q < kProcs; ++q) {
        auto* s = reinterpret_cast<const int64_t*>(
            node.memView(off + static_cast<size_t>(q) * 64, 64).data());
        for (int k = 0; k < 8; ++k)
          if (s[k] != q * 1000 + r) throw Error("false-sharing merge lost");
      }
      co_await node.barrier();
    }
  });
  SUCCEED();
}

// A node that writes a page under one lock while receiving notices for the
// same page (from writers under another lock) must keep its own uncommitted
// changes through the invalidation (twin survives, fault merges under it).
TEST(LrcSemantics, InvalidationPreservesLocalUncommittedWrites) {
  vopp::Cluster cluster(lrc(2));
  size_t off = cluster.allocShared(128);  // two 64-byte slots, one page
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    if (node.id() == 0) {
      // Write slot 0 without synchronization, then acquire the lock that
      // node 1 used for slot 1: the grant invalidates our dirty page.
      co_await node.touchWrite(off, 64);
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) = 111;
      node.charge(sim::msec(5));  // let node 1 finish its critical section
      co_await node.acquireLock(7);
      co_await node.touchRead(off + 64, 8);
      int64_t theirs = *reinterpret_cast<const int64_t*>(
          node.memView(off + 64, 8).data());
      int64_t ours =
          *reinterpret_cast<const int64_t*>(node.memView(off, 8).data());
      if (theirs != 222) throw Error("missed the other writer's update");
      if (ours != 111) throw Error("lost own uncommitted write");
      co_await node.releaseLock(7);
    } else {
      co_await node.acquireLock(7);
      co_await node.touchWrite(off + 64, 8);
      *reinterpret_cast<int64_t*>(node.mem(off + 64, 8).data()) = 222;
      co_await node.releaseLock(7);
    }
    co_await node.barrier();
  });
  SUCCEED();
}

// Locks must be granted FIFO in manager arrival order under contention.
TEST(LrcSemantics, LocksAreMutuallyExclusive) {
  constexpr int kProcs = 6;
  vopp::Cluster cluster(lrc(kProcs));
  (void)cluster.allocShared(8);
  std::vector<std::pair<sim::Time, sim::Time>> holds;
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int r = 0; r < 3; ++r) {
      co_await node.acquireLock(5);
      sim::Time start = node.now();
      node.charge(sim::usec(500));
      holds.emplace_back(start, node.now());
      co_await node.releaseLock(5);
    }
    co_await node.barrier();
  });
  std::sort(holds.begin(), holds.end());
  for (size_t i = 1; i < holds.size(); ++i)
    EXPECT_GE(holds[i].first, holds[i - 1].second);
  EXPECT_EQ(holds.size(), static_cast<size_t>(kProcs) * 3);
}

// Distinct locks map to distinct managers and do not serialize each other.
TEST(LrcSemantics, IndependentLocksProceedInParallel) {
  constexpr int kProcs = 4;
  vopp::Cluster cluster(lrc(kProcs));
  (void)cluster.allocShared(8);
  std::vector<sim::Time> finish(kProcs);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    // Each node hammers its own lock id.
    for (int r = 0; r < 10; ++r) {
      co_await node.acquireLock(static_cast<dsm::LockId>(100 + node.id()));
      node.charge(sim::msec(1));
      co_await node.releaseLock(static_cast<dsm::LockId>(100 + node.id()));
    }
    finish[static_cast<size_t>(node.id())] = node.now();
    co_await node.barrier();
  });
  // If the locks serialized, the last node would finish ~4x later.
  sim::Time fastest = *std::min_element(finish.begin(), finish.end());
  sim::Time slowest = *std::max_element(finish.begin(), finish.end());
  EXPECT_LT(slowest, 2 * fastest);
}

// Barrier statistics: episodes counted once (not per node), acquires
// counted per call.
TEST(LrcSemantics, StatisticsCounting) {
  constexpr int kProcs = 3;
  vopp::Cluster cluster(lrc(kProcs));
  size_t off = cluster.allocShared(8);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int r = 0; r < 4; ++r) {
      co_await node.acquireLock(2);
      co_await node.touchWrite(off, 8);
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) += 1;
      co_await node.releaseLock(2);
      co_await node.barrier();
    }
  });
  auto stats = cluster.dsmStats();
  EXPECT_EQ(stats.barriers, 4u);                    // episodes
  EXPECT_EQ(stats.acquires, 4u * kProcs);           // calls
  EXPECT_EQ(stats.barrier_waits, 4u * kProcs);      // per-node waits
  EXPECT_GT(stats.diffs_created, 0u);
}

// Reads of never-written pages are satisfied locally (zeros, no traffic).
TEST(LrcSemantics, ColdPagesCostNothing) {
  vopp::Cluster cluster(lrc(2));
  size_t off = cluster.allocShared(64 * 1024);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    co_await node.touchRead(off, 64 * 1024);
    auto raw = node.memView(off, 64 * 1024);
    for (std::byte b : raw)
      if (b != std::byte{0}) throw Error("cold page not zeroed");
    co_await node.barrier();
  });
  EXPECT_EQ(cluster.dsmStats().diff_requests, 0u);
}

// The buffers that carried every barrier-release delivery of one LRC
// barrier on `nprocs` nodes. Each node first writes its own word of one
// shared page, so the release carries nprocs intervals. The stack is built
// by hand so each endpoint's handler can be wrapped to see the frames.
std::vector<SharedBytes> releaseBuffers(dsm::BarrierAlg alg, int nprocs) {
  sim::Engine engine;
  net::Network network(engine, nprocs, net::NetConfig{}, 1);
  dsm::ViewMap views;
  const size_t off = views.allocRaw(static_cast<size_t>(nprocs) * 8);
  dsm::ProtoOptions proto;
  proto.barrier = alg;
  std::vector<std::unique_ptr<dsm::NodeCtx>> ctxs;
  std::vector<std::unique_ptr<dsm::LrcRuntime>> runtimes;
  std::vector<SharedBytes> seen;
  for (int i = 0; i < nprocs; ++i) {
    ctxs.push_back(std::make_unique<dsm::NodeCtx>(
        static_cast<dsm::NodeId>(i), nprocs, engine, network, views,
        dsm::DsmCosts{}, nullptr, nullptr, proto));
    runtimes.push_back(std::make_unique<dsm::LrcRuntime>(*ctxs.back()));
    net::Endpoint& ep = ctxs.back()->endpoint;
    ep.setHandler([inner = ep.handler(), &seen](net::Delivery&& d,
                                               const net::ReplyToken& tok) {
      if (d.type == dsm::kBarrRelease)
        seen.push_back(d.frame->payload.segments.empty()
                           ? nullptr
                           : d.frame->payload.segments.front());
      inner(std::move(d), tok);
    });
  }
  sim::TaskScope scope;  // after the runtimes: frames go first
  for (int i = 0; i < nprocs; ++i) {
    sim::spawn(scope, [](dsm::Runtime& rt, size_t at) -> sim::Task<void> {
      co_await rt.touchWrite(at, 8);
      rt.ctx().store.range(at, 8)[0] = std::byte{1};
      co_await rt.barrier(0);
    }(*runtimes[static_cast<size_t>(i)], off + static_cast<size_t>(i) * 8));
  }
  engine.run();
  return seen;
}

// The central manager encodes the merged release once and posts that one
// buffer to all p nodes (not a copy per destination); the tree root posts
// its release as one buffer and every level forwards it unchanged.
TEST(LrcSemantics, BarrierReleaseDeliveriesShareOneBuffer) {
  constexpr int kProcs = 8;
  for (dsm::BarrierAlg alg :
       {dsm::BarrierAlg::kCentral, dsm::BarrierAlg::kTree}) {
    SCOPED_TRACE(static_cast<int>(alg));
    const std::vector<SharedBytes> seen = releaseBuffers(alg, kProcs);
    ASSERT_EQ(seen.size(), static_cast<size_t>(kProcs));
    ASSERT_NE(seen[0], nullptr);
    const dsm::BarrReleaseMsg rel = dsm::BarrReleaseMsg::decode(*seen[0]);
    EXPECT_EQ(rel.intervals.size(), static_cast<size_t>(kProcs));
    for (const SharedBytes& b : seen) EXPECT_EQ(b.get(), seen[0].get());
  }
}

}  // namespace
}  // namespace vodsm
