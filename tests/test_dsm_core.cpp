// Integration tests of the full stack: VOPP programs running on all three
// DSM runtimes over the simulated cluster.
#include <gtest/gtest.h>

#include <numeric>

#include "vopp/cluster.hpp"

namespace vodsm {
namespace {

using dsm::Protocol;

class ProtocolTest : public ::testing::TestWithParam<Protocol> {};

// Each node adds its contribution into a shared accumulator view, one view
// section per node ("sum example" from the paper's Section 2).
TEST_P(ProtocolTest, PartitionedSum) {
  constexpr int kProcs = 4;
  constexpr int kPerNode = 1000;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = GetParam()});
  // One accumulator view per node section plus a result view.
  std::vector<dsm::ViewId> sections;
  for (int i = 0; i < kProcs; ++i)
    sections.push_back(cluster.defineView(sizeof(int64_t)));
  dsm::ViewId result_view = cluster.defineView(sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    // Every node adds i (for its own i values) into every section,
    // exercising cross-node exclusive view access.
    for (int s = 0; s < kProcs; ++s) {
      int section = (node.id() + s) % kProcs;
      dsm::ViewId v = sections[static_cast<size_t>(section)];
      co_await node.acquireView(v);
      size_t off = node.cluster().viewOffset(v);
      co_await node.touchWrite(off, sizeof(int64_t));
      auto* p = reinterpret_cast<int64_t*>(node.mem(off, 8).data());
      for (int k = 0; k < kPerNode; ++k) *p += node.id() + 1;
      node.chargeOps(kPerNode, 20);
      co_await node.releaseView(v);
    }
    co_await node.barrier();
    if (node.id() == 0) {
      int64_t total = 0;
      for (int s = 0; s < kProcs; ++s) {
        dsm::ViewId v = sections[static_cast<size_t>(s)];
        co_await node.acquireRview(v);
        size_t off = node.cluster().viewOffset(v);
        co_await node.touchRead(off, sizeof(int64_t));
        total += *reinterpret_cast<const int64_t*>(node.memView(off, 8).data());
        co_await node.releaseRview(v);
      }
      co_await node.acquireView(result_view);
      size_t roff = node.cluster().viewOffset(result_view);
      co_await node.touchWrite(roff, sizeof(int64_t));
      *reinterpret_cast<int64_t*>(node.mem(roff, 8).data()) = total;
      co_await node.releaseView(result_view);
    }
    co_await node.barrier();
  });

  // Expected: every section accumulates sum over nodes of (id+1)*kPerNode.
  int64_t per_section = 0;
  for (int i = 0; i < kProcs; ++i) per_section += (i + 1) * kPerNode;
  size_t roff = cluster.viewOffset(result_view);
  auto raw = cluster.memoryOf(0, roff, sizeof(int64_t));
  int64_t got;
  std::memcpy(&got, raw.data(), sizeof(got));
  EXPECT_EQ(got, per_section * kProcs);
  EXPECT_GT(cluster.seconds(), 0.0);
  EXPECT_GT(cluster.dsmStats().acquires, 0u);
}

// Producer/consumer chain through a single view: strict ordering via
// repeated exclusive acquisitions must yield a linearizable counter.
TEST_P(ProtocolTest, ExclusiveCounterIsLinearizable) {
  constexpr int kProcs = 8;
  constexpr int kRounds = 25;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = GetParam()});
  dsm::ViewId counter = cluster.defineView(sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t off = node.cluster().viewOffset(counter);
    for (int r = 0; r < kRounds; ++r) {
      co_await node.acquireView(counter);
      co_await node.touchWrite(off, sizeof(int64_t));
      auto* p = reinterpret_cast<int64_t*>(node.mem(off, 8).data());
      *p += 1;
      co_await node.releaseView(counter);
    }
    co_await node.barrier();
  });

  auto raw = cluster.memoryOf(0, cluster.viewOffset(counter), 8);
  // Node 0's copy may be stale (it last saw the view at its own final
  // acquisition) — so re-check via a fresh run that gathers at the end.
  (void)raw;
  SUCCEED();
}

// Same as above but with a final gather so the result is observable.
TEST_P(ProtocolTest, CounterGather) {
  constexpr int kProcs = 5;
  constexpr int kRounds = 10;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = GetParam()});
  dsm::ViewId counter = cluster.defineView(sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t off = node.cluster().viewOffset(counter);
    for (int r = 0; r < kRounds; ++r) {
      co_await node.acquireView(counter);
      co_await node.touchWrite(off, sizeof(int64_t));
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) += 1;
      co_await node.releaseView(counter);
    }
    co_await node.barrier();
    if (node.id() == 0) {
      co_await node.acquireRview(counter);
      co_await node.touchRead(off, 8);
      co_await node.releaseRview(counter);
    }
    co_await node.barrier();
  });

  auto raw = cluster.memoryOf(0, cluster.viewOffset(counter), 8);
  int64_t got;
  std::memcpy(&got, raw.data(), sizeof(got));
  EXPECT_EQ(got, int64_t{kProcs} * kRounds);
}

// Concurrent Rview readers and page-crossing views.
TEST_P(ProtocolTest, RviewConcurrentReaders) {
  constexpr int kProcs = 6;
  constexpr size_t kInts = 3000;  // spans multiple pages
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = GetParam()});
  dsm::ViewId data = cluster.defineView(kInts * sizeof(int));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t off = node.cluster().viewOffset(data);
    if (node.id() == 0) {
      co_await node.acquireView(data);
      co_await node.touchWrite(off, kInts * sizeof(int));
      auto* p = reinterpret_cast<int*>(node.mem(off, kInts * 4).data());
      for (size_t i = 0; i < kInts; ++i) p[i] = static_cast<int>(i * 3);
      co_await node.releaseView(data);
    }
    co_await node.barrier();
    // All nodes read concurrently under Rviews.
    co_await node.acquireRview(data);
    co_await node.touchRead(off, kInts * sizeof(int));
    auto* p = reinterpret_cast<const int*>(node.memView(off, kInts * 4).data());
    int64_t sum = 0;
    for (size_t i = 0; i < kInts; ++i) sum += p[i];
    int64_t expect = 0;
    for (size_t i = 0; i < kInts; ++i) expect += static_cast<int64_t>(i) * 3;
    if (sum != expect) throw Error("reader observed stale data");
    co_await node.releaseRview(data);
    co_await node.barrier();
  });
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolTest,
                         ::testing::Values(Protocol::kLrcDiff,
                                           Protocol::kVcDiff,
                                           Protocol::kVcSd),
                         [](const auto& info) {
                           return dsm::protocolName(info.param);
                         });

// Traditional (lock + barrier) program on LRC_d, with false sharing: many
// counters packed into the same pages, each updated by a different node.
TEST(LrcTraditional, FalseSharingCounters) {
  constexpr int kProcs = 4;
  constexpr int kRounds = 30;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = Protocol::kLrcDiff});
  size_t base = cluster.allocShared(kProcs * sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    size_t mine = base + static_cast<size_t>(node.id()) * sizeof(int64_t);
    for (int r = 0; r < kRounds; ++r) {
      co_await node.touchWrite(mine, sizeof(int64_t));
      *reinterpret_cast<int64_t*>(node.mem(mine, 8).data()) += 1;
      co_await node.barrier();
    }
    // After the last barrier every node observes all counters.
    co_await node.touchRead(base, kProcs * sizeof(int64_t));
    auto* p =
        reinterpret_cast<const int64_t*>(node.memView(base, kProcs * 8).data());
    for (int i = 0; i < kProcs; ++i)
      if (p[i] != kRounds) throw Error("stale counter after barrier");
    co_await node.barrier();
  });
  SUCCEED();
}

// A diff reply is a count head plus the writer's logged diffs as shared
// segments. Concatenated, head and segments must be byte for byte the
// single-buffer encoding replies had before ([count u32] then
// [key u32][Diff::serialize] per requested diff), so every message and
// wire size is unchanged; and the receiver reads back the same diffs.
TEST(DiffRespWire, SegmentedReplyIsTheSingleBufferEncoding) {
  constexpr mem::PageId kPage = 3;
  std::vector<mem::Diff> diffs;
  dsm::DiffLog log;
  Bytes twin(mem::kPageSize);
  for (uint32_t key = 1; key <= 6; ++key) {
    Bytes cur = twin;
    for (size_t i = 0; i < key * 40; i += 8) cur[key * 100 + i] = std::byte{7};
    diffs.push_back(mem::Diff::create(kPage, cur, twin));
    log[kPage].push_back(dsm::LoggedDiff::encode(key, diffs.back()));
  }
  const dsm::DiffReqMsg req{kPage, {2, 4, 5}};
  const net::Payload reply = dsm::DiffRespMsg::encode(log, req);

  Bytes joined = reply.head;
  for (const SharedBytes& seg : reply.segments)
    joined.insert(joined.end(), seg->begin(), seg->end());
  Writer old;
  old.u32(3);
  for (uint32_t key : req.interval_indices) {
    old.u32(key);
    diffs[key - 1].serialize(old);
  }
  EXPECT_EQ(joined, old.take());
  EXPECT_EQ(reply.size(), joined.size());
  // Shared with the log, not copied.
  ASSERT_EQ(reply.segments.size(), 3u);
  EXPECT_EQ(reply.segments[0], log[kPage][1].wire);

  const net::Frame frame =
      net::makeFrame(net::FrameKind::kReply, 0, dsm::kDiffResp, reply);
  EXPECT_EQ(frame->size(), 15 + joined.size());
  const dsm::DiffRespMsg back = dsm::DiffRespMsg::decode(*frame);
  ASSERT_EQ(back.diffs.size(), 3u);
  for (size_t i = 0; i < back.diffs.size(); ++i) {
    const uint32_t key = req.interval_indices[i];
    EXPECT_EQ(back.diffs[i].first, key);
    Bytes via_view = twin;
    back.diffs[i].second.apply(via_view);
    Bytes via_diff = twin;
    diffs[key - 1].apply(via_diff);
    EXPECT_EQ(via_view, via_diff);
  }
}

// Locks must serialize a read-modify-write on LRC.
TEST(LrcTraditional, LockProtectedCounter) {
  constexpr int kProcs = 7;
  constexpr int kRounds = 15;
  vopp::Cluster cluster({.nprocs = kProcs, .protocol = Protocol::kLrcDiff});
  size_t off = cluster.allocShared(sizeof(int64_t));

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    for (int r = 0; r < kRounds; ++r) {
      co_await node.acquireLock(3);
      co_await node.touchWrite(off, 8);
      *reinterpret_cast<int64_t*>(node.mem(off, 8).data()) += 1;
      co_await node.releaseLock(3);
    }
    co_await node.barrier();
    co_await node.touchRead(off, 8);
    int64_t got =
        *reinterpret_cast<const int64_t*>(node.memView(off, 8).data());
    if (got != int64_t{kProcs} * kRounds) throw Error("lost update");
    co_await node.barrier();
  });
  SUCCEED();
}

}  // namespace
}  // namespace vodsm
