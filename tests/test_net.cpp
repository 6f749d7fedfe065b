// Unit tests for the network model and the reliable transport.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/faults.hpp"
#include "net/network.hpp"
#include "net/parallel.hpp"
#include "net/transport.hpp"
#include "sim/task.hpp"

namespace vodsm::net {
namespace {

// A data frame that occupies `wire_bytes` on the wire, header included.
Frame dataFrame(size_t wire_bytes) {
  return makeFrame(FrameKind::kData, 0, 1,
                   Bytes(wire_bytes - FrameData::kHeaderBytes));
}

TEST(NetConfig, WireMath) {
  NetConfig c;
  EXPECT_EQ(c.wireBytes(0), c.header_bytes);
  EXPECT_EQ(c.wireBytes(100), 100 + c.header_bytes);
  // Two fragments once past the MTU payload.
  EXPECT_EQ(c.wireBytes(c.mtu_payload + 1),
            c.mtu_payload + 1 + 2 * c.header_bytes);
  // 100 Mbps: 1250 bytes take 100 microseconds.
  NetConfig fast = c;
  fast.header_bytes = 0;
  EXPECT_NEAR(static_cast<double>(fast.txTime(1250)),
              static_cast<double>(sim::usec(100)), 1000.0);
}

// What a frame measured when the transport byte-encoded it: kind u8,
// seq u64, then (all but acks) type u16 and the length-prefixed body.
size_t byteEncodedSize(FrameKind kind, uint16_t type, ByteSpan body) {
  Writer w;
  w.u8(static_cast<uint8_t>(kind));
  w.u64(0x0123456789abcdefull);
  if (kind != FrameKind::kAck) {
    w.u16(type);
    w.blob(body);
  }
  return w.size();
}

TEST(Frame, SizeIsTheByteEncodedSize) {
  const SharedBytes seg_a = std::make_shared<const Bytes>(Bytes(300));
  const SharedBytes seg_b = std::make_shared<const Bytes>(Bytes(1700));
  for (FrameKind kind :
       {FrameKind::kData, FrameKind::kRequest, FrameKind::kReply}) {
    for (size_t head : {size_t{0}, size_t{4}, size_t{1500}}) {
      const Frame plain = makeFrame(kind, 7, 5, Bytes(head));
      EXPECT_EQ(plain->size(), byteEncodedSize(kind, 5, Bytes(head)));
      EXPECT_EQ(plain->payloadSize(), head);
      Payload body{Bytes(head)};
      body.segments = {seg_a, seg_b};
      const Frame segmented = makeFrame(kind, 7, 5, std::move(body));
      EXPECT_EQ(segmented->size(),
                byteEncodedSize(kind, 5, Bytes(head + 300 + 1700)));
      EXPECT_EQ(segmented->payloadSize(), head + 2000);
    }
  }
  const Frame ack = makeFrame(FrameKind::kAck, 7, 0, {});
  EXPECT_EQ(ack->size(), byteEncodedSize(FrameKind::kAck, 0, {}));
  EXPECT_EQ(ack->size(), 9u);
  // A lone segment is the whole body, shared rather than copied.
  const Frame shared = makeFrame(FrameKind::kData, 1, 5, seg_a);
  EXPECT_EQ(shared->body().data(), seg_a->data());
  EXPECT_EQ(shared->sharedBody(), seg_a);
}

TEST(Network, DeliversWithLatencyAndBandwidth) {
  sim::Engine e;
  NetConfig cfg;
  Network net(e, 2, cfg, 1);
  sim::Time delivered_at = -1;
  net.setDeliver(1, [&](NodeId src, Frame frame, sim::Time t) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(frame->size(), 1000u);
    delivered_at = t;
  });
  net.send(0, 1, dataFrame(1000), 0);
  e.run();
  // send overhead + uplink tx + latency + downlink tx + recv service.
  sim::Time expect = cfg.sendOverhead(1000) + 2 * cfg.txTime(1000) +
                     cfg.wire_latency + cfg.recvOverhead(1000);
  EXPECT_EQ(delivered_at, expect);
  EXPECT_EQ(net.stats().frames_delivered, 1u);
}

TEST(Network, UplinkSerializesBackToBackSends) {
  sim::Engine e;
  NetConfig cfg;
  Network net(e, 3, cfg, 1);
  std::vector<sim::Time> arrivals;
  net.setDeliver(1, [&](NodeId, Frame, sim::Time t) { arrivals.push_back(t); });
  net.setDeliver(2, [&](NodeId, Frame, sim::Time t) { arrivals.push_back(t); });
  net.send(0, 1, dataFrame(10000), 0);
  net.send(0, 2, dataFrame(10000), 0);
  e.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // The second frame waits for the first to clear the shared uplink.
  EXPECT_GE(arrivals[1] - arrivals[0], cfg.txTime(10000));
}

TEST(Network, RxQueueOverflowDrops) {
  sim::Engine e;
  NetConfig cfg;
  cfg.rx_queue_frames = 2;
  cfg.recv_base = sim::msec(10);  // absurdly slow receiver
  Network net(e, 5, cfg, 1);
  int delivered = 0;
  net.setDeliver(0, [&](NodeId, Frame, sim::Time) { delivered++; });
  for (NodeId src = 1; src < 5; ++src)
    net.send(src, 0, dataFrame(16), 0);
  e.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().frames_dropped_overflow, 2u);
}

TEST(Network, RandomLossDropsProportionally) {
  sim::Engine e;
  NetConfig cfg;
  cfg.random_loss = 0.5;
  Network net(e, 2, cfg, 99);
  int delivered = 0;
  net.setDeliver(1, [&](NodeId, Frame, sim::Time) { delivered++; });
  for (int i = 0; i < 200; ++i)
    net.send(0, 1, dataFrame(16), sim::msec(i));
  e.run();
  EXPECT_GT(delivered, 50);
  EXPECT_LT(delivered, 150);
  EXPECT_EQ(net.stats().frames_dropped_random + net.stats().frames_delivered,
            200u);
}

TEST(SeqTracker, DetectsDuplicatesAcrossGaps) {
  SeqTracker t;
  EXPECT_TRUE(t.markSeen(0));
  EXPECT_TRUE(t.markSeen(2));
  EXPECT_FALSE(t.markSeen(0));
  EXPECT_FALSE(t.markSeen(2));
  EXPECT_TRUE(t.markSeen(1));
  EXPECT_FALSE(t.markSeen(1));
  EXPECT_TRUE(t.markSeen(3));
}

struct Pair {
  sim::Engine engine;
  NetConfig cfg;
  Network net;
  Endpoint a, b;
  explicit Pair(NetConfig c = NetConfig{}, uint64_t seed = 1)
      : cfg(c), net(engine, 2, cfg, seed), a(engine, net, 0),
        b(engine, net, 1) {}
};

TEST(Transport, PostDeliversExactlyOnce) {
  Pair p;
  int count = 0;
  p.b.setHandler([&](Delivery&& d, const ReplyToken&) {
    EXPECT_EQ(d.type, 9);
    count++;
  });
  p.a.post(1, 9, Bytes(100), 0);
  p.engine.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(p.net.stats().acks, 1u);
}

TEST(Transport, PostSurvivesHeavyLoss) {
  NetConfig cfg;
  cfg.random_loss = 0.4;
  cfg.rto = sim::msec(50);
  Pair p(cfg, 7);
  int count = 0;
  p.b.setHandler([&](Delivery&&, const ReplyToken&) { count++; });
  for (int i = 0; i < 50; ++i) p.a.post(1, 9, Bytes(20), 0);
  p.engine.run();
  EXPECT_EQ(count, 50);  // exactly once despite losses and retransmissions
  EXPECT_GT(p.net.stats().retransmissions, 0u);
}

TEST(Transport, RequestReplySurvivesLoss) {
  NetConfig cfg;
  cfg.random_loss = 0.3;
  cfg.rto = sim::msec(50);
  Pair p(cfg, 11);
  int served = 0;
  p.b.setHandler([&](Delivery&& d, const ReplyToken& tok) {
    served++;
    p.b.reply(tok, static_cast<uint16_t>(d.type + 1),
              Bytes(d.payload.begin(), d.payload.end()), d.arrive);
  });
  int completed = 0;
  for (int i = 0; i < 30; ++i) {
    sim::spawn([](Endpoint& ep, int& done) -> sim::Task<void> {
      auto r = co_await ep.request(1, 5, Bytes(64), 0);
      EXPECT_EQ(r.type, 6);
      EXPECT_EQ(r.payload.size(), 64u);
      done++;
    }(p.a, completed));
  }
  p.engine.run();
  EXPECT_EQ(completed, 30);
  EXPECT_EQ(served, 30);  // parked replies answer duplicate requests
}

TEST(Transport, SelfSendStaysLocal) {
  Pair p;
  int count = 0;
  p.a.setHandler([&](Delivery&& d, const ReplyToken&) {
    EXPECT_EQ(d.src, 0u);
    count++;
  });
  p.a.post(0, 3, Bytes(10), 0);
  p.engine.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(p.net.stats().messages, 0u);  // never hit the wire
  EXPECT_EQ(p.net.stats().frames_sent, 0u);
}

TEST(Transport, RequestAllOverlapsRoundTrips) {
  sim::Engine e;
  NetConfig cfg;
  Network net(e, 4, cfg, 1);
  Endpoint a(e, net, 0), b(e, net, 1), c(e, net, 2), d(e, net, 3);
  auto serve = [](Endpoint& ep) {
    ep.setHandler([&ep](Delivery&& del, const ReplyToken& tok) {
      ep.reply(tok, 1, Bytes(2000), del.arrive + sim::usec(10));
    });
  };
  serve(b);
  serve(c);
  serve(d);
  sim::Time finished = 0;
  sim::spawn([](Endpoint& ep, sim::Engine& eng,
                sim::Time& done) -> sim::Task<void> {
    std::vector<RpcCall> calls;
    for (NodeId n = 1; n <= 3; ++n) calls.push_back(RpcCall{n, 0, Bytes(50)});
    auto results = co_await requestAll(ep, std::move(calls), 0);
    EXPECT_EQ(results.size(), 3u);
    for (auto& r : results) EXPECT_EQ(r.payload.size(), 2000u);
    done = eng.now();
  }(a, e, finished));
  e.run();
  // Three overlapped ~600us round trips must finish well under 3x serial.
  sim::Time one_rtt = cfg.sendOverhead(50) + 2 * cfg.txTime(50) +
                      cfg.wire_latency + cfg.recvOverhead(50) + sim::usec(10) +
                      cfg.sendOverhead(2000) + 2 * cfg.txTime(2000) +
                      cfg.wire_latency + cfg.recvOverhead(2000);
  EXPECT_LT(finished, 2 * one_rtt);
}

TEST(Transport, StatsCountPayloadBytes) {
  Pair p;
  p.b.setHandler([](Delivery&&, const ReplyToken&) {});
  p.a.post(1, 9, Bytes(500), 0);
  p.engine.run();
  EXPECT_EQ(p.net.stats().messages, 1u);
  EXPECT_EQ(p.net.stats().payload_bytes, 500u);
}

// A segmented body counts, travels and is timed as its concatenation, and
// reaches the receiver as the sender's own buffers.
TEST(Transport, SegmentedPayloadCountsItsWholeBody) {
  Pair p;
  const SharedBytes seg = std::make_shared<const Bytes>(Bytes(2000));
  const Bytes* received = nullptr;
  size_t frame_bytes = 0;
  p.b.setHandler([&](Delivery&& d, const ReplyToken&) {
    EXPECT_EQ(d.payload.size(), 8u);  // the head
    received = d.frame->payload.segments.at(0).get();
    frame_bytes = d.frame->size();
  });
  Payload body{Bytes(8)};
  body.segments.push_back(seg);
  p.a.post(1, 9, std::move(body), 0);
  p.engine.run();
  EXPECT_EQ(received, seg.get());
  EXPECT_EQ(frame_bytes, 15u + 2008u);
  EXPECT_EQ(p.net.stats().payload_bytes, 2008u);
  EXPECT_EQ(p.net.stats().wire_bytes,
            p.cfg.wireBytes(15 + 2008) + p.cfg.wireBytes(9));  // + the ack
  EXPECT_EQ(seg.use_count(), 1);  // the delivered frame is gone
}

// One sender fanning out round-robin: every receiver sees its own
// contiguous sequence, so no dedup state outlives the run, and acked
// timers are cancelled, so the run ends long before the first RTO.
struct FanOut {
  static constexpr int kReceivers = 8;
  sim::Engine engine;
  Network net;
  std::vector<std::unique_ptr<Endpoint>> eps;
  std::vector<int> delivered = std::vector<int>(kReceivers + 1, 0);
  explicit FanOut(NetConfig cfg = NetConfig{})
      : net(engine, kReceivers + 1, cfg, 1) {
    for (int i = 0; i <= kReceivers; ++i) {
      eps.push_back(
          std::make_unique<Endpoint>(engine, net, static_cast<NodeId>(i)));
      Endpoint& ep = *eps.back();
      ep.setHandler([this, &ep, i](Delivery&& d, const ReplyToken& tok) {
        ++delivered[static_cast<size_t>(i)];
        if (d.type == 2) ep.reply(tok, 3, Bytes(8), d.arrive);
      });
    }
  }
  size_t backlog() const {
    size_t n = 0;
    for (const auto& ep : eps) n += ep->dedupBacklog();
    return n;
  }
};

TEST(Transport, FanOutLeavesNoDedupBacklogOrTimers) {
  FanOut f;
  constexpr int kMessages = 1000;
  // Paced below the sender's ack-receive rate, so no ack overflows its NIC
  // queue and nothing is retransmitted.
  for (int m = 0; m < kMessages; ++m)
    f.eps[0]->post(static_cast<NodeId>(1 + m % FanOut::kReceivers), 1,
                   Bytes(64), m * sim::usec(50));
  f.engine.run();
  EXPECT_EQ(f.net.stats().retransmissions, 0u);
  for (int r = 1; r <= FanOut::kReceivers; ++r)
    EXPECT_EQ(f.delivered[static_cast<size_t>(r)],
              kMessages / FanOut::kReceivers);
  EXPECT_EQ(f.backlog(), 0u);
  EXPECT_EQ(f.engine.pending(), 0u);
  EXPECT_LT(f.engine.now(), NetConfig{}.rto);
}

// Every frame duplicated at the switch: posts and requests alike are
// handled exactly once, and the late copies leave no dedup state behind.
TEST(Transport, DuplicatedFanOutDeliversEachMessageOnce) {
  NetConfig cfg;
  cfg.rto = sim::msec(50);
  FanOut f(cfg);
  FaultInjector inj(parseFaultPlan("dup:p=1"), 1, FanOut::kReceivers + 1);
  f.net.setFaults(&inj);
  constexpr int kMessages = 200;
  int replies = 0;
  for (int m = 0; m < kMessages; ++m) {
    const auto dst = static_cast<NodeId>(1 + m % FanOut::kReceivers);
    if (m % 2 == 0) {
      f.eps[0]->post(dst, 1, Bytes(32), 0);
    } else {
      sim::spawn([](Endpoint& ep, NodeId to, int& n) -> sim::Task<void> {
        co_await ep.request(to, 2, Bytes(32), 0);
        ++n;
      }(*f.eps[0], dst, replies));
    }
  }
  f.engine.run();
  for (int r = 1; r <= FanOut::kReceivers; ++r)
    EXPECT_EQ(f.delivered[static_cast<size_t>(r)],
              kMessages / FanOut::kReceivers);
  EXPECT_EQ(replies, kMessages / 2);
  EXPECT_GT(f.net.stats().frames_duplicated, 0u);
  EXPECT_EQ(f.backlog(), 0u);
}

}  // namespace
}  // namespace vodsm::net
