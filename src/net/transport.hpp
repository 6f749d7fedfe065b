// Reliable datagram transport over the lossy network model.
//
// Two primitives, mirroring how TreadMarks-era DSMs used UDP:
//
//  * post()    — one-way reliable message. The receiver acknowledges with a
//                small Ack frame; the sender retransmits on timeout until
//                acked. Used for grants, releases, barrier traffic: anything
//                whose logical response may be arbitrarily delayed.
//  * request() — RPC with bounded service time (diff fetches, notice
//                fetches). The reply acts as the acknowledgement: the sender
//                retransmits the request on timeout, and the responder
//                parks its reply in the request frame's host-only slot, so
//                a duplicate request (a retransmission or a switch
//                duplicate: both are copies of that same frame) is answered
//                by a resend instead of re-execution (at-most-once
//                processing). The reply is freed with the last copy of its
//                request: once the requester has completed and nothing is
//                in flight.
//
// Retransmission timers are cancelled on ack (post) or reply (request), so
// the engine holds one timer per message in flight, not one per message
// sent.
//
// Duplicate suppression. The 8-byte sequence field of a data or request
// frame carries two counters: the upper 24 bits count messages from this
// sender to this receiver, the low 40 bits count every message this sender
// issued. Acks and replies echo the whole field. The receiver dedupes on the
// pair counter with a watermark + sparse-set tracker per sender: on a FIFO
// link the pair counter arrives contiguously, so the watermark advances and
// the sparse set stays empty; it holds only what loss, reordering or
// duplication put out of order. The sender-global counter is what trace
// correlation ids keep (obs::corrId takes the low 40 bits). Overflowing
// either counter fails a check instead of wrapping.
//
// Self-addressed messages bypass the wire (and the statistics) entirely,
// modeling intra-node manager access.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"
#include "sim/task.hpp"
#include "sim/waiter.hpp"

namespace vodsm::net {

// `payload` is a view into `frame`, which keeps it alive: the whole body of
// a single-part frame, the head of one with segments (FrameData::body()).
struct Delivery {
  NodeId src = 0;
  uint16_t type = 0;
  ByteSpan payload;
  sim::Time arrive = 0;
  Frame frame;
};

// Identifies a request so a handler can answer it (possibly later). Holds
// the request frame, where reply() parks the answer.
struct ReplyToken {
  NodeId requester = 0;
  uint64_t seq = 0;
  Frame request;
};

// `payload` is a view into the reply `frame`, which keeps it alive.
struct RpcResult {
  uint16_t type = 0;
  ByteSpan payload;
  sim::Time arrive = 0;
  Frame frame;
};

// Tracks which sequence numbers from one peer have been processed.
class SeqTracker {
 public:
  // Returns true when `seq` is new (and marks it).
  bool markSeen(uint64_t seq) {
    if (seq < watermark_) return false;
    if (seq == watermark_ && sparse_.empty()) {  // in order: the common case
      ++watermark_;
      return true;
    }
    if (!sparse_.insert(seq).second) return false;
    // Advance the contiguous watermark.
    while (sparse_.count(watermark_)) {
      sparse_.erase(watermark_);
      ++watermark_;
    }
    return true;
  }

  // Sequence numbers seen past the first gap, still held individually.
  size_t backlog() const { return sparse_.size(); }

 private:
  uint64_t watermark_ = 0;
  std::unordered_set<uint64_t> sparse_;
};

class Endpoint {
 public:
  using Handler = std::function<void(Delivery&&, const ReplyToken&)>;

  Endpoint(sim::Engine& engine, Network& network, NodeId self,
           sim::Time local_delivery = sim::usec(2))
      : engine_(engine),
        network_(network),
        self_(self),
        local_delivery_(local_delivery),
        pair_seq_(static_cast<size_t>(network.nodeCount()), 0),
        seen_(static_cast<size_t>(network.nodeCount())) {
    network_.setDeliver(self_, [this](NodeId src, Frame frame,
                                      sim::Time arrive) {
      onFrame(src, std::move(frame), arrive, /*via_wire=*/true);
    });
  }

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  NodeId self() const { return self_; }
  void setHandler(Handler h) { handler_ = std::move(h); }
  // The installed handler, so a caller can wrap it (to observe deliveries).
  const Handler& handler() const { return handler_; }

  // Maps the opaque u16 message type onto a MsgClass for the per-kind
  // traffic breakdown. Installed by the protocol layer; without one all
  // traffic counts as kOther.
  void setClassifier(Classifier c) { classify_ = c; }

  // Optional event recorder for send/deliver/retransmit instants. Null (the
  // default) disables recording; observation never charges simulated time.
  void setTrace(obs::TraceRecorder* t) { trace_ = t; }

  // Reliable one-way message, leaving the node no earlier than `earliest`.
  // The frame takes the payload by move; its shared segments are carried,
  // not copied, so one buffer can be posted to many nodes.
  void post(NodeId dst, uint16_t type, Payload payload, sim::Time earliest) {
    const uint64_t seq = nextSeq(dst);
    Frame frame = makeFrame(FrameKind::kData, seq, type, std::move(payload));
    if (dst == self_) {
      sendLocal(std::move(frame), earliest);
      return;
    }
    countSend(type, frame->payloadSize());
    traceSend(type, frame->payloadSize(), earliest,
              obs::corrId(static_cast<uint8_t>(FrameKind::kData), self_, seq));
    auto [it, inserted] =
        pending_posts_.emplace(seq, Pending{dst, frame, {}});
    VODSM_CHECK(inserted);
    network_.send(self_, dst, std::move(frame), earliest);
    it->second.timer = armPostTimer(seq);
  }

  // RPC. The handler on `dst` must reply (promptly, well under one RTO).
  sim::Task<RpcResult> request(NodeId dst, uint16_t type, Bytes payload,
                               sim::Time earliest) {
    const uint64_t seq = nextSeq(dst);
    Frame frame =
        makeFrame(FrameKind::kRequest, seq, type, std::move(payload));
    auto pending = std::make_unique<PendingRpc>();
    PendingRpc* p = pending.get();
    pending_rpcs_.emplace(seq, std::move(pending));
    if (dst == self_) {
      // Self-addressed requests are never retransmitted: nothing here keeps
      // the frame.
      sendLocal(std::move(frame), earliest);
    } else {
      countSend(type, frame->payloadSize());
      traceSend(
          type, frame->payloadSize(), earliest,
          obs::corrId(static_cast<uint8_t>(FrameKind::kRequest), self_, seq));
      p->dst = dst;
      p->frame = frame;
      network_.send(self_, dst, std::move(frame), earliest);
      p->timer = armRpcTimer(seq);
    }
    RpcResult result = co_await p->waiter;
    pending_rpcs_.erase(seq);
    co_return result;
  }

  // Answer a request identified by `token`. May be called from the handler
  // or later (the requester keeps retransmitting until it sees the reply, so
  // replies should not be deferred past ~RTO). The reply is parked in the
  // request frame for duplicates of that request to find; its segments stay
  // shared with whoever else holds them (the responder's diff log).
  void reply(const ReplyToken& token, uint16_t type, Payload payload,
             sim::Time earliest) {
    Frame frame =
        makeFrame(FrameKind::kReply, token.seq, type, std::move(payload));
    if (token.requester == self_) {
      sendLocal(std::move(frame), earliest);
      return;
    }
    token.request->reply = frame;
    countSend(type, frame->payloadSize());
    traceSend(type, frame->payloadSize(), earliest,
              obs::corrId(static_cast<uint8_t>(FrameKind::kReply),
                          token.requester, token.seq));
    network_.send(self_, token.requester, std::move(frame), earliest);
  }

  // Transport counters land in this node's shard (see Network::statsFor).
  NetStats& stats() { return network_.statsFor(self_); }

  // Sequence numbers this node received out of order and still tracks
  // individually, over all senders. Zero once every gap has been filled.
  size_t dedupBacklog() const {
    size_t n = 0;
    for (const SeqTracker& t : seen_) n += t.backlog();
    return n;
  }

 private:
  // Sequence-field layout (see the header comment).
  static constexpr int kPairShift = 40;
  static constexpr uint32_t kPairLimit = uint32_t{1} << 24;

  struct Pending {
    NodeId dst = 0;
    Frame frame;
    sim::Engine::TimerId timer;  // cancelled on ack
  };
  struct PendingRpc {
    NodeId dst = 0;
    Frame frame;
    sim::Engine::TimerId timer;  // cancelled on reply
    sim::Waiter<RpcResult> waiter;
  };

  uint64_t nextSeq(NodeId dst) {
    uint32_t& pair = pair_seq_[dst];
    VODSM_CHECK_MSG(
        pair < kPairLimit && next_seq_ < (uint64_t{1} << kPairShift),
        "sequence space exhausted on node " << self_);
    return (uint64_t{pair++} << kPairShift) | next_seq_++;
  }

  MsgClass classify(uint16_t type) const {
    return classify_ ? classify_(type) : MsgClass::kOther;
  }

  void countSend(uint16_t type, size_t payload_bytes) {
    NetStats& s = stats();
    s.messages++;
    s.payload_bytes += payload_bytes;
    KindStats& k = s.of(classify(type));
    k.messages++;
    k.payload_bytes += payload_bytes;
  }

  void traceSend(uint16_t type, size_t payload_bytes, sim::Time ts,
                 uint64_t corr) {
    if (trace_)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kSend, ts, type,
                      payload_bytes, corr);
  }

  // A retransmission counts as another message of the frame's class (the
  // paper's message counts include retransmissions) and is attributed to
  // that class separately so hot spots under loss are visible. `dst` is the
  // frame's target, needed to recover the sequence-number owner for the
  // correlation id (replies quote the requester's sequence space).
  void countRetransmit(const FrameData& frame, NodeId dst) {
    stats().retransmissions++;
    stats().of(classify(frame.type)).retransmissions++;
    countSend(frame.type, frame.payloadSize());
    // Deliberately not also a kSend instant: one event per wire action. The
    // correlation id ties the retransmission to the original send's flow.
    if (trace_)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kRetransmit,
                      engine_.now(), frame.type, frame.payloadSize(),
                      obs::corrId(static_cast<uint8_t>(frame.kind),
                                  frameSeqOwner(frame, self_, dst),
                                  frame.seq));
  }

  void sendLocal(Frame frame, sim::Time earliest) {
    sim::Time at = std::max(earliest + local_delivery_, engine_.now());
    engine_.at(at, [this, f = std::move(frame)]() mutable {
      onFrame(self_, std::move(f), engine_.now(), /*via_wire=*/false);
    });
  }

  // A timer runs only while its message is unacknowledged: completion
  // cancels it, so the pending entry is always there when it fires.
  sim::Engine::TimerId armPostTimer(uint64_t seq) {
    return engine_.afterCancellable(network_.config().rto, [this, seq] {
      Pending& p = pending_posts_.at(seq);
      countRetransmit(*p.frame, p.dst);
      network_.send(self_, p.dst, p.frame, engine_.now());
      p.timer = armPostTimer(seq);
    });
  }

  sim::Engine::TimerId armRpcTimer(uint64_t seq) {
    return engine_.afterCancellable(network_.config().rto, [this, seq] {
      PendingRpc& p = *pending_rpcs_.at(seq);
      countRetransmit(*p.frame, p.dst);
      network_.send(self_, p.dst, p.frame, engine_.now());
      p.timer = armRpcTimer(seq);
    });
  }

  void onFrame(NodeId src, Frame frame, sim::Time arrive, bool via_wire) {
    const FrameKind kind = frame->kind;
    const uint64_t seq = frame->seq;
    if (trace_ && via_wire)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kDeliver, arrive,
                      static_cast<uint64_t>(kind), frame->size(),
                      obs::corrId(static_cast<uint8_t>(kind),
                                  frameSeqOwner(*frame, src, self_), seq));
    switch (kind) {
      case FrameKind::kAck: {
        auto it = pending_posts_.find(seq);
        if (it != pending_posts_.end()) {
          engine_.cancel(it->second.timer);
          pending_posts_.erase(it);
        }
        return;
      }
      case FrameKind::kReply: {
        auto it = pending_rpcs_.find(seq);
        if (it == pending_rpcs_.end()) return;  // duplicate reply
        PendingRpc& p = *it->second;
        engine_.cancel(p.timer);
        const uint16_t type = frame->type;
        const ByteSpan payload = frame->body();
        p.waiter.fulfill(RpcResult{type, payload, arrive, std::move(frame)});
        return;
      }
      case FrameKind::kData: {
        if (via_wire) sendAck(src, seq);
        if (!seen_[src].markSeen(seq >> kPairShift)) return;  // duplicate
        const uint16_t type = frame->type;
        const ByteSpan payload = frame->body();
        dispatch(Delivery{src, type, payload, arrive, std::move(frame)},
                 ReplyToken{});
        return;
      }
      case FrameKind::kRequest: {
        if (!seen_[src].markSeen(seq >> kPairShift)) {
          // Duplicate request: a copy of the original frame. Resend the
          // reply parked in it if we already answered; otherwise the
          // original is still being processed and the requester's next
          // timeout will retry.
          if (frame->reply && via_wire) {
            countRetransmit(*frame->reply, src);
            network_.send(self_, src, frame->reply, engine_.now());
          }
          return;
        }
        const uint16_t type = frame->type;
        const ByteSpan payload = frame->body();
        ReplyToken token{src, seq, frame};
        dispatch(Delivery{src, type, payload, arrive, std::move(frame)},
                 token);
        return;
      }
    }
  }

  void dispatch(Delivery&& d, const ReplyToken& token) {
    VODSM_CHECK_MSG(handler_, "no handler installed on endpoint");
    handler_(std::move(d), token);
  }

  void sendAck(NodeId src, uint64_t seq) {
    stats().acks++;
    // Acks are counted outside the message statistics, but they are traced:
    // graph analysis wants every deliver to have a matching send. Type 0 is
    // reserved (protocol message types start at 1).
    if (trace_)
      trace_->instant(static_cast<uint32_t>(self_), obs::Cat::kSend,
                      engine_.now(), 0, 0,
                      obs::corrId(static_cast<uint8_t>(FrameKind::kAck), src,
                                  seq));
    network_.send(self_, src, makeFrame(FrameKind::kAck, seq, 0, {}),
                  engine_.now());
  }

  sim::Engine& engine_;
  Network& network_;
  NodeId self_;
  sim::Time local_delivery_;
  Handler handler_;
  Classifier classify_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  uint64_t next_seq_ = 0;               // sender-global counter
  std::vector<uint32_t> pair_seq_;       // per-receiver counters
  std::unordered_map<uint64_t, Pending> pending_posts_;
  std::unordered_map<uint64_t, std::unique_ptr<PendingRpc>> pending_rpcs_;
  std::vector<SeqTracker> seen_;         // per-sender dedup, by NodeId
};

}  // namespace vodsm::net
