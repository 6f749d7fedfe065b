// Wire frames: the unit the network model moves and the transport encodes.
//
// A frame is one immutable, reference-counted record, `net::Frame` (a
// `std::shared_ptr<const FrameData>`). The network's events, the sender's
// retransmit state, switch duplicates, retransmissions and the receiver's
// delivery all hold handles to that one record; nothing copies it, and it is
// freed when its last handle (in flight or held) goes away.
//
// The header (kind, sequence number, message type) lives in fields, and the
// body is handed over by move: an owned head plus shared, immutable segments
// (a diff reply carries the writer's logged diffs this way, a barrier
// release one buffer posted to every node). A segment lives while any
// holder — a diff log entry or a frame — keeps it. Nothing is serialized:
// the wire layout below exists only as the frame's size, the bytes the
// network model charges for.
//
//   data / request / reply: kind u8, seq u64, type u16, body length u32,
//                           body (head, then each segment in order)
//                           -> 15 + body bytes
//   ack:                    kind u8, seq u64 -> 9 bytes
#pragma once

#include <vector>

#include "net/types.hpp"
#include "support/bytes.hpp"

namespace vodsm::net {

// A message body as its sender hands it over, on the wire as the
// concatenation of `head` and then each of `segments`. Most messages are a
// head alone (the implicit conversion from Bytes).
struct Payload {
  Bytes head;
  std::vector<SharedBytes> segments;

  Payload() = default;
  // Implicit, so every Bytes-built message converts as it is.
  Payload(Bytes b) : head(std::move(b)) {}
  Payload(SharedBytes s) { segments.push_back(std::move(s)); }

  size_t size() const {
    size_t n = head.size();
    for (const SharedBytes& s : segments) n += s->size();
    return n;
  }
};

struct FrameData;
using Frame = std::shared_ptr<const FrameData>;

struct FrameData {
  FrameData(FrameKind k, uint64_t s, uint16_t t, Payload p)
      : seq(s), type(t), kind(k), payload(std::move(p)) {}

  // Bytes of header a data, request or reply frame puts before its body,
  // and the whole size of an ack (kind + seq).
  static constexpr size_t kHeaderBytes = 15;
  static constexpr size_t kAckBytes = 9;

  // Header fields, ordered to pack into 16 bytes.
  uint64_t seq;
  uint16_t type;  // 0 on acks (protocol message types start at 1)
  FrameKind kind;
  Payload payload;
  // Host-only slot, never on the wire and never counted in size(): a
  // responder parks its answer to a request frame here, so every later copy
  // of that request (a retransmission or a switch duplicate) finds the
  // reply and resends it without re-running the handler.
  mutable Frame reply;

  // Encoded size on the wire (the model's "frame bytes").
  size_t size() const {
    return kind == FrameKind::kAck ? kAckBytes : kHeaderBytes + payloadSize();
  }
  size_t payloadSize() const { return payload.size(); }  // 0 on acks

  // The body as one contiguous span when it has one: the head, or the sole
  // segment of a frame that carries nothing else. For a frame with a head
  // and segments (a diff reply) this is the head alone; the segments follow
  // it on the wire.
  ByteSpan body() const {
    if (payload.head.empty() && payload.segments.size() == 1)
      return *payload.segments.front();
    return payload.head;
  }

  // The body of a frame that carries one shared segment and nothing else
  // (a barrier release), so it can be forwarded without a copy.
  const SharedBytes& sharedBody() const {
    VODSM_CHECK_MSG(payload.head.empty() && payload.segments.size() == 1,
                    "frame body is not one shared segment");
    return payload.segments.front();
  }
};

inline Frame makeFrame(FrameKind kind, uint64_t seq, uint16_t type,
                       Payload payload) {
  return std::make_shared<const FrameData>(kind, seq, type,
                                           std::move(payload));
}

// The node whose sequence-number space `frame` belongs to: replies and acks
// quote the original requester's sequence number, everything else uses the
// sender's own. (send-side view: src is the frame's sender, dst its target.)
inline NodeId frameSeqOwner(const FrameData& frame, NodeId src, NodeId dst) {
  return (frame.kind == FrameKind::kReply || frame.kind == FrameKind::kAck)
             ? dst
             : src;
}

}  // namespace vodsm::net
