// Per-node event tracing on the simulated clock.
//
// A TraceRecorder collects timestamped spans (begin/end pairs) and instant
// events from every layer of a run: node programs (app track), the DSM
// protocol engines (proto track), and the transport/network (net track).
// Design constraints, in order:
//
//  * Observation must not perturb the experiment. Events carry only
//    simulated timestamps that the run already computed (node clocks,
//    message arrival times); recording never charges simulated time, so a
//    traced run is bit-identical to an untraced one.
//  * Near-zero overhead when disabled. Every instrumentation site guards on
//    a runtime-checked recorder pointer (`if (auto* t = ctx.trace) ...`);
//    when the pointer is null the cost is one predictable branch.
//  * No formatting on the hot path. An Event is a 40-byte POD — category
//    and phase enums, two opaque argument words, and a wire correlation id;
//    names and argument labels are resolved from static tables only at
//    export time.
//
// Consumers: obs/perfetto.hpp renders the event list as Chrome trace-event
// JSON (one process per node, one thread per track); obs/breakdown.hpp
// folds the spans into per-node time buckets; obs/graph.hpp reconstructs
// the run DAG (send->deliver via correlation ids, grant/fold wakeup edges)
// for obs/critical_path.hpp; obs/page_heat.hpp folds page-indexed instants
// into a contention table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace vodsm::obs {

// One trace "thread" per node. App is what the program called, proto is
// what the DSM runtime did about it, net is what crossed the wire.
enum class Track : uint8_t { kApp = 0, kProto = 1, kNet = 2 };
inline constexpr int kTrackCount = 3;

// Event categories. Span categories come first; everything from kTwin on
// is only ever recorded as an instant.
enum class Cat : uint8_t {
  // app track (spans)
  kProgram = 0,    // whole node program, spawn -> finish
  kAcquireView,    // a0 = view, a1 = readonly
  kReleaseView,    // a0 = view, a1 = readonly
  kAcquireLock,    // a0 = lock
  kBarrier,        // a0 = barrier
  // proto track (spans)
  kAcquireWait,    // a0 = lock/view id — request sent -> grant incorporated
  kBarrierWait,    // a0 = barrier — arrive sent -> release incorporated
  kFault,          // a0 = page — fault service incl. diff fetch + twin
  kDiffCreate,     // a0 = page count, a1 = diff bytes — release/interval close
  // proto track (instants)
  kTwin,           // a0 = page
  kDiffApply,      // a0 = page, a1 = diff bytes
  kNotice,         // a0 = page, a1 = writer — write notice recorded
  kGrant,          // a0 = lock/view id, a1 = requester (manager side)
  kBarrFold,       // a0 = barrier, a1 = notices merged (manager side)
  // net track (instants)
  kSend,           // a0 = message type, a1 = payload bytes (corr set)
  kDeliver,        // a0 = frame kind, a1 = frame bytes (corr set)
  kRetransmit,     // a0 = message type, a1 = payload bytes (corr set)
  kDrop,           // a0 = sender, a1 = frame bytes (corr carries frame kind)
  kFaultInject,    // a0 = net::FaultKind, a1 = frame bytes (corr set)
  // engine pseudo-node (span)
  kEngineRun,      // a0 = events processed (on end)
  kCatCount,
};

enum class Phase : uint8_t { kBegin = 0, kEnd = 1, kInstant = 2 };

// Pseudo-node id for events that belong to the simulation itself rather
// than to one simulated node (engine lifecycle).
inline constexpr uint32_t kEngineNode = UINT32_MAX;

// Wire correlation id: a nonzero token shared by every net-track event that
// concerns the same transport frame (send, its retransmissions, its drops,
// its delivery), so graph analysis can match send->deliver edges. The id is
// *derived*, never carried on the wire: both sides compute it from the frame
// header they already have — the frame kind, the node that owns the sequence
// number (the original requester for replies and acks, the sender
// otherwise), and the per-owner sequence number. This keeps frame sizes, and
// therefore every simulated transmission time, identical to untraced runs.
inline constexpr uint64_t kNoCorr = 0;
inline constexpr uint64_t corrId(uint8_t frame_kind, uint32_t seq_owner,
                                 uint64_t seq) {
  // kind+1 in the top byte keeps the id nonzero; 40 bits of sequence is
  // ~10^12 messages per owner, far beyond any run.
  return (static_cast<uint64_t>(frame_kind + 1) << 56) |
         (static_cast<uint64_t>(seq_owner) << 40) |
         (seq & 0xFF'FFFF'FFFFull);
}
inline constexpr uint8_t corrKind(uint64_t corr) {
  return static_cast<uint8_t>((corr >> 56) - 1);
}
inline constexpr uint32_t corrOwner(uint64_t corr) {
  return static_cast<uint32_t>((corr >> 40) & 0xFFFF);
}
inline constexpr uint64_t corrSeq(uint64_t corr) {
  return corr & 0xFF'FFFF'FFFFull;
}

struct Event {
  sim::Time ts = 0;   // simulated nanoseconds
  uint64_t a0 = 0;
  uint64_t a1 = 0;
  uint64_t corr = kNoCorr;  // wire correlation id; 0 = not a wire event
  uint32_t node = 0;
  Cat cat = Cat::kProgram;
  Phase phase = Phase::kInstant;
  Track track = Track::kApp;
  // Explicit tail byte instead of padding, so whole-record memcmp (the
  // determinism tests compare event streams bytewise) sees defined memory.
  uint8_t reserved = 0;
};
static_assert(sizeof(Event) == 40, "Event is sized for bulk recording");

// Export-time metadata for one category; resolved from kCatInfo, never on
// the recording path.
struct CatInfo {
  const char* name;
  Track track;
  const char* arg0;
  const char* arg1;
};

inline constexpr CatInfo kCatInfo[static_cast<size_t>(Cat::kCatCount)] = {
    {"program", Track::kApp, "node", nullptr},
    {"acquire_view", Track::kApp, "view", "readonly"},
    {"release_view", Track::kApp, "view", "readonly"},
    {"acquire_lock", Track::kApp, "lock", nullptr},
    {"barrier", Track::kApp, "barrier", nullptr},
    {"acquire_wait", Track::kProto, "id", nullptr},
    {"barrier_wait", Track::kProto, "barrier", nullptr},
    {"page_fault", Track::kProto, "page", nullptr},
    {"diff_create", Track::kProto, "pages", "bytes"},
    {"twin", Track::kProto, "page", nullptr},
    {"diff_apply", Track::kProto, "page", "bytes"},
    {"write_notice", Track::kProto, "page", "writer"},
    {"grant", Track::kProto, "id", "requester"},
    {"barrier_fold", Track::kProto, "barrier", "notices"},
    {"send", Track::kNet, "type", "bytes"},
    {"deliver", Track::kNet, "kind", "bytes"},
    {"retransmit", Track::kNet, "type", "bytes"},
    {"drop", Track::kNet, "sender", "bytes"},
    {"fault_inject", Track::kNet, "fault", "bytes"},
    {"engine_run", Track::kApp, "events", nullptr},
};

inline const CatInfo& catInfo(Cat c) {
  return kCatInfo[static_cast<size_t>(c)];
}

class TraceRecorder {
 public:
  void begin(uint32_t node, Cat c, sim::Time ts, uint64_t a0 = 0,
             uint64_t a1 = 0) {
    push({ts, a0, a1, kNoCorr, node, c, Phase::kBegin, catInfo(c).track});
  }
  void end(uint32_t node, Cat c, sim::Time ts, uint64_t a0 = 0,
           uint64_t a1 = 0) {
    push({ts, a0, a1, kNoCorr, node, c, Phase::kEnd, catInfo(c).track});
  }
  void instant(uint32_t node, Cat c, sim::Time ts, uint64_t a0 = 0,
               uint64_t a1 = 0, uint64_t corr = kNoCorr) {
    push({ts, a0, a1, corr, node, c, Phase::kInstant, catInfo(c).track});
  }

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  void push(const Event& ev) { events_.push_back(ev); }

  std::vector<Event> events_;
};

}  // namespace vodsm::obs
