// Discrete-event engine: one serial schedule in canonical key order.
//
// Events are keyed by (time, stamp, origin-lane) and processed in strictly
// increasing key order, so a run is deterministic. Stamps are per-lane
// Lamport counters: the lane that schedules an event draws the stamp from
// its own counter, and executing an event with stamp c advances the
// executing lane's counter to at least c+1, so causally-later events always
// carry strictly larger keys. With a single lane (the default) stamps
// degenerate to the classic global insertion sequence.
//
// Lanes. `configureLanes(n)` gives each simulated node its own stamp
// counter. Lanes only order events; every event runs on the caller's
// thread. An event's callbacks schedule into the lane that is executing,
// except `atLane`, which schedules into another lane and models a
// cross-node network frame. The per-lane stamps define the canonical order
// of equal-time events that every committed baseline was recorded under;
// one global insertion sequence would reorder them.
//
// Aux events. Samplers and other pure observers schedule via `auxAt`:
// aux events draw stamps from a separate per-lane counter (never consuming
// real stamps, so metered and unmetered runs stay bit-identical) and do not
// keep the engine alive — run() stops once all real events drained,
// discarding any trailing aux events.
//
// Cancellable timers. `afterCancellable` schedules a real event and returns
// a TimerId; `cancel(id)` withdraws it. The cancelled event keeps the stamp
// it drew, so every other event's key, and with it every simulated result,
// is exactly what it would be had the event run as a no-op. A cancelled
// entry stays in the heap, is skipped when it reaches the top, and neither
// counts as a real event nor keeps run() alive. Once cancelled entries
// outnumber live ones, the heap is purged in one O(n) rebuild; keys are
// total, so pop order is unchanged. Cancelling an event that already ran,
// or cancelling twice, is a no-op: each pool node carries a generation that
// is bumped whenever the node is released.
//
// Storage: callbacks live in a free-list pool of event nodes (reused across
// the run, so steady-state scheduling allocates nothing), and the priority
// queue orders plain POD records — heap sifts move small PODs instead of
// whole closures, and popping the top needs no const_cast.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "support/check.hpp"

namespace vodsm::sim {

// Canonical event key. Orders by time, then stamp, then origin lane; keys
// of distinct events are distinct (a lane never issues a stamp twice).
struct EventKey {
  Time t = 0;
  uint64_t stamp = 0;
  uint32_t origin = 0;
};

inline bool operator<(const EventKey& a, const EventKey& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.stamp != b.stamp) return a.stamp < b.stamp;
  return a.origin < b.origin;
}

class Engine {
 public:
  using Callback = sim::Callback;

  // Names one event scheduled by afterCancellable. A default-constructed id
  // names no event; cancelling it is a no-op.
  struct TimerId {
    uint32_t slot = UINT32_MAX;  // pool node
    uint32_t gen = 0;            // the node's generation when armed
  };

  // Pins the scheduling lane for events scheduled outside event context
  // (program spawns during setup). No-op effect with a single lane.
  class LaneGuard {
   public:
    LaneGuard(Engine& e, uint32_t lane) : e_(e), prev_(e.cur_lane_) {
      e_.cur_lane_ = lane < e.nlanes_ ? lane : 0;
    }
    ~LaneGuard() { e_.cur_lane_ = prev_; }
    LaneGuard(const LaneGuard&) = delete;
    LaneGuard& operator=(const LaneGuard&) = delete;

   private:
    Engine& e_;
    uint32_t prev_;
  };

  // Give each of `nlanes` lanes (one per simulated node) its own stamp
  // counter. Must be called before any event is scheduled.
  void configureLanes(int nlanes) {
    VODSM_CHECK_MSG(heap_.empty(), "configureLanes must precede scheduling");
    nlanes_ = nlanes > 1 ? static_cast<uint32_t>(nlanes) : 1;
    seqs_.assign(nlanes_, LaneSeq{});
    if (cur_lane_ >= nlanes_) cur_lane_ = 0;
  }

  // Schedule `cb` at absolute time `t` (must be >= now()) in the lane that
  // is currently executing (or the LaneGuard-pinned lane during setup).
  void at(Time t, Callback cb) {
    schedule(t, std::move(cb), false, cur_lane_);
  }

  // Schedule `cb` `dt` after the engine's current time.
  void after(Time dt, Callback cb) { at(now() + dt, std::move(cb)); }

  // As after(), but the event can be withdrawn with cancel().
  TimerId afterCancellable(Time dt, Callback cb) {
    return schedule(now() + dt, std::move(cb), false, cur_lane_);
  }

  // Withdraw a pending afterCancellable event (see the header comment); a
  // no-op if it already ran or was cancelled.
  void cancel(TimerId id) {
    if (id.slot == kNone) return;
    Node& n = pool_[id.slot];
    if (n.gen != id.gen || !n.cb) return;
    n.cb.reset();  // an empty callback marks the entry cancelled
    --real_pending_;
    if (++cancelled_ * 2 > heap_.size()) purge();
  }

  // Schedule into another lane: the cross-node frame hop. The stamp comes
  // from the posting lane's counter; the event executes in `lane`.
  void atLane(uint32_t lane, Time t, Callback cb) {
    // Unconfigured engines (nlanes_ == 1) fold every lane into lane 0.
    schedule(t, std::move(cb), false, lane < nlanes_ ? lane : 0);
  }

  // Schedule an auxiliary (observer-only) event: it draws from a separate
  // stamp space, never delays engine termination, and trailing aux events
  // past the last real event are discarded. Aux callbacks must not mutate
  // simulated state or schedule real events.
  void auxAt(Time t, Callback cb) {
    schedule(t, std::move(cb), true, cur_lane_);
  }
  void auxAfter(Time dt, Callback cb) { auxAt(now() + dt, std::move(cb)); }

  Time now() const { return now_; }

  // Run one real event (processing any earlier aux events transparently).
  // Returns false if no real event remains or stop() was called.
  bool step() {
    while (true) {
      const int r = stepImpl();
      if (r == 0) return false;
      if (r == 1) return true;
    }
  }

  // Run until every real event drained or stop() is called. Returns the
  // number of real events processed.
  uint64_t run() {
    uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  // Run at most `limit` further real events; returns true iff the run is
  // fully drained (no real events left and not stopped). A stopped run
  // always reports drained=false: stopping abandons the queue.
  bool runBounded(uint64_t limit) {
    for (uint64_t n = 0; n < limit; ++n)
      if (!step()) break;
    return pending() == 0 && !stopped();
  }

  // Stop processing before the next event.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // Real events still pending (aux events are not counted: they never keep
  // the engine alive).
  size_t pending() const { return real_pending_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  // Marks stamps drawn from the aux counter; aux events sort after every
  // real event at the same time (their stamps are astronomically larger).
  static constexpr uint64_t kAuxBit = uint64_t{1} << 63;

  struct Node {
    Callback cb;  // empty while free or once cancelled
    uint32_t next_free = kNone;
    uint32_t gen = 0;  // bumped on release; stale TimerIds stop matching
  };
  struct Entry {
    EventKey key;   // key.origin: the lane whose counter issued the stamp
    uint32_t lane;  // lane the event executes in
    uint32_t slot;  // pool node
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return b.key < a.key;
    }
  };
  struct LaneSeq {
    uint64_t real = 0;
    uint64_t aux = 0;
  };

  // Queue `cb` to run in `lane` at `t`. The stamp comes from the counter
  // of the executing (or LaneGuard-pinned) lane.
  TimerId schedule(Time t, Callback cb, bool aux, uint32_t lane) {
    VODSM_DCHECK(t >= now_);
    uint32_t slot = free_head_;
    if (slot == kNone) {
      slot = static_cast<uint32_t>(pool_.size());
      pool_.push_back(Node{std::move(cb), kNone, 0});
    } else {
      free_head_ = pool_[slot].next_free;
      pool_[slot].cb = std::move(cb);
    }
    LaneSeq& s = seqs_[cur_lane_];
    const uint64_t stamp = aux ? (s.aux++ | kAuxBit) : s.real++;
    heap_.push_back(Entry{{t, stamp, cur_lane_}, lane, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    if (!aux) ++real_pending_;
    return TimerId{slot, pool_[slot].gen};
  }

  // Return a node to the free list once its entry left the heap (it ran,
  // or it was cancelled), retiring its TimerIds.
  void release(uint32_t slot) {
    Node& n = pool_[slot];
    n.cb.reset();
    ++n.gen;
    n.next_free = free_head_;
    free_head_ = slot;
  }

  // Drop every cancelled entry of the heap in one pass and rebuild it. Keys
  // are total, so the remaining entries pop in the same order as before.
  void purge() {
    size_t keep = 0;
    for (const Entry& e : heap_) {
      if (pool_[e.slot].cb) {
        heap_[keep++] = e;
      } else {
        release(e.slot);
      }
    }
    heap_.resize(keep);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    cancelled_ = 0;
  }

  // 0 = nothing to do (drained of real events or stopped), 1 = executed a
  // real event, 2 = executed an aux event or skipped a cancelled one.
  int stepImpl() {
    if (heap_.empty() || stopped_ || real_pending_ == 0) return 0;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry ev = heap_.back();
    heap_.pop_back();
    Node& node = pool_[ev.slot];
    if (!node.cb) {
      --cancelled_;
      release(ev.slot);
      return 2;
    }
    VODSM_DCHECK(ev.key.t >= now_);
    now_ = ev.key.t;
    cur_lane_ = ev.lane;
    const uint64_t stamp = ev.key.stamp;
    const bool aux = (stamp & kAuxBit) != 0;
    LaneSeq& s = seqs_[ev.lane];
    if (aux) {
      s.aux = std::max(s.aux, (stamp & ~kAuxBit) + 1);
    } else {
      s.real = std::max(s.real, stamp + 1);
      --real_pending_;
    }
    // Move the callback out before running it: the callback may schedule
    // new events, which may reuse (or reallocate) this node's slot.
    Callback cb = std::move(node.cb);
    release(ev.slot);
    cb();
    return aux ? 2 : 1;
  }

  std::vector<Entry> heap_;
  std::vector<Node> pool_;
  uint32_t free_head_ = kNone;
  Time now_ = 0;
  uint64_t real_pending_ = 0;
  uint64_t cancelled_ = 0;  // cancelled entries still in heap_
  bool stopped_ = false;
  uint32_t cur_lane_ = 0;  // executing lane, or the LaneGuard-pinned one

  // Lane configuration (configureLanes) and per-lane stamp counters. With
  // the default single lane, seqs_[0].real is the classic global sequence.
  uint32_t nlanes_ = 1;
  std::vector<LaneSeq> seqs_ = std::vector<LaneSeq>(1);
};

}  // namespace vodsm::sim
