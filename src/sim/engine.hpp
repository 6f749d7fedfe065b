// Discrete-event engine with an optional conservative parallel schedule.
//
// Events are keyed by (time, stamp, origin-lane) and processed in strictly
// increasing key order, so a run is deterministic. Stamps are per-lane
// Lamport counters: the lane that schedules an event draws the stamp from
// its own counter, and executing an event with stamp c advances the
// executing lane's counter to at least c+1, so causally-later events always
// carry strictly larger keys. With a single lane (the default) stamps
// degenerate to the classic global insertion sequence and the engine
// behaves exactly like the historical serial (time, seq) engine.
//
// Lanes. `configureLanes(n, threads)` partitions events into n lanes (one
// per simulated node). All scheduling APIs are lane-local — an event's
// callbacks schedule into the lane that is executing — except `atLane`,
// which posts into another lane and models a cross-node network frame.
// Cross-lane posts must land at least `lookahead()` after the sender's
// current time (the minimum link latency published by the network), which
// is what makes the conservative schedule below correct.
//
// Parallel schedule (synchronous conservative windows, no rollback): each
// round computes m = min next-event time over all lanes and processes every
// lane's events with t < m + lookahead in parallel, one worker per lane
// group. Any cross-lane post made inside the window lands at or after the
// window end (t >= sender now + lookahead >= m + lookahead), so lanes never
// need events from each other mid-window; posts are buffered per source
// lane and merged at the barrier. The window advance doubles as the
// horizon broadcast of classic null-message schemes: every lane learns the
// global minimum each round, so idle lanes cannot deadlock the run. Within
// a lane, events run in key order; across windows, key ranges are disjoint
// and increasing — so the global execution order is a (deterministic)
// linear extension of the serial canonical order, and any state touched by
// at most one lane observes the exact serial sequence of operations.
// Observers (trace, metrics) that record from worker threads tag entries
// with the executing event's key and replay them in merged key order at
// each barrier, reproducing the serial stream byte for byte.
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
// entry stays in its heap, is skipped when it reaches the top, and neither
// counts as a real event nor keeps run() alive. Once cancelled entries
// outnumber live ones in a heap, the heap is purged in one O(n) rebuild;
// keys are total, so pop order is unchanged. Cancelling an event that
// already ran, or cancelling twice, is a no-op: each pool node carries a
// generation that is bumped whenever the node is released. A timer must be
// cancelled from the lane that armed it. Timers armed before a parallel
// run stay in the global pool (runParallel moves only their heap entries
// into the lanes), so their ids stay valid across the migration.
//
// Storage: callbacks live in a free-list pool of event nodes (reused across
// the run, so steady-state scheduling allocates nothing), and the priority
// queue orders plain POD records — heap sifts move small PODs instead of
// whole closures, and popping the top needs no const_cast.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
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

// Hooks for observers that must merge per-lane records deterministically
// when the engine runs its parallel schedule. All hooks are invoked on the
// coordinating thread while workers are quiescent, except none during
// serial runs (a serial run never calls them).
class ParallelObserver {
 public:
  virtual ~ParallelObserver() = default;
  // The parallel run is about to start; size per-lane buffers.
  virtual void onParallelStart(uint32_t nlanes) = 0;
  // A window completed; merge and flush per-lane records. On the final
  // window `limit` is the key of the last real event of the run: records
  // keyed later (trailing aux samples the serial schedule never executed)
  // must be dropped. Otherwise `limit` is null.
  virtual void onWindow(const EventKey* limit) = 0;
  // The parallel run finished; per-lane buffers are empty again.
  virtual void onParallelEnd() = 0;
};

// Resolves a --sim-threads style request: positive passes through, zero
// consults VODSM_SIM_THREADS, anything else (or no env) means serial.
inline int resolveSimThreads(int requested) {
  if (requested > 0) return requested;
  if (requested == 0) {
    if (const char* env = std::getenv("VODSM_SIM_THREADS")) {
      const int v = std::atoi(env);
      if (v > 0) return v;
    }
  }
  return 1;
}

class Engine {
 public:
  using Callback = sim::Callback;

  // Identifies the event a worker thread is executing during a parallel
  // window. Observers use the key to tag records for deterministic merge
  // and the shared ordinal to preserve intra-event record order.
  struct ExecContext {
    EventKey key;
    uint32_t lane = 0;
    uint64_t ordinal = 0;
    uint64_t nextOrdinal() { return ordinal++; }
  };

  // Non-null only on a worker thread inside a parallel window.
  static ExecContext* execContext() { return exec_tls_; }

  // Names one event scheduled by afterCancellable. A default-constructed id
  // names no event; cancelling it is a no-op.
  struct TimerId {
    uint32_t slot = UINT32_MAX;  // pool node; kGlobalSlot marks pool_
    uint32_t gen = 0;            // the node's generation when armed
    uint32_t lane = 0;           // lane the event executes in
    uint32_t run = 0;            // lane pools: the parallel run that armed it
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

  // Partition events into `nlanes` lanes (one per simulated node) and
  // request `threads` workers for run(); threads <= 0 resolves through
  // VODSM_SIM_THREADS (see resolveSimThreads). Must be called before any
  // event is scheduled. The schedule is bit-identical for every thread
  // count; threads only change how the run is executed on the host.
  void configureLanes(int nlanes, int threads) {
    VODSM_CHECK_MSG(heap_.empty() && lanes_.empty(),
                    "configureLanes must precede scheduling");
    nlanes_ = nlanes > 1 ? static_cast<uint32_t>(nlanes) : 1;
    threads_ = static_cast<uint32_t>(std::clamp(
        resolveSimThreads(threads), 1, static_cast<int>(nlanes_)));
    seqs_.assign(nlanes_, LaneSeq{});
    if (cur_lane_ >= nlanes_) cur_lane_ = 0;
  }

  uint32_t lanes() const { return nlanes_; }
  uint32_t threads() const { return threads_; }

  // Minimum cross-lane latency: every atLane post must land at least this
  // far after the posting lane's current time. Published by the network
  // model; required (> 0) for the parallel schedule to engage.
  void setLookahead(Time t) { lookahead_ = t; }
  Time lookahead() const { return lookahead_; }

  void addParallelObserver(ParallelObserver* o) {
    if (o) observers_.push_back(o);
  }

  // Schedule `cb` at absolute time `t` (must be >= now()) in the lane that
  // is currently executing (or the LaneGuard-pinned lane during setup).
  void at(Time t, Callback cb) { schedule(t, std::move(cb), false); }

  // Schedule `cb` `dt` after the engine's current time.
  void after(Time dt, Callback cb) { at(now() + dt, std::move(cb)); }

  // As after(), but the event can be withdrawn with cancel().
  TimerId afterCancellable(Time dt, Callback cb) {
    return schedule(now() + dt, std::move(cb), false);
  }

  // Withdraw a pending afterCancellable event (see the header comment).
  // Must run in the lane that armed it; a no-op if it already ran or was
  // cancelled.
  void cancel(TimerId id) {
    if (id.slot == kNone) return;
    VODSM_DCHECK(exec_tls_ == nullptr || exec_tls_->lane == id.lane);
    const bool global = (id.slot & kGlobalSlot) != 0;
    const uint32_t slot = id.slot & ~kGlobalSlot;
    // A lane-pool timer dies with the parallel run that armed it.
    if (!global && (!parallel_live_ || id.run != parallel_runs_)) return;
    Node& n = global ? pool_[slot] : lanes_[id.lane].pool[slot];
    if (n.gen != id.gen || !n.cb) return;
    n.cb.reset();  // an empty callback marks the entry cancelled
    if (parallel_live_) {
      LaneRt& l = lanes_[id.lane];
      --l.real_pending;
      if (++l.cancelled * 2 > l.heap.size()) purge(l.heap, l.cancelled, &l);
    } else {
      --real_pending_;
      if (++cancelled_ * 2 > heap_.size())
        purge(heap_, cancelled_, nullptr);
    }
  }

  // Schedule into another lane: the cross-node frame hop. `t` must be at
  // least lookahead() after the posting lane's current time.
  void atLane(uint32_t lane, Time t, Callback cb) {
    // Unconfigured engines (nlanes_ == 1) fold every lane into lane 0.
    const uint32_t dst = lane < nlanes_ ? lane : 0;
    if (ExecContext* x = exec_tls_) {
      LaneRt& src = lanes_[x->lane];
      VODSM_DCHECK(t >= src.now + lookahead_);
      src.outbox.push_back(
          Outpost{t, nextStamp(x->lane), x->lane, dst, std::move(cb)});
      return;
    }
    VODSM_DCHECK(t >= now_);
    pushGlobal(Entry{t, nextStamp(cur_lane_), cur_lane_, dst,
                     alloc(pool_, free_head_, std::move(cb)) | kGlobalSlot});
    ++real_pending_;
  }

  // Schedule an auxiliary (observer-only) event: it draws from a separate
  // stamp space, never delays engine termination, and trailing aux events
  // past the last real event are discarded. Aux callbacks must not mutate
  // simulated state or schedule real events.
  void auxAt(Time t, Callback cb) { schedule(t, std::move(cb), true); }
  void auxAfter(Time dt, Callback cb) { auxAt(now() + dt, std::move(cb)); }

  // Current simulated time: the executing lane's clock on a worker thread,
  // the global serial clock otherwise.
  Time now() const {
    if (ExecContext* x = exec_tls_) return lanes_[x->lane].now;
    return now_;
  }

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
    if (threads_ > 1 && nlanes_ > 1 && lookahead_ > 0) return runParallel();
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

  // Stop processing. Serial runs halt before the next event; a parallel
  // run halts at the next window barrier (lanes finish the current window).
  void stop() { stopped_.store(true, std::memory_order_relaxed); }
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  // Real events still pending (aux events are not counted: they never keep
  // the engine alive). Not meaningful from inside a parallel window.
  size_t pending() const {
    size_t n = real_pending_;
    for (const LaneRt& l : lanes_) n += l.real_pending;
    return n;
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  // Entry::slot / TimerId::slot bit: the node lives in the global pool_,
  // not in the lane's own pool (timers armed before a parallel run).
  static constexpr uint32_t kGlobalSlot = uint32_t{1} << 31;
  // Marks stamps drawn from the aux counter; aux events sort after every
  // real event at the same time (their stamps are astronomically larger).
  static constexpr uint64_t kAuxBit = uint64_t{1} << 63;

  struct Node {
    Callback cb;  // empty while free or once cancelled
    uint32_t next_free = kNone;
    uint32_t gen = 0;  // bumped on release; stale TimerIds stop matching
  };
  struct Entry {
    Time t;
    uint64_t stamp;
    uint32_t origin;  // lane whose counter issued the stamp
    uint32_t lane;    // lane the event executes in
    uint32_t slot;    // pool node, with kGlobalSlot for pool_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.stamp != b.stamp) return a.stamp > b.stamp;
      return a.origin > b.origin;
    }
  };
  struct LaneSeq {
    uint64_t real = 0;
    uint64_t aux = 0;
  };
  // A cross-lane post buffered during a parallel window.
  struct Outpost {
    Time t;
    uint64_t stamp;
    uint32_t origin;
    uint32_t lane;
    Callback cb;
  };
  // Per-lane runtime state, live only during a parallel run.
  struct LaneRt {
    std::vector<Entry> heap;
    std::vector<Node> pool;
    uint32_t free_head = kNone;
    Time now = 0;
    uint64_t real_pending = 0;
    uint64_t cancelled = 0;  // cancelled entries still in heap
    uint64_t real_executed = 0;
    EventKey last_real{};
    bool any_real = false;
    std::vector<Outpost> outbox;
    std::exception_ptr error;
  };

  uint64_t nextStamp(uint32_t lane) { return seqs_[lane].real++; }
  uint64_t nextAuxStamp(uint32_t lane) {
    return seqs_[lane].aux++ | kAuxBit;
  }

  // Take a node for `cb` from `pool`'s free list, or grow the pool.
  static uint32_t alloc(std::vector<Node>& pool, uint32_t& free_head,
                        Callback cb) {
    if (free_head == kNone) {
      pool.push_back(Node{std::move(cb), kNone, 0});
      return static_cast<uint32_t>(pool.size() - 1);
    }
    const uint32_t slot = free_head;
    free_head = pool[slot].next_free;
    pool[slot].cb = std::move(cb);
    return slot;
  }

  // Return a node to its pool's free list, retiring its TimerIds.
  static void release(Node& n, uint32_t slot, uint32_t& free_head) {
    n.cb.reset();
    ++n.gen;
    n.next_free = free_head;
    free_head = slot;
  }

  void pushGlobal(Entry e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  TimerId schedule(Time t, Callback cb, bool aux) {
    if (ExecContext* x = exec_tls_) {
      LaneRt& l = lanes_[x->lane];
      VODSM_DCHECK(t >= l.now);
      const uint32_t slot = alloc(l.pool, l.free_head, std::move(cb));
      l.heap.push_back(Entry{
          t, aux ? nextAuxStamp(x->lane) : nextStamp(x->lane), x->lane,
          x->lane, slot});
      std::push_heap(l.heap.begin(), l.heap.end(), Later{});
      if (!aux) ++l.real_pending;
      return TimerId{slot, l.pool[slot].gen, x->lane, parallel_runs_};
    }
    VODSM_DCHECK(t >= now_);
    const uint32_t slot = alloc(pool_, free_head_, std::move(cb));
    pushGlobal(Entry{t, aux ? nextAuxStamp(cur_lane_) : nextStamp(cur_lane_),
                     cur_lane_, cur_lane_, slot | kGlobalSlot});
    if (!aux) ++real_pending_;
    return TimerId{slot | kGlobalSlot, pool_[slot].gen, cur_lane_, 0};
  }

  // The node behind a heap entry of `l` (or of the global heap if null).
  Node& nodeOf(const Entry& e, LaneRt* l) {
    if (l == nullptr || (e.slot & kGlobalSlot))
      return pool_[e.slot & ~kGlobalSlot];
    return l->pool[e.slot];
  }

  // Drop every cancelled entry of `heap` in one pass and rebuild it. Keys
  // are total, so the remaining entries pop in the same order as before.
  void purge(std::vector<Entry>& heap, uint64_t& cancelled, LaneRt* l) {
    size_t keep = 0;
    for (const Entry& e : heap) {
      Node& n = nodeOf(e, l);
      if (n.cb) {
        heap[keep++] = e;
      } else {
        releaseEntry(e, l);
      }
    }
    heap.resize(keep);
    std::make_heap(heap.begin(), heap.end(), Later{});
    cancelled = 0;
  }

  // Free the node behind `e` once the entry left its heap (it ran, or it
  // was cancelled). A global node reached from a lane heap only has its
  // callback and generation reset: worker threads never touch the global
  // free list, which runParallel rebuilds after the run.
  void releaseEntry(const Entry& e, LaneRt* l) {
    Node& n = nodeOf(e, l);
    if (l == nullptr) {
      release(n, e.slot & ~kGlobalSlot, free_head_);
    } else if (e.slot & kGlobalSlot) {
      n.cb.reset();
      ++n.gen;
    } else {
      release(n, e.slot, l->free_head);
    }
  }

  // Serial step: 0 = nothing to do (drained of real events or stopped),
  // 1 = executed a real event, 2 = executed an aux event or skipped a
  // cancelled one.
  int stepImpl() {
    if (heap_.empty() || stopped() || real_pending_ == 0) return 0;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry ev = heap_.back();
    heap_.pop_back();
    Node& node = nodeOf(ev, nullptr);
    if (!node.cb) {
      --cancelled_;
      releaseEntry(ev, nullptr);
      return 2;
    }
    VODSM_DCHECK(ev.t >= now_);
    now_ = ev.t;
    cur_lane_ = ev.lane;
    const bool aux = (ev.stamp & kAuxBit) != 0;
    LaneSeq& s = seqs_[ev.lane];
    if (aux) {
      s.aux = std::max(s.aux, (ev.stamp & ~kAuxBit) + 1);
    } else {
      s.real = std::max(s.real, ev.stamp + 1);
      --real_pending_;
    }
    // Move the callback out before running it: the callback may schedule
    // new events, which may reuse (or reallocate) this node's slot.
    Callback cb = std::move(node.cb);
    releaseEntry(ev, nullptr);
    cb();
    return aux ? 2 : 1;
  }

  // Execute one lane's share of the window [.., wend): pop and run events
  // with t < wend in key order. Runs on a worker thread; all scheduling
  // from inside lands back in this lane (or its outbox for atLane).
  void processWindow(uint32_t li, Time wend) {
    LaneRt& l = lanes_[li];
    ExecContext ctx;
    ctx.lane = li;
    exec_tls_ = &ctx;
    while (!l.heap.empty() && l.heap.front().t < wend) {
      std::pop_heap(l.heap.begin(), l.heap.end(), Later{});
      const Entry ev = l.heap.back();
      l.heap.pop_back();
      Node& node = nodeOf(ev, &l);
      if (!node.cb) {
        --l.cancelled;
        releaseEntry(ev, &l);
        continue;
      }
      l.now = ev.t;
      const bool aux = (ev.stamp & kAuxBit) != 0;
      LaneSeq& s = seqs_[li];
      if (aux) {
        s.aux = std::max(s.aux, (ev.stamp & ~kAuxBit) + 1);
      } else {
        s.real = std::max(s.real, ev.stamp + 1);
        --l.real_pending;
        ++l.real_executed;
        l.last_real = EventKey{ev.t, ev.stamp, ev.origin};
        l.any_real = true;
      }
      ctx.key = EventKey{ev.t, ev.stamp, ev.origin};
      ctx.ordinal = 0;
      Callback cb = std::move(node.cb);
      releaseEntry(ev, &l);
      try {
        cb();
      } catch (...) {
        l.error = std::current_exception();
        break;
      }
    }
    exec_tls_ = nullptr;
  }

  void runWorkerShare(uint32_t w, Time wend) {
    for (uint32_t li = w; li < nlanes_; li += threads_)
      processWindow(li, wend);
  }

  void workerLoop(uint32_t w) {
    uint64_t seen = 0;
    while (true) {
      Time wend;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return shutdown_ || round_ != seen; });
        if (shutdown_) return;
        seen = round_;
        wend = wend_;
      }
      runWorkerShare(w, wend);
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--working_ == 0) cv_done_.notify_one();
      }
    }
  }

  uint64_t runParallel() {
    VODSM_CHECK_MSG(lookahead_ > 0, "parallel run requires lookahead > 0");
    // Move the pending global entries into per-lane heaps. Their nodes stay
    // in pool_ (so TimerIds armed during setup stay valid); cancelled
    // entries are dropped here.
    lanes_ = std::vector<LaneRt>(nlanes_);
    ++parallel_runs_;
    parallel_live_ = true;
    for (LaneRt& l : lanes_) l.now = now_;
    for (const Entry& ev : heap_) {
      if (!nodeOf(ev, nullptr).cb) continue;
      LaneRt& l = lanes_[ev.lane];
      l.heap.push_back(ev);
      if ((ev.stamp & kAuxBit) == 0) ++l.real_pending;
    }
    heap_.clear();
    cancelled_ = 0;
    real_pending_ = 0;
    for (LaneRt& l : lanes_)
      std::make_heap(l.heap.begin(), l.heap.end(), Later{});
    for (ParallelObserver* o : observers_) o->onParallelStart(nlanes_);

    // One worker per thread; the coordinating thread doubles as worker 0.
    round_ = 0;
    working_ = 0;
    shutdown_ = false;
    std::vector<std::thread> workers;
    workers.reserve(threads_ - 1);
    for (uint32_t w = 1; w < threads_; ++w)
      workers.emplace_back([this, w] { workerLoop(w); });

    EventKey last_real{};
    bool any_real = false;
    std::exception_ptr error;
    while (true) {
      uint64_t pending_real = 0;
      for (const LaneRt& l : lanes_) pending_real += l.real_pending;
      if (pending_real == 0 || stopped()) break;
      Time m = std::numeric_limits<Time>::max();
      for (const LaneRt& l : lanes_)
        if (!l.heap.empty()) m = std::min(m, l.heap.front().t);
      {
        std::lock_guard<std::mutex> lk(mu_);
        wend_ = m + lookahead_;
        working_ = static_cast<int>(threads_) - 1;
        ++round_;
      }
      cv_work_.notify_all();
      runWorkerShare(0, m + lookahead_);
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_done_.wait(lk, [this] { return working_ == 0; });
      }
      for (LaneRt& l : lanes_)
        if (l.error && !error) error = l.error;
      if (error) break;
      // Barrier: distribute the window's cross-lane posts. Heap pop order
      // depends only on the comparator, so merge order is immaterial.
      uint64_t remaining = 0;
      for (LaneRt& src : lanes_) {
        for (Outpost& p : src.outbox) {
          LaneRt& dst = lanes_[p.lane];
          const uint32_t slot =
              alloc(dst.pool, dst.free_head, std::move(p.cb));
          dst.heap.push_back(Entry{p.t, p.stamp, p.origin, p.lane, slot});
          std::push_heap(dst.heap.begin(), dst.heap.end(), Later{});
          if ((p.stamp & kAuxBit) == 0) ++dst.real_pending;
        }
        src.outbox.clear();
      }
      for (const LaneRt& l : lanes_) remaining += l.real_pending;
      for (const LaneRt& l : lanes_)
        if (l.any_real && (!any_real || last_real < l.last_real)) {
          last_real = l.last_real;
          any_real = true;
        }
      const bool final_window = remaining == 0 || stopped();
      for (ParallelObserver* o : observers_)
        o->onWindow(final_window ? &last_real : nullptr);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers) t.join();

    // Reclaim the global pool: every event in it ran, was cancelled, or
    // (after stop()) was abandoned with its lane heap. Bumping every
    // generation retires all TimerIds that name these nodes.
    parallel_live_ = false;
    free_head_ = kNone;
    for (uint32_t i = static_cast<uint32_t>(pool_.size()); i-- > 0;)
      release(pool_[i], i, free_head_);

    // Fold the clock to the last real event's time, exactly as the serial
    // schedule leaves it (lanes may have run trailing aux events further).
    uint64_t total_real = 0;
    for (const LaneRt& l : lanes_) total_real += l.real_executed;
    if (any_real) now_ = std::max(now_, last_real.t);
    for (ParallelObserver* o : observers_) o->onParallelEnd();
    if (error) std::rethrow_exception(error);
    return total_real;
  }

  // Serial state. The global heap holds every pending event outside a
  // parallel run; runParallel migrates it into lanes_ and leaves it empty.
  std::vector<Entry> heap_;
  std::vector<Node> pool_;
  uint32_t free_head_ = kNone;
  Time now_ = 0;
  uint64_t real_pending_ = 0;
  uint64_t cancelled_ = 0;  // cancelled entries still in heap_
  std::atomic<bool> stopped_{false};
  uint32_t cur_lane_ = 0;  // scheduling lane outside parallel windows

  // Lane configuration (configureLanes) and per-lane stamp counters. With
  // the default single lane, seqs_[0].real is the classic global sequence.
  uint32_t nlanes_ = 1;
  uint32_t threads_ = 1;
  Time lookahead_ = 0;
  std::vector<LaneSeq> seqs_ = std::vector<LaneSeq>(1);
  std::vector<LaneRt> lanes_;  // non-empty only during/after a parallel run
  bool parallel_live_ = false;  // lanes_ hold the pending events
  uint32_t parallel_runs_ = 0;  // parallel runs started; tags lane TimerIds
  std::vector<ParallelObserver*> observers_;

  // Worker-pool plumbing for runParallel.
  std::mutex mu_;
  std::condition_variable cv_work_, cv_done_;
  uint64_t round_ = 0;
  int working_ = 0;
  bool shutdown_ = false;
  Time wend_ = 0;

  inline static thread_local ExecContext* exec_tls_ = nullptr;
};

}  // namespace vodsm::sim
