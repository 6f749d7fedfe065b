// Unit tests for the sim substrate: engine, rng, tasks, waiters, clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/waiter.hpp"

namespace vodsm::sim {
namespace {

TEST(Engine, ProcessesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.at(30, [&] { order.push_back(3); });
  e.at(10, [&] { order.push_back(1); });
  e.at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TieBrokenByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) e.at(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, CallbacksCanScheduleMore) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) e.after(10, chain);
  };
  e.at(0, chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, StopHaltsProcessing) {
  Engine e;
  int fired = 0;
  e.at(1, [&] {
    fired++;
    e.stop();
  });
  e.at(2, [&] { fired++; });
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RunBoundedReportsDrainState) {
  Engine e;
  for (int i = 0; i < 10; ++i) e.at(i, [] {});
  EXPECT_FALSE(e.runBounded(5));
  EXPECT_TRUE(e.runBounded(100));
}

// A stopped run abandons its queue: runBounded must never report it as
// drained, even when every scheduled event happened to execute first.
TEST(Engine, RunBoundedAfterStopReportsNotDrained) {
  Engine e;
  e.at(1, [&] { e.stop(); });
  e.at(2, [] {});
  EXPECT_FALSE(e.runBounded(100));
  EXPECT_TRUE(e.stopped());
  EXPECT_EQ(e.pending(), 1u);

  Engine e2;
  e2.at(1, [&] { e2.stop(); });  // stop on the very last event
  EXPECT_FALSE(e2.runBounded(100));
  EXPECT_EQ(e2.pending(), 0u);
}

// Aux (observer-only) events interleave at their times but never keep the
// engine alive; run() counts real events only.
TEST(Engine, AuxEventsDoNotKeepEngineAlive) {
  Engine e;
  int aux_fired = 0;
  int real_fired = 0;
  std::function<void()> tick = [&] {
    ++aux_fired;
    e.auxAfter(5, [&tick] { tick(); });
  };
  e.auxAt(0, [&tick] { tick(); });
  e.at(12, [&] { ++real_fired; });
  const uint64_t n = e.run();
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(real_fired, 1);
  EXPECT_EQ(aux_fired, 3);  // t = 0, 5, 10; the trailing tick is discarded
  EXPECT_EQ(e.now(), 12);
}

// A cancelled event never runs, is not counted, and does not keep run()
// alive: the clock stops at the last real event.
TEST(Engine, CancelledEventNeverRunsNorKeepsRunAlive) {
  Engine e;
  bool fired = false;
  e.at(10, [] {});
  const Engine::TimerId id = e.afterCancellable(1000, [&] { fired = true; });
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(id);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), 10);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelAfterFiringOrTwiceIsNoOp) {
  Engine e;
  int fired = 0;
  const Engine::TimerId done = e.afterCancellable(5, [&] { ++fired; });
  EXPECT_EQ(e.run(), 1u);
  // The next event reuses the fired timer's node; the stale id must not
  // reach it.
  bool later = false;
  e.after(5, [&] { later = true; });
  e.cancel(done);
  EXPECT_EQ(e.pending(), 1u);
  const Engine::TimerId twice = e.afterCancellable(7, [&] { ++fired; });
  e.cancel(twice);
  e.cancel(twice);
  EXPECT_EQ(e.pending(), 1u);
  e.cancel(Engine::TimerId{});  // names no event
  EXPECT_EQ(e.run(), 1u);
  EXPECT_TRUE(later);
  EXPECT_EQ(fired, 1);
}

// A cancelled event keeps its stamp: events scheduled around it, at the
// same time, run in exactly the order they would if it had run as a no-op.
TEST(Engine, CancelBetweenEqualTimeEventsKeepsTheirOrder) {
  auto runIt = [](bool cancel) {
    Engine e;
    std::vector<int> order;
    e.at(5, [&] {
      order.push_back(1);
      e.at(5, [&] { order.push_back(4); });
    });
    const Engine::TimerId mid = e.afterCancellable(5, [] {});
    e.at(5, [&] { order.push_back(2); });
    if (cancel) e.cancel(mid);
    e.at(5, [&] { order.push_back(3); });
    e.run();
    return order;
  };
  EXPECT_EQ(runIt(true), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(runIt(true), runIt(false));
}

// Cancelling most of a large heap, from setup and from inside a running
// event, forces purges (one in each phase); the survivors still pop in
// (time, insertion) order.
TEST(Engine, PurgeKeepsPopOrder) {
  Engine e;
  Rng rng(11);
  struct Ev {
    Time t;
    int id;
  };
  std::vector<Ev> expect;
  std::vector<Engine::TimerId> timers;
  std::vector<int> order;
  for (int i = 0; i < 2000; ++i) {
    const Time t = 100 + static_cast<Time>(rng.below(50));  // many ties
    auto record = [&order, i] { order.push_back(i); };
    if (i % 10 == 0) {
      e.at(t, record);
      expect.push_back({t, i});
    } else {
      if (timers.size() % 9 == 0) expect.push_back({t, i});  // survives
      timers.push_back(e.afterCancellable(t - e.now(), record));
    }
  }
  auto cancelRange = [&](size_t from, size_t to) {
    for (size_t k = from; k < to; ++k)
      if (k % 9 != 0) e.cancel(timers[k]);
  };
  cancelRange(0, 1350);
  e.at(1, [&] { cancelRange(1350, timers.size()); });
  std::stable_sort(expect.begin(), expect.end(),
                   [](const Ev& a, const Ev& b) { return a.t < b.t; });
  std::vector<int> want;
  for (const Ev& ev : expect) want.push_back(ev.id);
  EXPECT_EQ(e.run(), want.size() + 1);
  EXPECT_EQ(order, want);
}

// The canonical serial order, pinned event by event. Keys are (time,
// stamp, origin lane) with per-lane Lamport stamps; every committed
// baseline was recorded under this order, so a change here moves simulated
// results.
TEST(Engine, LaneScheduleRunsInCanonicalKeyOrder) {
  Engine e;
  e.configureLanes(3);
  std::string order;
  auto log = [&order](std::string name) {
    return [&order, name] { order += name + " "; };
  };
  // Equal-time events posted from three lanes. Each lane's first stamp is
  // 0, so at t = 10 the stamp and then the origin lane break the tie, not
  // insertion order. Keys are given as (time, stamp, origin lane).
  {
    Engine::LaneGuard g(e, 2);
    // (10, 0, 2), then lane 2's stamps 1..5 at t = 20.
    e.at(10, log("a2"));
    for (int k = 0; k < 5; ++k) e.at(20, log("w" + std::to_string(k)));
  }
  {
    Engine::LaneGuard g(e, 1);
    // (10, 0, 1), then (15, 1, 1), which moves lane 1's counter to 2.
    e.at(10, log("b1"));
    e.at(15, [&] {
      order += "chain1 ";
      // (20, 2, 1), the cancelled (20, 3, 1), and (20, 4, 1).
      e.at(20, log("x1"));
      const Engine::TimerId id = e.afterCancellable(5, log("cancelled"));
      e.at(20, log("y1"));
      e.cancel(id);
      // (20, 5, 1) runs in lane 0 and lifts lane 0's counter from 2 to 6,
      // so what it schedules at t = 20 sorts after w4 (20, 5, 2). Without
      // the Lamport advance, after0 would draw (20, 2, 0) and run first.
      e.atLane(0, 20, [&] {
        order += "hop1>0 ";
        e.at(20, log("after0"));
      });
    });
  }
  {
    Engine::LaneGuard g(e, 0);
    // (10, 0, 0), posted by lane 0 to run in lane 2; then (10, 1, 0).
    e.atLane(2, 10, log("c0>2"));
    e.at(10, log("d0"));
  }
  // The cancelled timer is not counted.
  EXPECT_EQ(e.run(), 14u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(order, "c0>2 b1 a2 d0 chain1 w0 x1 w1 w2 y1 w3 hop1>0 w4 after0 ");
}

TEST(Engine, SchedulingInPastIsRejectedInDebug) {
#ifndef NDEBUG
  Engine e;
  e.at(10, [] {});
  e.run();
  EXPECT_THROW(e.at(5, [] {}), Error);
#else
  GTEST_SKIP() << "debug-only check";
#endif
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(7), c2(8);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(42);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.below(17);
    ASSERT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit over 1000 draws
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(1);
  Rng b = a.fork();
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.next() != b.next();
  EXPECT_TRUE(any_diff);
}

Task<int> answer() { co_return 42; }
Task<int> addOne(Task<int> inner) { co_return co_await std::move(inner) + 1; }

TEST(Task, ChainsThroughCoAwait) {
  int result = 0;
  spawn([](int& out) -> Task<void> {
    out = co_await addOne(answer());
  }(result));
  EXPECT_EQ(result, 43);
}

TEST(Task, ExceptionPropagatesToSpawnCallback) {
  std::string message;
  spawn(
      []() -> Task<void> {
        throw Error("boom");
        co_return;
      }(),
      [&](std::exception_ptr e) {
        try {
          if (e) std::rethrow_exception(e);
        } catch (const Error& err) {
          message = err.what();
        }
      });
  EXPECT_EQ(message, "boom");
}

TEST(TaskScope, CompletedTasksDeregister) {
  TaskScope scope;
  int result = 0;
  spawn(scope, [](int& out) -> Task<void> {
    out = co_await addOne(answer());
  }(result));
  EXPECT_EQ(result, 43);
  EXPECT_EQ(scope.liveCount(), 0u);
}

// A frame suspended forever (the deadlock shape: engine drained, task still
// waiting) must be reclaimed by its scope, including awaited child frames —
// this is what keeps abandoned runs leak-free under LeakSanitizer.
TEST(TaskScope, ReclaimsSuspendedFramesWithChildren) {
  Waiter<void> never;
  bool finished = false;
  {
    TaskScope scope;
    spawn(
        scope,
        [](Waiter<void>& w) -> Task<void> {
          co_await [](Waiter<void>& inner) -> Task<void> {
            co_await inner;  // never fulfilled
          }(w);
        }(never),
        [&](std::exception_ptr) { finished = true; });
    EXPECT_EQ(scope.liveCount(), 1u);
  }  // scope destroys the suspended driver + task + child frames
  EXPECT_FALSE(finished);  // destroyed, not resumed: done never fires
  EXPECT_FALSE(never.ready());
}

TEST(TaskScope, CancelAllIsIdempotent) {
  Waiter<void> never;
  TaskScope scope;
  spawn(scope, [](Waiter<void>& w) -> Task<void> { co_await w; }(never));
  scope.cancelAll();
  EXPECT_EQ(scope.liveCount(), 0u);
  scope.cancelAll();
  spawn(scope, []() -> Task<void> { co_return; }());
  EXPECT_EQ(scope.liveCount(), 0u);
}

TEST(Waiter, FulfillBeforeAwaitDoesNotSuspend) {
  Waiter<int> w;
  w.fulfill(9);
  int got = 0;
  spawn([](Waiter<int>& wt, int& out) -> Task<void> {
    out = co_await wt;
  }(w, got));
  EXPECT_EQ(got, 9);
}

TEST(Waiter, AwaitThenFulfillResumes) {
  Waiter<int> w;
  int got = 0;
  spawn([](Waiter<int>& wt, int& out) -> Task<void> {
    out = co_await wt;
  }(w, got));
  EXPECT_EQ(got, 0);
  w.fulfill(5);
  EXPECT_EQ(got, 5);
}

TEST(Waiter, DoubleFulfillThrows) {
  Waiter<void> w;
  w.fulfill();
  EXPECT_THROW(w.fulfill(), Error);
}

TEST(Countdown, ResumesAtZero) {
  Countdown c(3);
  bool done = false;
  spawn([](Countdown& cd, bool& flag) -> Task<void> {
    co_await cd;
    flag = true;
  }(c, done));
  c.arrive();
  c.arrive();
  EXPECT_FALSE(done);
  c.arrive();
  EXPECT_TRUE(done);
}

TEST(Countdown, OverArrivalThrows) {
  Countdown c(1);
  c.arrive();
  EXPECT_THROW(c.arrive(), Error);
}

TEST(Clock, ChargeAndClamp) {
  Clock c;
  c.charge(100);
  EXPECT_EQ(c.now(), 100);
  c.atLeast(50);  // no going backwards
  EXPECT_EQ(c.now(), 100);
  c.atLeast(200);
  EXPECT_EQ(c.now(), 200);
}

TEST(Clock, SleepForAdvancesWithEngine) {
  Engine e;
  Clock c;
  c.charge(usec(5));
  bool done = false;
  spawn([](Engine& eng, Clock& clk, bool& flag) -> Task<void> {
    co_await sleepFor(eng, clk, usec(10));
    flag = true;
  }(e, c, done));
  EXPECT_FALSE(done);
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.now(), usec(15));
  EXPECT_EQ(e.now(), usec(15));
}

}  // namespace
}  // namespace vodsm::sim
