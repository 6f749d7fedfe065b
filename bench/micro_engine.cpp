// Microbenchmark: event throughput of the serial discrete-event engine.
//
// The lane workload runs one self-rescheduling event chain per lane (one
// lane per simulated node); a configurable fraction of events also posts a
// cross-lane frame via atLane, the hop every simulated network frame
// takes. The event count is the same every iteration, so the counter
// doubles as a cheap self-check.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "support/check.hpp"

namespace {

using namespace vodsm;

// One event chain per lane; every event may post a no-op frame to another
// lane. A small LCG keeps the cross-lane pattern deterministic without
// host randomness.
class Driver {
 public:
  Driver(sim::Engine& e, uint32_t nlanes, int cross_permille,
         uint64_t events_per_lane)
      : e_(e), nlanes_(nlanes), permille_(cross_permille) {
    lanes_.resize(nlanes);
    for (uint32_t li = 0; li < nlanes; ++li) {
      lanes_[li].remaining = events_per_lane;
      lanes_[li].lcg = li * 2654435761u + 1u;
    }
  }

  void start() {
    for (uint32_t li = 0; li < nlanes_; ++li) {
      sim::Engine::LaneGuard g(e_, li);
      e_.at(sim::usec(1), [this, li] { step(li); });
    }
  }

 private:
  struct LaneState {
    uint64_t remaining = 0;
    uint32_t lcg = 0;
  };

  void step(uint32_t li) {
    LaneState& s = lanes_[li];
    if (s.remaining == 0) return;
    --s.remaining;
    s.lcg = s.lcg * 1664525u + 1013904223u;
    if (nlanes_ > 1 && static_cast<int>((s.lcg >> 16) % 1000) < permille_) {
      const uint32_t dst = (li + 1 + s.lcg % (nlanes_ - 1)) % nlanes_;
      e_.atLane(dst, e_.now() + kHop, [] {});
    }
    if (s.remaining > 0) e_.after(sim::usec(1), [this, li] { step(li); });
  }

  static constexpr sim::Time kHop = sim::usec(50);

  sim::Engine& e_;
  uint32_t nlanes_;
  int permille_;
  std::vector<LaneState> lanes_;
};

void BM_EngineLanes(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  constexpr uint32_t kLanes = 16;
  constexpr uint64_t kPerLane = 2000;
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine e;
    e.configureLanes(kLanes);
    Driver d(e, kLanes, permille, kPerLane);
    d.start();
    events = e.run();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_EngineLanes)
    ->ArgNames({"cross_permille"})
    ->ArgsProduct({{0, 50, 300}})
    ->Unit(benchmark::kMillisecond);

// Single-lane scheduling hot path: heap push/pop and callback-pool
// recycling on one stamp counter.
void BM_EngineSerialChain(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    uint64_t left = n;
    std::function<void()> step = [&] {
      if (--left > 0) e.after(sim::usec(1), [&step] { step(); });
    };
    e.at(sim::usec(1), [&step] { step(); });
    const uint64_t ran = e.run();
    VODSM_CHECK(ran == n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineSerialChain)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
