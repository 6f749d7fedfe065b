// Deterministic fault injection for the simulated network.
//
// A FaultPlan is a list of rules, each scoping one fault kind to a simulated
// time window and a set of links or nodes. The plan is pure data; a
// FaultInjector binds it to one run (its own seeded Rng, per-rule budgets,
// per-node straggler scalers) and is queried by the Network at the switch —
// the same point where random cable loss already applies. Design rules, in
// the same spirit as tracing and metrics:
//
//  * Absent means absent. With no injector installed the network does not
//    allocate, draw randomness, or charge time differently: fault-free runs
//    are byte-identical to builds without this subsystem (asserted in
//    tests/test_faults.cpp and enforced by the bench regression gate).
//  * Deterministic. The injector owns a private Rng seeded from
//    (plan seed, run seed); it never touches the network's loss stream, and
//    rules are evaluated in plan order at engine-ordered arrival times, so
//    a faulted run is a pure function of its seeds.
//  * Sim-clock-driven. Windows, periods, and delays are simulated time;
//    nothing depends on host time or host scheduling.
//
// Plans are composed from a compact CLI spec (`--faults=...`), a JSON file
// (`--faults=@plan.json`), or a named chaos profile (`--faults=profile:NAME`)
// — see parseFaultPlan() in faults.cpp for the grammar.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "net/types.hpp"

namespace vodsm::net {

enum class FaultKind : uint8_t {
  kLoss = 0,   // drop each matching frame with probability p
  kBurst,      // drop every matching frame (budget-capped, optionally
               // periodic: outages of `duty` every `period`)
  kDup,        // deliver a second copy with probability p
  kReorder,    // hold a frame back by `delay` with probability p, letting
               // later frames overtake it on the downlink
  kDegrade,    // stretch downlink serialization by `factor`, add `delay`
  kPartition,  // drop every frame crossing the node_set boundary
  kSlow,       // multiply CPU charges on `node` by `factor` (straggler)
};
inline constexpr int kFaultKindCount = 7;
inline constexpr const char* kFaultKindName[kFaultKindCount] = {
    "loss", "burst", "dup", "reorder", "degrade", "partition", "slow",
};

// Wildcard for the src/dst/node filters below.
inline constexpr NodeId kAnyNode = UINT32_MAX;

struct FaultRule {
  FaultKind kind = FaultKind::kLoss;

  // Active window [t0, t1) in simulated time. With period > 0, only the
  // first `duty` of every `period` within the window is active (periodic
  // outages / degradation bursts).
  sim::Time t0 = 0;
  sim::Time t1 = INT64_MAX;
  sim::Time period = 0;
  sim::Time duty = 0;

  // Frame filters: sender, receiver, or either endpoint (kAnyNode matches
  // all). kSlow uses `node` as the straggler's id; kPartition ignores these
  // and uses node_set.
  NodeId src = kAnyNode;
  NodeId dst = kAnyNode;
  NodeId node = kAnyNode;
  // kPartition: bitmask of isolated nodes (bit i = node i, up to 64 nodes);
  // frames with exactly one endpoint inside the set are dropped.
  uint64_t node_set = 0;

  double p = 1.0;        // per-frame probability (loss / dup / reorder)
  double factor = 1.0;   // degrade: tx-time multiplier; slow: charge mult.
  sim::Time delay = 0;   // reorder hold-back; degrade added latency
  uint64_t budget = UINT64_MAX;  // max frames dropped by this rule
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  // Folded into the run seed for the injector's private Rng, so the same
  // plan can be replayed under independent randomness.
  uint64_t seed = 0;

  bool empty() const { return rules.empty(); }
};

// Parses a plan spec: `kind:key=val,key=val;kind:...`, `@file.json`, or
// `profile:NAME` (profiles may also appear as segments). Throws vodsm::Error
// on malformed input. See faults.cpp for the full grammar and key table.
FaultPlan parseFaultPlan(const std::string& spec);

// Named chaos profiles (lossy, bursty, degraded, partition, straggler,
// flaky, mixed) used by the chaos suite and expandable via `profile:NAME`.
std::string chaosProfileSpec(const std::string& name);
std::vector<std::string> chaosProfileNames();

// What the injector decided about one frame at the switch.
struct FaultAction {
  bool drop = false;
  bool duplicate = false;
  bool reordered = false;
  bool degraded = false;
  FaultKind cause = FaultKind::kLoss;  // rule kind that caused `drop`
  sim::Time extra_delay = 0;           // added before downlink serialization
  double tx_factor = 1.0;              // downlink serialization multiplier
};

// Binds a FaultPlan to one run. The Network queries onFrame() for every
// frame reaching the switch; the cluster installs chargeScalerFor() on each
// node clock. Not copyable: scalers hand out pointers into this object.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, uint64_t run_seed, int n_nodes);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  // Evaluates non-slow rules in plan order against one frame. Draws from
  // the destination's private Rng only for probabilistic rules that are
  // in-window and match the link, so out-of-window plans consume no
  // randomness. A drop short-circuits the remaining rules. Randomness and
  // rule budgets are sharded per destination node, so one receiver's fault
  // stream does not depend on other receivers' traffic. (Budgets therefore
  // cap drops per receiving node, not globally.)
  FaultAction onFrame(NodeId src, NodeId dst, sim::Time now);

  // Charge scaler for `node`, or null when no slow rule can ever match it
  // (so unaffected nodes keep the scaler-free fast path). The scaler stays
  // owned by the injector and must outlive the run.
  const sim::ChargeScaler* chargeScalerFor(NodeId node) const;

  // Frames dropped by rule `i` so far (budget consumption, summed over the
  // per-destination shards), for tests.
  uint64_t droppedBy(size_t i) const;

 private:
  class NodeScaler : public sim::ChargeScaler {
   public:
    explicit NodeScaler(std::vector<const FaultRule*> rules)
        : rules_(std::move(rules)) {}
    sim::Time scale(sim::Time dt, sim::Time now) const override;

   private:
    std::vector<const FaultRule*> rules_;
  };

  // Per-destination-node injection state (see onFrame).
  struct Shard {
    sim::Rng rng;
    std::vector<uint64_t> used;  // per-rule frames dropped at this receiver
  };

  FaultPlan plan_;
  std::vector<Shard> shards_;  // indexed by destination node
  std::vector<std::unique_ptr<NodeScaler>> scalers_;  // per node; may be null
};

}  // namespace vodsm::net
