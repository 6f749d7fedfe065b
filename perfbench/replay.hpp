// Layer replays: a workload's own message-size and diff-size mix, taken
// from its traced run, pushed through one layer's public API at a time
// (sim::Engine; net::Network + net::Endpoint; mem::Diff create/apply).
// Each replay gives the host cost of one unit of that layer's work, so the
// traced counts times these costs estimate how much of the apps::run* time
// each layer explains.
#pragma once

#include <cstdint>
#include <map>

namespace perfbench {

// The work mix a traced run handed to the lower layers.
struct LayerMix {
  std::map<uint64_t, uint64_t> msg_bytes;   // payload bytes -> messages sent
  std::map<uint64_t, uint64_t> diff_bytes;  // diff wire bytes -> pages diffed
  int nodes = 2;                            // widest cluster in the workload

  void merge(const LayerMix& o) {
    for (const auto& [k, v] : o.msg_bytes) msg_bytes[k] += v;
    for (const auto& [k, v] : o.diff_bytes) diff_bytes[k] += v;
    if (o.nodes > nodes) nodes = o.nodes;
  }
};

// Host ns per engine event: `events` self-rescheduling events spread over
// one event chain per node, so the heap is as wide as the cluster.
double replayEngine(int nodes, uint64_t events, uint64_t seed);

// Host ns per reliable message through the transport and the network
// model, excluding engine dispatch (the replay's engine events, priced at
// `ns_per_event`, are subtracted). Sizes are drawn from the mix.
double replayNetwork(const LayerMix& mix, uint64_t messages,
                     double ns_per_event, uint64_t seed);

struct DiffCost {
  double create_ns = 0;  // per page diffed against its twin
  double apply_ns = 0;   // per diff applied to a page
};

// Host cost of creating and applying page diffs of the mix's sizes.
DiffCost replayDiffs(const LayerMix& mix, uint64_t pages, uint64_t seed);

}  // namespace perfbench
