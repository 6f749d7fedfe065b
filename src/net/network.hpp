// Switched-Ethernet model with a pluggable topology (NetConfig::topology).
//
// Star (default): one switch, one full-duplex link per node. A frame's
// journey: sender software overhead -> uplink serialization (FIFO per
// sender) -> switch latency -> downlink serialization (FIFO per receiver)
// -> NIC receive queue (tail drop when full) -> receive software overhead
// -> delivery callback. Random loss is applied at the switch.
//
// Multi-switch fabrics (fat tree / leaf-spine) group nodes onto leaf
// switches of `leaf_size` nodes. Frames that stay within a leaf take
// exactly the star path above, so star runs and intra-leaf traffic are
// byte-identical to the pre-topology model. Frames that cross leaves
// traverse two trunk hops — leaf(src) -> spine -> leaf(dst), the spine
// picked by a deterministic hash of (src, dst) — each with its own FIFO
// serialization at trunk bandwidth plus the trunk latency, before rejoining
// the star path at the destination leaf's downlink. Trunk hops run in the
// leaf's representative lane (its first node): up-trunks in the source
// leaf's rep, down-trunks in the destination leaf's rep. The lane a hop
// runs in decides the stamps of the events it posts, and so the canonical
// order of equal-time events (see sim::Engine).
//
// All bookkeeping happens inside engine events so concurrent senders are
// ordered by global simulated time.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "net/faults.hpp"
#include "net/frame.hpp"
#include "net/stats.hpp"
#include "net/types.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace vodsm::net {

class Network {
 public:
  // Called when a frame clears the receiver's software stack.
  // `arrive` is the time the payload is available to the node.
  using DeliverFn =
      std::function<void(NodeId src, Frame frame, sim::Time arrive)>;

  Network(sim::Engine& engine, int n_nodes, NetConfig config, uint64_t seed)
      : engine_(engine),
        config_(config),
        ports_(static_cast<size_t>(n_nodes)),
        shards_(static_cast<size_t>(n_nodes)) {
    VODSM_CHECK(n_nodes > 0);
    // Per-receiver loss streams: each destination forks its own stream off
    // the run seed, so a receiver's draws do not depend on other traffic.
    sim::Rng root(seed);
    rngs_.reserve(static_cast<size_t>(n_nodes));
    for (int i = 0; i < n_nodes; ++i) rngs_.push_back(root.fork());
    if (config_.multiSwitch()) {
      VODSM_CHECK(config_.topology.leaf_size > 0);
      const int leaf = config_.topology.leaf_size;
      nleaves_ = (n_nodes + leaf - 1) / leaf;
      nspines_ = config_.topology.spines > 0 ? config_.topology.spines
                 : config_.topology.kind == TopologyKind::kFatTree
                     ? nleaves_
                     : std::max(1, (nleaves_ + 1) / 2);
      trunks_.assign(static_cast<size_t>(nleaves_),
                     TrunkShard{std::vector<Trunk>(static_cast<size_t>(
                                    nspines_)),
                                std::vector<Trunk>(
                                    static_cast<size_t>(nspines_))});
    }
  }

  int nodeCount() const { return static_cast<int>(ports_.size()); }
  const NetConfig& config() const { return config_; }

  // Counters are sharded per node: sender-side counters (frames_sent,
  // wire_bytes, transport sends) live in the sender's shard, everything
  // decided at the switch or NIC in the receiver's. stats() folds the
  // shards into one total on demand.
  NetStats& statsFor(NodeId node) { return shards_[node]; }
  const NetStats& statsFor(NodeId node) const { return shards_[node]; }
  const NetStats& stats() const {
    total_ = NetStats{};
    for (const NetStats& s : shards_) total_.add(s);
    return total_;
  }

  // One utilization row per trunk link direction; empty on star fabrics.
  // Ordered (leaf, spine, up-before-down) so reports are deterministic.
  struct TrunkUse {
    int leaf = 0;   // edge switch the trunk attaches to
    int spine = 0;  // spine switch at the other end
    bool up = false;  // leaf -> spine (true) or spine -> leaf
    uint64_t frames = 0;
    uint64_t wire_bytes = 0;
    sim::Time busy_ns = 0;  // total serialization time on the trunk
  };
  std::vector<TrunkUse> trunkStats() const {
    std::vector<TrunkUse> out;
    for (int l = 0; l < nleaves_; ++l) {
      for (int s = 0; s < nspines_; ++s) {
        const Trunk& up = trunks_[static_cast<size_t>(l)]
                              .up[static_cast<size_t>(s)];
        const Trunk& down = trunks_[static_cast<size_t>(l)]
                                .down[static_cast<size_t>(s)];
        out.push_back({l, s, true, up.frames, up.wire_bytes, up.busy_ns});
        out.push_back(
            {l, s, false, down.frames, down.wire_bytes, down.busy_ns});
      }
    }
    return out;
  }
  int leafCount() const { return nleaves_; }
  int spineCount() const { return nspines_; }

  void setDeliver(NodeId node, DeliverFn fn) {
    port(node).deliver = std::move(fn);
  }

  // Optional event recorder for frame drops (random loss, NIC overflow).
  // Drops are charged to the would-be receiver's net track.
  void setTrace(obs::TraceRecorder* t) { trace_ = t; }

  // Optional counter/gauge registry. Link metrics use engine time and only
  // read values this layer already computed, so metered runs stay
  // bit-identical to unmetered ones. Uplink busy time and in-flight bytes
  // are charged to the sender's link, queue occupancy, downlink busy time
  // and drops to the receiver's.
  void setMetrics(obs::MetricsRegistry* m) { metrics_ = m; }

  // Maps the dropped frame's u16 message type onto a MsgClass so drops are
  // attributed per class in NetStats. Without one, non-ack drops land in
  // kOther (pure-ack drops are counted separately either way).
  void setClassifier(Classifier c) { classify_ = c; }

  // Optional fault injector, queried once per frame at the switch (the same
  // point where random cable loss applies). Null means no injection: the
  // fault-free path draws no extra randomness and computes identical times,
  // so runs without a plan stay byte-identical. Caller keeps ownership.
  void setFaults(FaultInjector* f) { faults_ = f; }

  // Inject a frame from src to dst no earlier than `earliest` (typically the
  // sender's local clock). The caller has already decided the frame is worth
  // counting; this layer only counts frame/wire statistics.
  void send(NodeId src, NodeId dst, Frame frame, sim::Time earliest) {
    VODSM_CHECK(src < ports_.size() && dst < ports_.size());
    VODSM_CHECK_MSG(src != dst, "loopback frames never reach the wire");
    sim::Time start = std::max(earliest, engine_.now());
    engine_.at(start, [this, src, dst, f = std::move(frame)]() mutable {
      startUplink(src, dst, std::move(f));
    });
  }

 private:
  struct Port {
    sim::Time uplink_busy_until = 0;
    sim::Time downlink_busy_until = 0;
    sim::Time rx_busy_until = 0;
    int rx_queue_depth = 0;
    DeliverFn deliver;
  };

  // One trunk link direction's FIFO state and counters. Up-trunks of leaf L
  // are written only from lane rep(L) (the leaf's first node), down-trunks
  // of leaf L likewise.
  struct Trunk {
    sim::Time busy_until = 0;
    uint64_t frames = 0;
    uint64_t wire_bytes = 0;
    sim::Time busy_ns = 0;
  };
  struct TrunkShard {
    std::vector<Trunk> up;    // indexed by spine: this leaf -> spine
    std::vector<Trunk> down;  // indexed by spine: spine -> this leaf
  };

  Port& port(NodeId id) { return ports_[id]; }

  int leafOf(NodeId n) const {
    return static_cast<int>(n) / config_.topology.leaf_size;
  }
  NodeId repOf(int leaf) const {
    return static_cast<NodeId>(leaf * config_.topology.leaf_size);
  }
  // Deterministic spine pick: a fixed multiplicative hash of the (src, dst)
  // pair, so a flow always takes the same path (no adaptive routing).
  int spineFor(NodeId src, NodeId dst) const {
    const uint32_t h = src * 2654435761u ^ dst * 40503u;
    return static_cast<int>(h % static_cast<uint32_t>(nspines_));
  }
  bool crossLeaf(NodeId src, NodeId dst) const {
    return nleaves_ > 1 && leafOf(src) != leafOf(dst);
  }

  void startUplink(NodeId src, NodeId dst, Frame frame) {
    const sim::Time now = engine_.now();
    Port& p = port(src);
    const sim::Time tx = config_.txTime(frame->size());
    const sim::Time depart = std::max(now + config_.sendOverhead(frame->size()),
                                      p.uplink_busy_until);
    p.uplink_busy_until = depart + tx;
    statsFor(src).frames_sent++;
    statsFor(src).wire_bytes += config_.wireBytes(frame->size());
    if (auto* m = metrics_) {
      m->add(src, obs::Metric::kInflightBytes,
             static_cast<int64_t>(frame->size()), now);
      m->add(src, obs::Metric::kUplinkBusyNs, tx, now);
    }
    // Cross-lane hop: everything from the switch on happens in the
    // receiver's lane (or, for cross-leaf frames, in the trunk-owning rep
    // lanes first).
    const sim::Time at_switch = depart + tx + config_.wire_latency;
    if (crossLeaf(src, dst)) {
      engine_.atLane(repOf(leafOf(src)), at_switch,
                     [this, src, dst, f = std::move(frame)]() mutable {
                       trunkUp(src, dst, std::move(f));
                     });
    } else {
      engine_.atLane(dst, at_switch,
                     [this, src, dst, f = std::move(frame)]() mutable {
                       arriveSwitch(src, dst, std::move(f));
                     });
    }
  }

  // Claims the next slot on a trunk link's FIFO and returns the time the
  // frame clears its serialization.
  sim::Time trunkHop(Trunk& t, size_t payload) {
    const sim::Time tx = config_.trunkTxTime(payload);
    const sim::Time start = std::max(engine_.now(), t.busy_until);
    t.busy_until = start + tx;
    t.frames++;
    t.wire_bytes += config_.wireBytes(payload);
    t.busy_ns += tx;
    return start + tx;
  }

  // Runs in rep(leaf(src))'s lane: serialize onto the chosen up-trunk, then
  // hop to the destination leaf's rep lane.
  void trunkUp(NodeId src, NodeId dst, Frame frame) {
    Trunk& t = trunks_[static_cast<size_t>(leafOf(src))]
                   .up[static_cast<size_t>(spineFor(src, dst))];
    const sim::Time clear = trunkHop(t, frame->size());
    engine_.atLane(repOf(leafOf(dst)), clear + config_.topology.trunk_latency,
                   [this, src, dst, f = std::move(frame)]() mutable {
                     trunkDown(src, dst, std::move(f));
                   });
  }

  // Runs in rep(leaf(dst))'s lane: serialize onto the spine's down-trunk,
  // then rejoin the star path at the destination's switch port.
  void trunkDown(NodeId src, NodeId dst, Frame frame) {
    Trunk& t = trunks_[static_cast<size_t>(leafOf(dst))]
                   .down[static_cast<size_t>(spineFor(src, dst))];
    const sim::Time clear = trunkHop(t, frame->size());
    engine_.atLane(dst, clear + config_.topology.trunk_latency,
                   [this, src, dst, f = std::move(frame)]() mutable {
                     arriveSwitch(src, dst, std::move(f));
                   });
  }

  // Shared bookkeeping for both drop sites: per-class counters plus the
  // kDrop trace instant, charged to the would-be receiver. The correlation
  // id carries the frame kind, so consumers can attribute the drop to the
  // same flow as the original send.
  void recordDrop(NodeId src, NodeId dst, const Frame& frame) {
    if (frame->kind == FrameKind::kAck) {
      statsFor(dst).ack_drops++;
    } else {
      MsgClass c = classify_ ? classify_(frame->type) : MsgClass::kOther;
      statsFor(dst).of(c).drops++;
    }
    if (trace_)
      trace_->instant(static_cast<uint32_t>(dst), obs::Cat::kDrop,
                      engine_.now(), src, frame->size(),
                      obs::corrId(static_cast<uint8_t>(frame->kind),
                                  frameSeqOwner(*frame, src, dst),
                                  frame->seq));
    if (auto* m = metrics_) {
      m->add(src, obs::Metric::kInflightBytes,
             -static_cast<int64_t>(frame->size()), engine_.now());
      m->add(dst, obs::Metric::kFrameDrops, 1, engine_.now());
    }
  }

  // Fault instants share the frame's correlation id, so injected drops,
  // duplicates, and delays join the same flow as the frame in Perfetto and
  // in the run graph.
  void traceFault(FaultKind k, NodeId src, NodeId dst, const Frame& frame) {
    if (trace_)
      trace_->instant(static_cast<uint32_t>(dst), obs::Cat::kFaultInject,
                      engine_.now(), static_cast<uint64_t>(k), frame->size(),
                      obs::corrId(static_cast<uint8_t>(frame->kind),
                                  frameSeqOwner(*frame, src, dst),
                                  frame->seq));
  }

  void arriveSwitch(NodeId src, NodeId dst, Frame frame) {
    FaultAction fault;
    if (faults_) {
      fault = faults_->onFrame(src, dst, engine_.now());
      if (fault.drop) {
        statsFor(dst).frames_dropped_fault++;
        traceFault(fault.cause, src, dst, frame);
        recordDrop(src, dst, frame);
        return;
      }
    }
    if (config_.random_loss > 0 && rngs_[dst].chance(config_.random_loss)) {
      statsFor(dst).frames_dropped_random++;
      recordDrop(src, dst, frame);
      return;
    }
    Port& p = port(dst);
    sim::Time tx = config_.txTime(frame->size());
    if (fault.degraded) {
      statsFor(dst).frames_degraded++;
      tx = static_cast<sim::Time>(
          std::llround(static_cast<double>(tx) * fault.tx_factor));
      traceFault(FaultKind::kDegrade, src, dst, frame);
    }
    if (fault.reordered) {
      statsFor(dst).frames_reordered++;
      traceFault(FaultKind::kReorder, src, dst, frame);
    }
    // A held-back frame starts its downlink no earlier than now + delay;
    // frames arriving in the meantime claim the link first and overtake it.
    const sim::Time start =
        std::max(engine_.now() + fault.extra_delay, p.downlink_busy_until);
    p.downlink_busy_until = start + tx;
    if (auto* m = metrics_)
      m->add(dst, obs::Metric::kDownlinkBusyNs, tx, engine_.now());
    if (fault.duplicate) {
      // The switch emits a second copy that serializes right behind the
      // original and balances the books like a fresh transmission:
      // +in-flight here, -in-flight at its delivery or drop.
      statsFor(dst).frames_duplicated++;
      traceFault(FaultKind::kDup, src, dst, frame);
      const sim::Time start2 = p.downlink_busy_until;
      p.downlink_busy_until = start2 + tx;
      if (auto* m = metrics_) {
        m->add(src, obs::Metric::kInflightBytes,
               static_cast<int64_t>(frame->size()), engine_.now());
        m->add(dst, obs::Metric::kDownlinkBusyNs, tx, engine_.now());
      }
      // The copy shares the original's buffer, reply slot included.
      engine_.at(start2 + tx, [this, src, dst, f = frame]() mutable {
        arriveNic(src, dst, std::move(f));
      });
    }
    engine_.at(start + tx, [this, src, dst, f = std::move(frame)]() mutable {
      arriveNic(src, dst, std::move(f));
    });
  }

  void arriveNic(NodeId src, NodeId dst, Frame frame) {
    Port& p = port(dst);
    if (p.rx_queue_depth >= config_.rx_queue_frames) {
      statsFor(dst).frames_dropped_overflow++;
      recordDrop(src, dst, frame);
      return;
    }
    p.rx_queue_depth++;
    if (auto* m = metrics_) {
      m->add(dst, obs::Metric::kRxQueueFrames, 1, engine_.now());
      m->add(dst, obs::Metric::kRxQueueBytes,
             static_cast<int64_t>(frame->size()), engine_.now());
    }
    const sim::Time start = std::max(engine_.now(), p.rx_busy_until);
    const sim::Time done = start + config_.recvOverhead(frame->size());
    p.rx_busy_until = done;
    engine_.at(done, [this, src, dst, f = std::move(frame)]() mutable {
      Port& q = port(dst);
      q.rx_queue_depth--;
      statsFor(dst).frames_delivered++;
      if (auto* m = metrics_) {
        m->add(dst, obs::Metric::kRxQueueFrames, -1, engine_.now());
        m->add(dst, obs::Metric::kRxQueueBytes,
               -static_cast<int64_t>(f->size()), engine_.now());
        m->add(src, obs::Metric::kInflightBytes,
               -static_cast<int64_t>(f->size()), engine_.now());
      }
      if (q.deliver) q.deliver(src, std::move(f), engine_.now());
    });
  }

  sim::Engine& engine_;
  NetConfig config_;
  std::vector<sim::Rng> rngs_;  // per-destination loss streams
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  Classifier classify_ = nullptr;
  FaultInjector* faults_ = nullptr;
  std::vector<Port> ports_;
  std::vector<NetStats> shards_;  // per-node counters (see statsFor)
  mutable NetStats total_;        // stats() fold cache
  int nleaves_ = 0;               // 0 on star fabrics
  int nspines_ = 0;
  std::vector<TrunkShard> trunks_;  // indexed by leaf; see Trunk
};

}  // namespace vodsm::net
