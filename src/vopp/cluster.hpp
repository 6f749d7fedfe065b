// Public VOPP API: the paper's View-Oriented Parallel Programming model.
//
// A Cluster owns a simulated machine (engine, network, one DSM runtime per
// node). The user defines views, then runs one program coroutine per node:
//
//   vopp::Cluster cluster({.nprocs = 16, .protocol = dsm::Protocol::kVcSd});
//   auto data = cluster.defineView(bytes);
//   cluster.run([&](vopp::Node& node) -> sim::Task<void> {
//     co_await node.acquireView(data);
//     ... touch + access shared memory ...
//     co_await node.releaseView(data);
//     co_await node.barrier();
//   });
//
// The VOPP primitives map 1:1 to the paper's: acquire_view / release_view
// (exclusive), acquire_Rview / release_Rview (shared, nestable), barriers
// (pure synchronization under VC), and merge_views. Traditional DSM
// programs use acquireLock/releaseLock + barriers (LRC_d only).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dsm/lrc.hpp"
#include "dsm/runtime.hpp"
#include "dsm/vc.hpp"
#include "net/network.hpp"
#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/diagnose.hpp"
#include "obs/page_heat.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace vodsm::vopp {

struct ClusterOptions {
  int nprocs = 4;
  dsm::Protocol protocol = dsm::Protocol::kVcSd;
  net::NetConfig net;
  dsm::DsmCosts costs;
  // Barrier algorithm / view-home sharding selection; the defaults keep
  // every run byte-identical to the pre-scaling (centralized) protocol.
  dsm::ProtoOptions proto;
  uint64_t seed = 42;
  // Caller-owned event recorder, threaded through every layer of the run
  // (programs, protocol engines, transport, network). Null disables tracing;
  // recording never charges simulated time, so traced and untraced runs
  // produce identical results.
  obs::TraceRecorder* trace = nullptr;
  // Caller-owned counter/gauge registry, threaded the same way (protocol
  // engines, network, VOPP primitives). Null disables metrics; like tracing,
  // metering never perturbs simulated results.
  obs::MetricsRegistry* metrics = nullptr;
  // Caller-owned fault plan. Null (or an empty plan) installs no injector,
  // so fault-free runs stay byte-identical; otherwise the cluster binds the
  // plan to this run's seed and wires it into the network and every node
  // clock (straggler rules).
  const net::FaultPlan* faults = nullptr;
};

class Cluster;

// Per-node program environment: every method charges simulated time and/or
// suspends on simulated communication.
class Node {
 public:
  Node(Cluster& cluster, dsm::NodeCtx& ctx, dsm::Runtime& rt)
      : cluster_(cluster), ctx_(ctx), rt_(rt) {}

  int id() const { return static_cast<int>(ctx_.id); }
  int nprocs() const { return ctx_.nprocs; }
  sim::Time now() const { return ctx_.clock.now(); }

  // Account local CPU work (application compute).
  void charge(sim::Time t) { ctx_.clock.charge(t); }
  void chargeOps(uint64_t ops, sim::Time per_op) {
    ctx_.clock.charge(static_cast<sim::Time>(ops) * per_op);
  }

  // --- VOPP primitives ---
  sim::Task<void> acquireView(dsm::ViewId v) {
    beginSpan(obs::Cat::kAcquireView, v, 0);
    co_await rt_.acquireView(v, /*readonly=*/false);
    metricAdd(obs::Metric::kHeldViews, 1);
    endSpan(obs::Cat::kAcquireView, v, 0);
  }
  sim::Task<void> releaseView(dsm::ViewId v) {
    beginSpan(obs::Cat::kReleaseView, v, 0);
    co_await rt_.releaseView(v, /*readonly=*/false);
    metricAdd(obs::Metric::kHeldViews, -1);
    endSpan(obs::Cat::kReleaseView, v, 0);
  }
  sim::Task<void> acquireRview(dsm::ViewId v) {
    beginSpan(obs::Cat::kAcquireView, v, 1);
    co_await rt_.acquireView(v, /*readonly=*/true);
    metricAdd(obs::Metric::kHeldViews, 1);
    endSpan(obs::Cat::kAcquireView, v, 1);
  }
  sim::Task<void> releaseRview(dsm::ViewId v) {
    beginSpan(obs::Cat::kReleaseView, v, 1);
    co_await rt_.releaseView(v, /*readonly=*/true);
    metricAdd(obs::Metric::kHeldViews, -1);
    endSpan(obs::Cat::kReleaseView, v, 1);
  }
  sim::Task<void> barrier(dsm::BarrierId b = 0) {
    beginSpan(obs::Cat::kBarrier, b);
    metricAdd(obs::Metric::kBlockedAtBarrier, 1);
    co_await rt_.barrier(b);
    metricAdd(obs::Metric::kBlockedAtBarrier, -1);
    endSpan(obs::Cat::kBarrier, b);
  }

  // Bring every view up to date on this node (paper's merge_views:
  // "expensive but convenient").
  sim::Task<void> mergeViews();

  // --- traditional DSM primitives (LRC_d) ---
  sim::Task<void> acquireLock(dsm::LockId l) {
    beginSpan(obs::Cat::kAcquireLock, l);
    co_await rt_.acquireLock(l);
    metricAdd(obs::Metric::kHeldLocks, 1);
    endSpan(obs::Cat::kAcquireLock, l);
  }
  sim::Task<void> releaseLock(dsm::LockId l) {
    co_await rt_.releaseLock(l);
    metricAdd(obs::Metric::kHeldLocks, -1);
  }

  // --- shared memory access ---
  // Declare an access range; takes the simulated page faults (the analogue
  // of the SIGSEGV handler running page by page).
  sim::Task<void> touchRead(size_t offset, size_t len) {
    co_await rt_.touchRead(offset, len);
  }
  sim::Task<void> touchWrite(size_t offset, size_t len) {
    co_await rt_.touchWrite(offset, len);
  }

  // Raw access to this node's copy (valid only after the matching touch).
  MutByteSpan mem(size_t offset, size_t len) {
    return ctx_.store.range(offset, len);
  }
  ByteSpan memView(size_t offset, size_t len) const {
    return ctx_.store.rangeView(offset, len);
  }

  // Copy shared -> local with faulting and memcpy cost.
  sim::Task<void> copyOut(size_t offset, MutByteSpan dst) {
    co_await touchRead(offset, dst.size());
    ByteSpan src = memView(offset, dst.size());
    std::copy(src.begin(), src.end(), dst.begin());
    chargeCopy(dst.size());
  }
  // Copy local -> shared with faulting and memcpy cost.
  sim::Task<void> copyIn(size_t offset, ByteSpan src) {
    co_await touchWrite(offset, src.size());
    MutByteSpan dst = mem(offset, src.size());
    std::copy(src.begin(), src.end(), dst.begin());
    chargeCopy(src.size());
  }

  dsm::NodeCtx& ctx() { return ctx_; }
  Cluster& cluster() { return cluster_; }

 private:
  void chargeCopy(size_t bytes) {
    ctx_.clock.charge(ctx_.costs.copy_per_kb *
                      static_cast<sim::Time>(bytes / 1024 + 1));
  }

  void beginSpan(obs::Cat c, uint64_t a0, uint64_t a1 = 0) {
    if (auto* t = ctx_.trace) t->begin(ctx_.id, c, ctx_.clock.now(), a0, a1);
  }
  void endSpan(obs::Cat c, uint64_t a0, uint64_t a1 = 0) {
    if (auto* t = ctx_.trace) t->end(ctx_.id, c, ctx_.clock.now(), a0, a1);
  }
  void metricAdd(obs::Metric m, int64_t delta) {
    if (auto* r = ctx_.metrics) r->add(ctx_.id, m, delta, ctx_.clock.now());
  }

  Cluster& cluster_;
  dsm::NodeCtx& ctx_;
  dsm::Runtime& rt_;
};

// Typed handle to a shared-memory range on one node.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(Node& node, size_t byte_offset, size_t count)
      : node_(&node), offset_(byte_offset), count_(count) {}

  size_t size() const { return count_; }
  size_t byteOffset() const { return offset_; }

  sim::Task<void> touchRead(size_t first, size_t n) {
    VODSM_DCHECK(first + n <= count_);
    co_await node_->touchRead(offset_ + first * sizeof(T), n * sizeof(T));
  }
  sim::Task<void> touchWrite(size_t first, size_t n) {
    VODSM_DCHECK(first + n <= count_);
    co_await node_->touchWrite(offset_ + first * sizeof(T), n * sizeof(T));
  }

  // Raw element access into this node's local copy; only valid after the
  // covering touch (debug builds check the page protection).
  T* data() {
    return reinterpret_cast<T*>(
        node_->mem(offset_, count_ * sizeof(T)).data());
  }
  const T* data() const {
    return reinterpret_cast<const T*>(
        node_->memView(offset_, count_ * sizeof(T)).data());
  }
  T& operator[](size_t i) {
    VODSM_DCHECK(i < count_);
    return data()[i];
  }
  const T& operator[](size_t i) const {
    VODSM_DCHECK(i < count_);
    return data()[i];
  }

 private:
  Node* node_ = nullptr;
  size_t offset_ = 0;
  size_t count_ = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts) : opts_(std::move(opts)) {
    VODSM_CHECK(opts_.nprocs > 0);
  }

  // --- layout (before run) ---
  // Define a view. `home` optionally pins the view's manager node: pin it
  // to the view's main consumer so VC_sd's release-time diff pushes land
  // where they will be read (paper Section 3.6 spirit).
  dsm::ViewId defineView(size_t bytes,
                         std::optional<dsm::NodeId> home = std::nullopt) {
    VODSM_CHECK_MSG(!started_, "defineView after run started");
    return views_.defineView(bytes, home);
  }
  size_t allocShared(size_t bytes, size_t align = 8) {
    VODSM_CHECK_MSG(!started_, "allocShared after run started");
    return views_.allocRaw(bytes, align);
  }
  const dsm::ViewMap& views() const { return views_; }
  size_t viewOffset(dsm::ViewId v) const { return views_.view(v).offset; }

  // --- execution ---
  using Program = std::function<sim::Task<void>(Node&)>;
  void run(const Program& program);

  // --- results (after run) ---
  int nprocs() const { return opts_.nprocs; }
  dsm::Protocol protocol() const { return opts_.protocol; }
  double seconds() const { return sim::toSeconds(finish_time_); }
  sim::Time finishTime() const { return finish_time_; }
  dsm::DsmStats dsmStats() const;
  // Folds the recorded trace into per-node time buckets. Empty (enabled() ==
  // false) when the run was not traced.
  obs::Breakdown breakdown() const {
    if (!opts_.trace) return {};
    return obs::foldBreakdown(*opts_.trace, opts_.nprocs, finish_time_);
  }
  // Walks the critical path of the recorded trace. Empty when untraced.
  obs::CriticalPath criticalPath() const {
    if (!opts_.trace) return {};
    return obs::computeCriticalPath(*opts_.trace, opts_.nprocs, finish_time_);
  }
  // Folds the recorded trace into per-page contention rows. Empty when
  // untraced.
  obs::PageHeat pageHeat() const {
    if (!opts_.trace) return {};
    return obs::foldPageHeat(*opts_.trace);
  }
  const net::NetStats& netStats() const {
    VODSM_CHECK(network_ != nullptr);
    return network_->stats();
  }
  // One node's transport shard (deliveries count against the receiver, so
  // shard 0 exposes e.g. the barrier manager's downlink traffic).
  const net::NetStats& netStatsFor(int node) const {
    VODSM_CHECK(network_ != nullptr);
    return network_->statsFor(static_cast<net::NodeId>(node));
  }
  // Per-trunk utilization of a multi-switch fabric (empty on the star).
  std::vector<net::Network::TrunkUse> trunkStats() const {
    VODSM_CHECK(network_ != nullptr);
    return network_->trunkStats();
  }
  // Aggregated counter/gauge view of the run. Empty (enabled() == false)
  // when the run was not metered.
  obs::MetricsSummary metricsSummary() const {
    if (!opts_.metrics) return {};
    return opts_.metrics->summary();
  }
  // Runs the diagnosis pass catalog over the recorded trace (and metrics
  // summary when metered). Empty when untraced. Defined in cluster.cpp,
  // where the dsm message classifier and the run's NetConfig are in scope —
  // obs itself stays below those layers.
  obs::Diagnosis diagnosis() const;
  // Builds a persisted run profile from the recorded trace, metrics summary
  // and transport counters. Empty when untraced. Defined in cluster.cpp,
  // where net::NetStats is in scope — obs itself stays below net.
  obs::RunProfile runProfile() const;
  // Inspect a node's final memory (for result validation).
  ByteSpan memoryOf(int node, size_t offset, size_t len) const {
    return ctxs_.at(static_cast<size_t>(node))->store.rangeView(offset, len);
  }

 private:
  std::unique_ptr<dsm::Runtime> makeRuntime(dsm::NodeCtx& ctx) const;

  ClusterOptions opts_;
  dsm::ViewMap views_;
  bool started_ = false;

  sim::Engine engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::FaultInjector> faults_;
  std::vector<std::unique_ptr<dsm::NodeCtx>> ctxs_;
  std::vector<std::unique_ptr<dsm::Runtime>> runtimes_;
  std::vector<std::unique_ptr<Node>> nodes_;
  sim::Time finish_time_ = 0;
  // Last member: node-program frames abandoned by a deadlocked run must be
  // reclaimed before the engine/network/runtimes they reference go away.
  sim::TaskScope scope_;
};

}  // namespace vodsm::vopp
