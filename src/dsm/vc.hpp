// VC_d and VC_sd: View-based Consistency runtimes.
//
// Each view has a manager (view id mod nprocs — so a "per-processor" view is
// self-managed and its acquisitions stay off the wire). Acquisitions are
// exclusive for writes and shared for Rviews, granted FIFO.
//
// VC_d (homeless diffs): the grant carries write notices for the view's
// pages modified since the requester's last acquisition; faults fetch the
// diffs from the writers, exactly like LRC's fault path.
//
// VC_sd (integrated single diff, home-based): releases ship the diffs to
// the view's manager, which keeps a per-page version log; grants piggyback
// one *integrated* diff per stale page, applied eagerly — so VC_sd issues
// zero diff requests and takes no remote faults. The manager also garbage-
// collects its log: once every node that ever acquired the view is past a
// version, the per-version diffs up to it are folded into one base diff
// per page (the integration prefix grantNow would compute anyway, memoized)
// and dropped. This bounds home storage by the view's footprint instead of
// its write history — the paper's memory argument for single diffs — and
// is invisible to the simulation: grants are bit-identical and GC charges
// no simulated time.
//
// Barriers are pure synchronization in both: no consistency payload, no
// invalidation — the paper's key structural difference from LRC.
//
// ProtoOptions scale both structures past the paper's 32 nodes: the barrier
// can run as a radix-k combining tree or a dissemination (butterfly)
// barrier, and view homes can be hash-sharded (ViewHomes::kHashed) or
// additionally migrate to a view's dominant writer (ViewHomes::kMigrate) —
// the full manager state ships old home -> new home while the view is idle,
// and requesters learn the new home from the next grant's sender. See
// DESIGN.md §3.12.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "dsm/msgs.hpp"
#include "dsm/runtime.hpp"
#include "sim/waiter.hpp"

namespace vodsm::dsm {

class VcRuntime : public Runtime {
 public:
  // `integrated` selects VC_sd; false selects VC_d.
  VcRuntime(NodeCtx& ctx, bool integrated);

  sim::Task<void> acquireView(ViewId v, bool readonly) override;
  sim::Task<void> releaseView(ViewId v, bool readonly) override;
  sim::Task<void> barrier(BarrierId b) override;

  // Traditional lock primitives are not part of the VC model.
  sim::Task<void> acquireLock(LockId) override;
  sim::Task<void> releaseLock(LockId) override;

 protected:
  sim::Task<void> readFault(mem::PageId p) override;
  void onPageDirtied(mem::PageId p) override;
  void checkReadAllowed(size_t offset, size_t len) override;
  void checkWriteAllowed(size_t offset, size_t len) override;

 private:
  struct ViewMgrState {
    uint32_t cur_version = 0;
    bool write_held = false;
    int readers = 0;
    std::deque<ViewAcqMsg> queue;
    // history[v-1] = (writer, pages) of version v (VC_d notice source).
    std::vector<std::pair<NodeId, std::vector<mem::PageId>>> history;
    // VC_sd home storage: page -> (version, diff), ascending. Only the tail
    // with version > gc_version lives here; older versions are folded into
    // `base`.
    std::unordered_map<mem::PageId,
                       std::vector<std::pair<uint32_t, mem::Diff>>>
        diff_log;
    // VC_sd GC state: per-page left-fold of all diffs with version in
    // [1, gc_version]. A requester claims last_seen == 0 (first acquisition,
    // needs base + tail exactly) or last_seen >= gc_version (tail suffices);
    // both reproduce the pre-GC integration bit for bit.
    std::unordered_map<mem::PageId, mem::Diff> base;
    uint32_t gc_version = 0;
    // Last version granted to each node that ever acquired this view; the
    // minimum bounds how far gc_version may advance.
    std::unordered_map<NodeId, uint32_t> seen;
  };
  struct BarrierMgrState {
    int arrived = 0;
    sim::Time busy_until = 0;
  };
  // Home-side migration tracking (ViewHomes::kMigrate).
  struct MigrateInfo {
    NodeId last_writer = static_cast<NodeId>(-1);
    int streak = 0;  // consecutive releases by last_writer
    // Set while the view lives elsewhere: acquires that still reach us
    // bounce there.
    std::optional<NodeId> moved_to;
  };

  // The policy home (does not follow migrations).
  NodeId viewManager(ViewId v) const {
    return ctx_.views.managerOf(v, ctx_.nprocs, ctx_.proto.view_homes);
  }
  // Where this node sends view traffic: the last home it learned from a
  // grant under kMigrate, the policy home otherwise.
  NodeId homeFor(ViewId v) const {
    return ctx_.proto.view_homes == ViewHomes::kMigrate ? home_cache_[v]
                                                        : viewManager(v);
  }

  void onMessage(net::Delivery&& d, const net::ReplyToken& token);
  void onViewAcq(const ViewAcqMsg& m, sim::Time arrive);
  void onViewRelease(const ViewReleaseMsg& m, sim::Time arrive);
  void onViewReadRelease(const ViewReadReleaseMsg& m, sim::Time arrive);
  void onViewMigrate(const ViewMigrateMsg& m, sim::Time arrive);
  void onVcDiffReq(const DiffReqMsg& m, const net::ReplyToken& token,
                   sim::Time arrive);
  void onBarrArrive(const BarrArriveMsg& m, sim::Time arrive);
  void treeBarrierStep(BarrierId b, BarrierMgrState& st);
  sim::Task<void> barrierButterfly(BarrierId b);
  sim::Task<BarrRoundMsg> awaitRound(BarrierId b, uint32_t round);
  void grantNow(const ViewAcqMsg& m, ViewMgrState& st, sim::Time when);
  void sdGc(ViewMgrState& st, sim::Time when);
  void pumpQueue(ViewId view, ViewMgrState& st, sim::Time when);
  void maybeMigrate(ViewId view, NodeId writer, sim::Time when);

  bool holdsForRead(ViewId v) const {
    auto it = read_depth_.find(v);
    return (it != read_depth_.end() && it->second > 0) || write_held_ == v;
  }

  const bool sd_;

  // Node-side state.
  std::optional<ViewId> write_held_;
  uint32_t write_version_ = 0;
  std::unordered_map<ViewId, int> read_depth_;
  std::vector<uint32_t> last_seen_;  // per view: last incorporated version
  std::set<mem::PageId> dirty_;
  // VC_d: pending notices per page and own diff log for serving fetches.
  std::unordered_map<mem::PageId, std::vector<VcNotice>> pending_;
  DiffLog diff_log_;

  std::unordered_map<ViewId, std::unique_ptr<sim::Waiter<ViewGrantMsg>>>
      grant_waiters_;
  std::unordered_map<BarrierId, std::unique_ptr<sim::Waiter<BarrReleaseMsg>>>
      barrier_waiters_;
  // Butterfly rounds (see lrc.hpp): one peer per (barrier, round); early
  // arrivals park until this node enters the round.
  std::map<std::pair<BarrierId, uint32_t>,
           std::unique_ptr<sim::Waiter<BarrRoundMsg>>>
      round_waiters_;
  std::map<std::pair<BarrierId, uint32_t>, std::pair<BarrRoundMsg, sim::Time>>
      round_early_;

  // kMigrate state (sized/filled only under that policy).
  std::vector<NodeId> home_cache_;  // per view: last known home
  std::vector<uint8_t> is_home_;    // per view: this node currently hosts it
  std::unordered_map<ViewId, MigrateInfo> migrate_;
  // Acquires that reached a new home before its migration state did
  // (reliable-transport retransmission can reorder old-home traffic).
  std::unordered_map<ViewId, std::vector<std::pair<ViewAcqMsg, sim::Time>>>
      pending_home_;

  // Manager-side state.
  std::unordered_map<ViewId, ViewMgrState> mgr_;
  std::unordered_map<BarrierId, BarrierMgrState> barrier_mgr_;
};

}  // namespace vodsm::dsm
