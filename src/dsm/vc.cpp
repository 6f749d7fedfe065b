#include "dsm/vc.hpp"

#include <algorithm>
#include <map>

#include "net/parallel.hpp"

namespace vodsm::dsm {

VcRuntime::VcRuntime(NodeCtx& ctx, bool integrated)
    : Runtime(ctx), sd_(integrated), last_seen_(ctx.views.viewCount(), 0) {
  if (ctx_.proto.view_homes == ViewHomes::kMigrate) {
    const size_t nv = ctx_.views.viewCount();
    home_cache_.resize(nv);
    is_home_.resize(nv);
    for (ViewId v = 0; v < nv; ++v) {
      home_cache_[v] = viewManager(v);
      is_home_[v] = home_cache_[v] == ctx_.id ? 1 : 0;
    }
  }
  ctx_.endpoint.setHandler(
      [this](net::Delivery&& d, const net::ReplyToken& token) {
        onMessage(std::move(d), token);
      });
}

void VcRuntime::onMessage(net::Delivery&& d, const net::ReplyToken& token) {
  switch (d.type) {
    case kViewAcq:
      onViewAcq(ViewAcqMsg::decode(d.payload), d.arrive);
      return;
    case kViewGrant: {
      ViewGrantMsg g = ViewGrantMsg::decode(d.payload);
      // The sender is the view's current home; remember it so the release
      // (and the next acquire) go straight there after a migration.
      if (ctx_.proto.view_homes == ViewHomes::kMigrate)
        home_cache_[g.view] = d.src;
      auto it = grant_waiters_.find(g.view);
      VODSM_CHECK_MSG(it != grant_waiters_.end(),
                      "unexpected view grant for view " << g.view);
      ctx_.clock.atLeast(d.arrive);
      it->second->fulfill(std::move(g));
      return;
    }
    case kViewRelease:
      onViewRelease(ViewReleaseMsg::decode(d.payload), d.arrive);
      return;
    case kViewReadRelease:
      onViewReadRelease(ViewReadReleaseMsg::decode(d.payload), d.arrive);
      return;
    case kViewMigrate:
      onViewMigrate(ViewMigrateMsg::decode(d.payload), d.arrive);
      return;
    case kVcDiffReq:
      onVcDiffReq(DiffReqMsg::decode(d.payload), token, d.arrive);
      return;
    case kBarrArrive:
      onBarrArrive(BarrArriveMsg::decode(d.payload), d.arrive);
      return;
    case kBarrRelease: {
      BarrReleaseMsg rel = BarrReleaseMsg::decode(d.payload);
      if (ctx_.proto.barrier == BarrierAlg::kTree) {
        const sim::Time when = d.arrive + ctx_.costs.handler_service;
        for (int k = 0; k < treeChildCount(); ++k)
          ctx_.endpoint.post(treeChild(k), kBarrRelease,
                             d.frame->sharedBody(), when);
      }
      auto it = barrier_waiters_.find(rel.barrier);
      VODSM_CHECK_MSG(it != barrier_waiters_.end(),
                      "unexpected barrier release " << rel.barrier);
      ctx_.clock.atLeast(d.arrive);
      it->second->fulfill(std::move(rel));
      return;
    }
    case kBarrRound: {
      BarrRoundMsg rm = BarrRoundMsg::decode(d.payload);
      const auto key = std::make_pair(rm.barrier, rm.round);
      auto it = round_waiters_.find(key);
      if (it != round_waiters_.end()) {
        ctx_.clock.atLeast(d.arrive);
        it->second->fulfill(std::move(rm));
      } else {
        const bool parked =
            round_early_.emplace(key, std::make_pair(std::move(rm), d.arrive))
                .second;
        VODSM_CHECK_MSG(parked, "duplicate early barrier round message");
      }
      return;
    }
    default:
      VODSM_CHECK_MSG(false, "VC: unknown message type " << d.type);
  }
}

// ---------- acquire / release ----------

sim::Task<void> VcRuntime::acquireView(ViewId v, bool readonly) {
  VODSM_CHECK_MSG(v < ctx_.views.viewCount(), "unknown view " << v);
  if (!readonly) {
    VODSM_CHECK_MSG(!write_held_.has_value(),
                    "acquire_view(" << v << ") nested inside acquire_view("
                                    << *write_held_ << ")");
    VODSM_CHECK_MSG(!holdsForRead(v),
                    "acquire_view(" << v << ") while holding it read-only");
  } else {
    VODSM_CHECK_MSG(write_held_ != v,
                    "acquire_Rview(" << v << ") while write-holding it");
  }
  ctx_.stats.acquires++;
  const sim::Time t0 = ctx_.clock.now();
  if (auto* t = ctx_.trace) t->begin(ctx_.id, obs::Cat::kAcquireWait, t0, v);
  auto waiter = std::make_unique<sim::Waiter<ViewGrantMsg>>();
  auto* waiter_ptr = waiter.get();
  VODSM_CHECK_MSG(!grant_waiters_.count(v),
                  "concurrent acquisitions of view " << v << " on one node");
  grant_waiters_[v] = std::move(waiter);
  ViewAcqMsg req{v, ctx_.id, static_cast<uint8_t>(readonly ? 0 : 1),
                 last_seen_[v]};
  ctx_.endpoint.post(homeFor(v), kViewAcq, req.encode(), ctx_.clock.now());
  ViewGrantMsg g = co_await *waiter_ptr;
  grant_waiters_.erase(v);

  if (sd_) {
    // Integrated diffs arrive with the grant: apply them now; the view's
    // pages are fully valid afterwards (no remote faults ever).
    for (const mem::Diff& d : g.diffs) {
      VODSM_DCHECK(!ctx_.store.hasTwin(d.page()));
      d.apply(ctx_.store.page(d.page()));
      ctx_.clock.charge(ctx_.costs.diffApply(d.wireSize()));
      ctx_.stats.diffs_applied++;
      ctx_.store.setAccess(d.page(), mem::Access::kRead);
      if (auto* t = ctx_.trace)
        t->instant(ctx_.id, obs::Cat::kDiffApply, ctx_.clock.now(), d.page(),
                   d.wireSize());
      if (auto* m = ctx_.metrics)
        m->add(ctx_.id, obs::Metric::kDiffsApplied, 1, ctx_.clock.now());
    }
  } else {
    for (const VcNotice& n : g.notices) {
      ctx_.stats.notices_recorded++;
      ctx_.clock.charge(ctx_.costs.apply_notice);
      if (auto* t = ctx_.trace)
        t->instant(ctx_.id, obs::Cat::kNotice, ctx_.clock.now(), n.page,
                   n.writer);
      if (auto* m = ctx_.metrics)
        m->add(ctx_.id, obs::Metric::kPendingNotices, 1, ctx_.clock.now());
      pending_[n.page].push_back(n);
      ctx_.store.setAccess(n.page, mem::Access::kNone);
    }
  }
  last_seen_[v] = g.cur_version;
  if (readonly) {
    read_depth_[v]++;
  } else {
    write_held_ = v;
    write_version_ = g.write_version;
  }
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kAcquireWait, ctx_.clock.now(), v);
  ctx_.stats.acquire_wait_total += ctx_.clock.now() - t0;
  ctx_.stats.acquire_waits++;
}

sim::Task<void> VcRuntime::releaseView(ViewId v, bool readonly) {
  if (readonly) {
    auto it = read_depth_.find(v);
    VODSM_CHECK_MSG(it != read_depth_.end() && it->second > 0,
                    "release_Rview(" << v << ") not read-held");
    it->second--;
    ViewReadReleaseMsg rel{v, ctx_.id};
    ctx_.endpoint.post(homeFor(v), kViewReadRelease, rel.encode(),
                       ctx_.clock.now());
    co_return;
  }
  VODSM_CHECK_MSG(write_held_ == v, "release_view(" << v << ") not held");
  ViewReleaseMsg rel;
  rel.view = v;
  rel.writer = ctx_.id;
  rel.version = write_version_;
  if (auto* t = ctx_.trace; t && !dirty_.empty())
    t->begin(ctx_.id, obs::Cat::kDiffCreate, ctx_.clock.now());
  uint64_t diff_bytes = 0;
  const size_t dirty_pages = dirty_.size();
  for (mem::PageId p : dirty_) {
    mem::Diff d = ctx_.store.diffAgainstTwin(p);
    ctx_.clock.charge(ctx_.costs.diffCreate(d.wireSize()));
    diff_bytes += d.wireSize();
    ctx_.store.dropTwin(p);
    if (auto* m = ctx_.metrics) {
      m->add(ctx_.id, obs::Metric::kTwinBytes,
             -static_cast<int64_t>(mem::kPageSize), ctx_.clock.now());
      m->add(ctx_.id, obs::Metric::kTwinReclaimBytes,
             static_cast<int64_t>(mem::kPageSize), ctx_.clock.now());
    }
    ctx_.store.setAccess(p, mem::Access::kRead);
    if (d.empty()) continue;
    ctx_.stats.diffs_created++;
    if (auto* m = ctx_.metrics)
      m->add(ctx_.id, obs::Metric::kDiffsCreated, 1, ctx_.clock.now());
    rel.pages.push_back(p);
    if (sd_) {
      // The single diff leaves this node with the release message; its home
      // storage is accounted on the manager in onViewRelease.
      rel.diffs.push_back(std::move(d));
    } else {
      if (auto* m = ctx_.metrics) {
        m->add(ctx_.id, obs::Metric::kDiffStoreBytes,
               static_cast<int64_t>(d.wireSize()), ctx_.clock.now());
        m->add(ctx_.id, obs::Metric::kDiffStoreCount, 1, ctx_.clock.now());
      }
      diff_log_[p].push_back(LoggedDiff::encode(write_version_, d));
    }
  }
  if (auto* t = ctx_.trace; t && dirty_pages > 0)
    t->end(ctx_.id, obs::Cat::kDiffCreate, ctx_.clock.now(), dirty_pages,
           diff_bytes);
  dirty_.clear();
  last_seen_[v] = write_version_;
  write_held_.reset();
  ctx_.endpoint.post(homeFor(v), kViewRelease, rel.encode(), ctx_.clock.now());
  co_return;
}

sim::Task<void> VcRuntime::acquireLock(LockId) {
  VODSM_CHECK_MSG(false, "VC runtimes do not provide lock primitives; "
                         "use views (VOPP) instead");
  co_return;  // unreachable
}

sim::Task<void> VcRuntime::releaseLock(LockId) {
  VODSM_CHECK_MSG(false, "VC runtimes do not provide lock primitives");
  co_return;  // unreachable
}

// ---------- manager side ----------

void VcRuntime::onViewAcq(const ViewAcqMsg& m, sim::Time arrive) {
  if (ctx_.proto.view_homes == ViewHomes::kMigrate && !is_home_[m.view]) {
    auto mit = migrate_.find(m.view);
    if (mit != migrate_.end() && mit->second.moved_to) {
      // We gave this view away; bounce the request to where it went. A
      // chain of moves terminates at the current home (or loops briefly
      // until an in-flight migration back to us lands and clears moved_to).
      ctx_.endpoint.post(*mit->second.moved_to, kViewAcq, m.encode(),
                         arrive + ctx_.costs.handler_service);
    } else {
      // We are the new home but the acquire overtook the migration state
      // (retransmission reorders old-home traffic under loss); park it.
      pending_home_[m.view].emplace_back(m, arrive);
    }
    return;
  }
  ViewMgrState& st = mgr_[m.view];
  const sim::Time when = arrive + ctx_.costs.handler_service;
  const bool want_write = m.write != 0;
  // Strict FIFO: anyone queues behind an incompatible holder or a nonempty
  // queue (prevents writer starvation).
  const bool must_wait =
      !st.queue.empty() || st.write_held || (want_write && st.readers > 0);
  if (must_wait)
    st.queue.push_back(m);
  else
    grantNow(m, st, when);
}

void VcRuntime::grantNow(const ViewAcqMsg& m, ViewMgrState& st,
                         sim::Time when) {
  ViewGrantMsg g;
  g.view = m.view;
  g.cur_version = st.cur_version;
  if (m.write) {
    st.write_held = true;
    g.write_version = st.cur_version + 1;
  } else {
    st.readers++;
  }
  if (sd_) {
    // One integrated diff per page modified in (last_seen, cur].
    std::set<mem::PageId> stale;
    for (uint32_t ver = m.last_seen + 1; ver <= st.cur_version; ++ver)
      for (mem::PageId p : st.history[ver - 1].second) stale.insert(p);
    VODSM_CHECK_MSG(m.last_seen == 0 || m.last_seen >= st.gc_version,
                    "view " << m.view << " GC ran past node " << m.requester
                            << "'s last seen version");
    size_t bytes = 0;
    for (mem::PageId p : stale) {
      const auto& log = st.diff_log[p];
      std::optional<mem::Diff> acc;
      // A first-time acquirer starts from the GC'd integration prefix; it
      // is the same left fold over versions [1, gc_version] grantNow used
      // to compute from the log, so the shipped diff is bit-identical.
      if (m.last_seen == 0) {
        auto bit = st.base.find(p);
        if (bit != st.base.end()) acc = bit->second;
      }
      for (const auto& [ver, d] : log) {
        if (ver <= m.last_seen) continue;
        acc = acc ? mem::Diff::integrate(*acc, d) : d;
      }
      VODSM_DCHECK(acc.has_value());
      bytes += acc->wireSize();
      g.diffs.push_back(std::move(*acc));
    }
    // Integration work happens on the manager before the grant leaves.
    when += ctx_.costs.diffApply(bytes);
  } else {
    for (uint32_t ver = m.last_seen + 1; ver <= st.cur_version; ++ver) {
      const auto& [writer, pages] = st.history[ver - 1];
      for (mem::PageId p : pages) g.notices.push_back(VcNotice{p, ver, writer});
    }
  }
  if (auto* t = ctx_.trace)
    t->instant(ctx_.id, obs::Cat::kGrant, when, m.view, m.requester);
  ctx_.endpoint.post(m.requester, kViewGrant, g.encode(), when);
  if (sd_) {
    // The grant fixes what the requester will claim as last_seen next time:
    // the granted version for readers, the version it is about to write for
    // writers (releaseView sets last_seen_ = write_version_).
    uint32_t& s = st.seen[m.requester];
    s = std::max(s, m.write ? g.write_version : g.cur_version);
    sdGc(st, when);
  }
}

// Home-side diff GC. Every per-version diff at or below the minimum granted
// version can only ever be consumed as part of the full (0, cur] prefix (a
// node past it never asks again, and a first-time acquirer needs the whole
// prefix), so fold it into the per-page base diff and drop it. Pure
// bookkeeping: charges no simulated time, sends nothing.
void VcRuntime::sdGc(ViewMgrState& st, sim::Time when) {
  uint32_t min_seen = st.cur_version;
  for (const auto& [node, ver] : st.seen) min_seen = std::min(min_seen, ver);
  if (st.seen.empty() || min_seen <= st.gc_version) return;
  int64_t delta_bytes = 0;
  int64_t delta_count = 0;
  for (auto& [p, log] : st.diff_log) {
    size_t k = 0;
    auto bit = st.base.find(p);
    while (k < log.size() && log[k].first <= min_seen) {
      mem::Diff& d = log[k].second;
      if (bit == st.base.end()) {
        bit = st.base.emplace(p, std::move(d)).first;
      } else {
        const int64_t before = static_cast<int64_t>(bit->second.wireSize()) +
                               static_cast<int64_t>(d.wireSize());
        bit->second = mem::Diff::integrate(bit->second, d);
        delta_bytes += static_cast<int64_t>(bit->second.wireSize()) - before;
        delta_count -= 1;
      }
      ++k;
    }
    log.erase(log.begin(), log.begin() + static_cast<ptrdiff_t>(k));
  }
  st.gc_version = min_seen;
  if (auto* mr = ctx_.metrics; mr && (delta_bytes != 0 || delta_count != 0)) {
    mr->add(ctx_.id, obs::Metric::kDiffStoreBytes, delta_bytes, when);
    mr->add(ctx_.id, obs::Metric::kDiffStoreCount, delta_count, when);
    mr->add(ctx_.id, obs::Metric::kDiffReclaimBytes, -delta_bytes, when);
  }
}

void VcRuntime::onViewRelease(const ViewReleaseMsg& m, sim::Time arrive) {
  ViewMgrState& st = mgr_[m.view];
  VODSM_CHECK_MSG(st.write_held && m.version == st.cur_version + 1,
                  "out-of-order view release");
  st.cur_version = m.version;
  st.history.emplace_back(m.writer, m.pages);
  sim::Time when = arrive + ctx_.costs.handler_service;
  if (sd_) {
    size_t bytes = 0;
    for (const mem::Diff& d : m.diffs) {
      bytes += d.wireSize();
      if (auto* mr = ctx_.metrics) {
        mr->add(ctx_.id, obs::Metric::kDiffStoreBytes,
                static_cast<int64_t>(d.wireSize()), arrive);
        mr->add(ctx_.id, obs::Metric::kDiffStoreCount, 1, arrive);
      }
      st.diff_log[d.page()].emplace_back(m.version, d);
    }
    when += ctx_.costs.diffApply(bytes);  // home-side bookkeeping
  }
  st.write_held = false;
  pumpQueue(m.view, st, when);
  maybeMigrate(m.view, m.writer, when);
}

// Track consecutive same-writer releases; once the streak reaches the
// threshold and the view is idle, ship the whole manager state to that
// writer so its future acquisitions and releases stay node-local.
void VcRuntime::maybeMigrate(ViewId view, NodeId writer, sim::Time when) {
  if (ctx_.proto.view_homes != ViewHomes::kMigrate) return;
  if (ctx_.views.view(view).home) return;  // pinned homes never move
  MigrateInfo& mi = migrate_[view];
  if (writer == mi.last_writer) {
    mi.streak++;
  } else {
    mi.last_writer = writer;
    mi.streak = 1;
  }
  if (writer == ctx_.id) return;  // already local to the dominant writer
  if (mi.streak < ctx_.proto.migrate_threshold) return;
  ViewMgrState& st = mgr_[view];
  if (st.write_held || st.readers > 0 || !st.queue.empty()) return;

  ViewMigrateMsg msg;
  msg.view = view;
  msg.cur_version = st.cur_version;
  msg.gc_version = st.gc_version;
  msg.history = st.history;
  msg.diff_log.assign(st.diff_log.begin(), st.diff_log.end());
  std::sort(msg.diff_log.begin(), msg.diff_log.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  msg.base.assign(st.base.begin(), st.base.end());
  std::sort(msg.base.begin(), msg.base.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  msg.seen.assign(st.seen.begin(), st.seen.end());
  std::sort(msg.seen.begin(), msg.seen.end());

  // The home storage leaves with the state.
  int64_t bytes = 0;
  int64_t count = 0;
  for (const auto& [page, log] : msg.diff_log) {
    for (const auto& [ver, d] : log) {
      bytes += static_cast<int64_t>(d.wireSize());
      count++;
    }
  }
  for (const auto& [page, d] : msg.base) {
    bytes += static_cast<int64_t>(d.wireSize());
    count++;
  }
  if (auto* mr = ctx_.metrics; mr && count > 0) {
    mr->add(ctx_.id, obs::Metric::kDiffStoreBytes, -bytes, when);
    mr->add(ctx_.id, obs::Metric::kDiffStoreCount, -count, when);
  }

  ctx_.stats.view_migrations++;
  ctx_.endpoint.post(writer, kViewMigrate, msg.encode(), when);
  mi.moved_to = writer;
  mi.streak = 0;
  is_home_[view] = 0;
  mgr_.erase(view);
}

void VcRuntime::onViewMigrate(const ViewMigrateMsg& m, sim::Time arrive) {
  VODSM_CHECK(ctx_.proto.view_homes == ViewHomes::kMigrate);
  VODSM_CHECK_MSG(!mgr_.count(m.view),
                  "view " << m.view << " migrated into live manager state");
  ViewMgrState st;
  st.cur_version = m.cur_version;
  st.gc_version = m.gc_version;
  st.history = m.history;
  int64_t bytes = 0;
  int64_t count = 0;
  for (const auto& [page, log] : m.diff_log) {
    for (const auto& [ver, d] : log) {
      bytes += static_cast<int64_t>(d.wireSize());
      count++;
    }
    st.diff_log[page] = log;
  }
  for (const auto& [page, d] : m.base) {
    bytes += static_cast<int64_t>(d.wireSize());
    count++;
    st.base[page] = d;
  }
  for (const auto& [node, ver] : m.seen) st.seen[node] = ver;
  // Installing the shipped diff store is real work on the new home.
  const sim::Time when = arrive + ctx_.costs.handler_service +
                         ctx_.costs.diffApply(static_cast<size_t>(bytes));
  if (auto* mr = ctx_.metrics; mr && count > 0) {
    mr->add(ctx_.id, obs::Metric::kDiffStoreBytes, bytes, arrive);
    mr->add(ctx_.id, obs::Metric::kDiffStoreCount, count, arrive);
  }
  mgr_.emplace(m.view, std::move(st));
  is_home_[m.view] = 1;
  home_cache_[m.view] = ctx_.id;
  if (auto mit = migrate_.find(m.view); mit != migrate_.end())
    mit->second.moved_to.reset();
  // Serve acquires that overtook the migration.
  auto pit = pending_home_.find(m.view);
  if (pit != pending_home_.end()) {
    auto parked = std::move(pit->second);
    pending_home_.erase(pit);
    for (auto& [req, at] : parked) onViewAcq(req, std::max(at, when));
  }
}

void VcRuntime::onViewReadRelease(const ViewReadReleaseMsg& m,
                                  sim::Time arrive) {
  ViewMgrState& st = mgr_[m.view];
  VODSM_CHECK_MSG(st.readers > 0, "read release without readers");
  st.readers--;
  pumpQueue(m.view, st, arrive + ctx_.costs.handler_service);
}

void VcRuntime::pumpQueue(ViewId view, ViewMgrState& st, sim::Time when) {
  (void)view;
  while (!st.queue.empty()) {
    const ViewAcqMsg& front = st.queue.front();
    if (front.write) {
      if (st.write_held || st.readers > 0) break;
      ViewAcqMsg m = front;
      st.queue.pop_front();
      grantNow(m, st, when);
      break;
    }
    if (st.write_held) break;
    ViewAcqMsg m = front;
    st.queue.pop_front();
    grantNow(m, st, when);
  }
}

// ---------- faults / diff serving (VC_d only paths) ----------

sim::Task<void> VcRuntime::readFault(mem::PageId p) {
  auto it = pending_.find(p);
  if (it == pending_.end() || it->second.empty()) {
    ctx_.store.setAccess(p, ctx_.store.hasTwin(p) ? mem::Access::kWrite
                                                  : mem::Access::kRead);
    co_return;
  }
  VODSM_CHECK_MSG(!sd_, "VC_sd pages are updated at acquire; no remote fault");
  std::map<NodeId, std::vector<uint32_t>> by_writer;
  for (const VcNotice& n : it->second) by_writer[n.writer].push_back(n.version);

  // One request per writer, all in flight at once (TreadMarks style).
  std::vector<net::RpcCall> calls;
  for (auto& [writer, versions] : by_writer) {
    std::sort(versions.begin(), versions.end());
    ctx_.stats.diff_requests++;
    calls.push_back(
        net::RpcCall{writer, kVcDiffReq, DiffReqMsg{p, versions}.encode()});
  }
  std::vector<net::RpcResult> responses =
      co_await net::requestAll(ctx_.endpoint, std::move(calls),
                               ctx_.clock.now());
  // Views into the reply frames, which `responses` keeps alive.
  std::vector<std::pair<uint32_t, mem::DiffView>> collected;
  for (const net::RpcResult& resp : responses) {
    ctx_.clock.atLeast(resp.arrive);
    VODSM_CHECK(resp.type == kVcDiffResp);
    DiffRespMsg dr = DiffRespMsg::decode(*resp.frame);
    collected.insert(collected.end(), dr.diffs.begin(), dr.diffs.end());
  }
  std::sort(collected.begin(), collected.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [ver, d] : collected) {
    d.apply(ctx_.store.page(p));
    ctx_.clock.charge(ctx_.costs.diffApply(d.wireSize()));
    ctx_.stats.diffs_applied++;
    if (auto* t = ctx_.trace)
      t->instant(ctx_.id, obs::Cat::kDiffApply, ctx_.clock.now(), p,
                 d.wireSize());
    if (auto* m = ctx_.metrics)
      m->add(ctx_.id, obs::Metric::kDiffsApplied, 1, ctx_.clock.now());
  }
  if (auto* m = ctx_.metrics)
    m->add(ctx_.id, obs::Metric::kPendingNotices,
           -static_cast<int64_t>(it->second.size()), ctx_.clock.now());
  pending_.erase(p);
  ctx_.store.setAccess(p, ctx_.store.hasTwin(p) ? mem::Access::kWrite
                                                : mem::Access::kRead);
}

void VcRuntime::onVcDiffReq(const DiffReqMsg& m, const net::ReplyToken& token,
                            sim::Time arrive) {
  ctx_.endpoint.reply(token, kVcDiffResp, DiffRespMsg::encode(diff_log_, m),
                      arrive + ctx_.costs.handler_service);
}

// ---------- dirty tracking & VOPP access checks ----------

void VcRuntime::onPageDirtied(mem::PageId p) {
  VODSM_DCHECK(write_held_.has_value());
  dirty_.insert(p);
}

void VcRuntime::checkReadAllowed(size_t offset, size_t len) {
  auto v = ctx_.views.viewOfPage(mem::pageOf(offset));
  VODSM_CHECK_MSG(v.has_value(),
                  "VOPP read at offset " << offset
                                         << " is outside every view");
  VODSM_CHECK_MSG(ctx_.views.viewContainsRange(*v, offset, len),
                  "VOPP read [" << offset << ", " << offset + len
                                << ") crosses view " << *v << " boundary");
  VODSM_CHECK_MSG(holdsForRead(*v),
                  "VOPP read of view " << *v << " without acquiring it");
}

void VcRuntime::checkWriteAllowed(size_t offset, size_t len) {
  auto v = ctx_.views.viewOfPage(mem::pageOf(offset));
  VODSM_CHECK_MSG(v.has_value(),
                  "VOPP write at offset " << offset
                                          << " is outside every view");
  VODSM_CHECK_MSG(ctx_.views.viewContainsRange(*v, offset, len),
                  "VOPP write [" << offset << ", " << offset + len
                                 << ") crosses view " << *v << " boundary");
  VODSM_CHECK_MSG(write_held_ == *v, "VOPP write to view "
                                         << *v
                                         << " without write-acquiring it");
}

// ---------- barriers (pure synchronization) ----------

sim::Task<void> VcRuntime::barrier(BarrierId b) {
  VODSM_CHECK_MSG(!write_held_.has_value(),
                  "barrier while holding view " << *write_held_);
  if (ctx_.proto.barrier == BarrierAlg::kButterfly) {
    co_await barrierButterfly(b);
    co_return;
  }
  BarrArriveMsg arrive_msg;
  arrive_msg.barrier = b;
  arrive_msg.node = ctx_.id;
  const sim::Time t0 = ctx_.clock.now();
  if (auto* t = ctx_.trace) t->begin(ctx_.id, obs::Cat::kBarrierWait, t0, b);
  auto waiter = std::make_unique<sim::Waiter<BarrReleaseMsg>>();
  auto* waiter_ptr = waiter.get();
  VODSM_CHECK_MSG(!barrier_waiters_.count(b),
                  "barrier " << b << " re-entered concurrently");
  barrier_waiters_[b] = std::move(waiter);
  const NodeId arrive_at =
      ctx_.proto.barrier == BarrierAlg::kTree ? ctx_.id : barrierManager();
  ctx_.endpoint.post(arrive_at, kBarrArrive, arrive_msg.encode(),
                     ctx_.clock.now());
  BarrReleaseMsg rel = co_await *waiter_ptr;
  barrier_waiters_.erase(b);
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kBarrierWait, ctx_.clock.now(), b);
  ctx_.stats.barrier_wait_total += ctx_.clock.now() - t0;
  ctx_.stats.barrier_waits++;
}

void VcRuntime::onBarrArrive(const BarrArriveMsg& m, sim::Time arrive) {
  BarrierMgrState& st = barrier_mgr_[m.barrier];
  st.busy_until = std::max(st.busy_until, arrive) + ctx_.costs.barrier_fold;
  if (auto* t = ctx_.trace)
    t->instant(ctx_.id, obs::Cat::kBarrFold, st.busy_until, m.barrier, 0);
  st.arrived++;
  if (ctx_.proto.barrier == BarrierAlg::kTree) {
    treeBarrierStep(m.barrier, st);
    return;
  }
  if (st.arrived < ctx_.nprocs) return;
  ctx_.stats.barriers++;
  BarrReleaseMsg rel;
  rel.barrier = m.barrier;
  const SharedBytes encoded = std::make_shared<const Bytes>(rel.encode());
  for (NodeId n = 0; n < static_cast<NodeId>(ctx_.nprocs); ++n)
    ctx_.endpoint.post(n, kBarrRelease, encoded, st.busy_until);
  barrier_mgr_.erase(m.barrier);
}

void VcRuntime::treeBarrierStep(BarrierId b, BarrierMgrState& st) {
  if (st.arrived < 1 + treeChildCount()) return;
  if (ctx_.id == barrierManager()) {
    ctx_.stats.barriers++;
    BarrReleaseMsg rel;
    rel.barrier = b;
    // Self-post: the release fans down the tree from the root, one shared
    // buffer all the way.
    ctx_.endpoint.post(ctx_.id, kBarrRelease,
                       std::make_shared<const Bytes>(rel.encode()),
                       st.busy_until);
  } else {
    BarrArriveMsg up;
    up.barrier = b;
    up.node = ctx_.id;
    ctx_.endpoint.post(treeParent(), kBarrArrive, up.encode(), st.busy_until);
  }
  barrier_mgr_.erase(b);
}

sim::Task<void> VcRuntime::barrierButterfly(BarrierId b) {
  const sim::Time t0 = ctx_.clock.now();
  if (auto* t = ctx_.trace) t->begin(ctx_.id, obs::Cat::kBarrierWait, t0, b);
  const auto p = static_cast<uint32_t>(ctx_.nprocs);
  for (uint32_t step = 1, round = 0; step < p; step <<= 1, ++round) {
    BarrRoundMsg out;
    out.barrier = b;
    out.round = round;
    out.node = ctx_.id;
    ctx_.endpoint.post((ctx_.id + step) % p, kBarrRound, out.encode(),
                       ctx_.clock.now());
    co_await awaitRound(b, round);
    ctx_.clock.charge(ctx_.costs.barrier_fold);
  }
  // One logical barrier per instance in the aggregate count.
  if (ctx_.id == 0) ctx_.stats.barriers++;
  if (auto* t = ctx_.trace)
    t->end(ctx_.id, obs::Cat::kBarrierWait, ctx_.clock.now(), b);
  ctx_.stats.barrier_wait_total += ctx_.clock.now() - t0;
  ctx_.stats.barrier_waits++;
}

sim::Task<BarrRoundMsg> VcRuntime::awaitRound(BarrierId b, uint32_t round) {
  const auto key = std::make_pair(b, round);
  auto eit = round_early_.find(key);
  if (eit != round_early_.end()) {
    BarrRoundMsg m = std::move(eit->second.first);
    ctx_.clock.atLeast(eit->second.second);
    round_early_.erase(eit);
    co_return m;
  }
  auto waiter = std::make_unique<sim::Waiter<BarrRoundMsg>>();
  auto* waiter_ptr = waiter.get();
  round_waiters_[key] = std::move(waiter);
  BarrRoundMsg m = co_await *waiter_ptr;
  round_waiters_.erase(key);
  co_return m;
}

}  // namespace vodsm::dsm
