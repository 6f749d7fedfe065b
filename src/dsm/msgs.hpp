// Wire formats for the DSM protocols.
//
// Every payload serializes through support/bytes.hpp, so message sizes in
// the statistics tables are the real encoded sizes: a message's size is its
// head plus its shared segments (net::Payload), exactly the bytes one
// contiguous encoding would hold. Only diff replies and barrier releases
// carry segments.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "dsm/types.hpp"
#include "mem/diff.hpp"
#include "mem/write_notice.hpp"
#include "net/frame.hpp"
#include "net/stats.hpp"
#include "support/bytes.hpp"

namespace vodsm::dsm {

enum MsgType : uint16_t {
  // LRC lock protocol.
  kLockAcq = 1,      // requester -> manager {lock, requester, vclock}
  kLockAuth = 2,     // manager -> last releaser {lock, requester, vclock}
  kLockGrant = 3,    // last releaser -> requester {lock, vclock, intervals}
  kLockRelease = 14, // holder -> manager {lock}
  // LRC diff fetch.
  kDiffReq = 4,   // faulting node -> writer {page, interval indices}
  kDiffResp = 5,  // writer -> faulting node {diffs}
  // Barriers (shared types; payloads differ between LRC and VC).
  kBarrArrive = 6,
  kBarrRelease = 7,
  // VC view protocol.
  kViewAcq = 8,          // requester -> manager {view, write?, last_seen}
  kViewGrant = 9,        // manager -> requester
  kViewRelease = 10,     // writer -> manager {view, version, pages, [diffs]}
  kViewReadRelease = 11, // reader -> manager {view}
  // VC_d diff fetch.
  kVcDiffReq = 12,   // faulting node -> writer {page, versions}
  kVcDiffResp = 13,  // writer -> faulting node {diffs}
  // Butterfly (dissemination) barrier round: peer -> peer
  // {barrier, round, node, intervals}.
  kBarrRound = 15,
  // View home migration (ViewHomes::kMigrate): old home -> new home, the
  // view's full manager state.
  kViewMigrate = 16,
  // MPI-like point-to-point payloads (msg library).
  kMsgData = 64,
};

// Maps DSM message types onto the transport's traffic classes; installed on
// each endpoint so NetStats can attribute messages and retransmissions per
// kind.
inline net::MsgClass classifyMsg(uint16_t type) {
  switch (type) {
    case kLockAcq:
    case kLockAuth:
    case kViewAcq: return net::MsgClass::kAcquire;
    case kLockGrant:
    case kViewGrant: return net::MsgClass::kGrant;
    case kLockRelease:
    case kViewRelease:
    case kViewReadRelease: return net::MsgClass::kRelease;
    case kDiffReq:
    case kVcDiffReq: return net::MsgClass::kDiffRequest;
    case kDiffResp:
    case kVcDiffResp: return net::MsgClass::kDiffReply;
    case kBarrArrive:
    case kBarrRelease:
    case kBarrRound: return net::MsgClass::kBarrier;
    case kMsgData: return net::MsgClass::kData;
    default: return net::MsgClass::kOther;
  }
}

// ---- LRC payloads ----

struct LockAcqMsg {
  LockId lock = 0;
  NodeId requester = 0;
  mem::VClock vc;

  Bytes encode() const {
    Writer w;
    w.u32(lock);
    w.u32(requester);
    vc.serialize(w);
    return w.take();
  }
  static LockAcqMsg decode(ByteSpan b) {
    Reader r(b);
    LockAcqMsg m;
    m.lock = r.u32();
    m.requester = r.u32();
    m.vc = mem::VClock::deserialize(r);
    return m;
  }
};

struct LockGrantMsg {
  LockId lock = 0;
  mem::VClock grantor_vc;
  std::vector<mem::Interval> intervals;

  Bytes encode() const {
    Writer w;
    w.u32(lock);
    grantor_vc.serialize(w);
    w.u32(static_cast<uint32_t>(intervals.size()));
    for (const auto& iv : intervals) iv.serialize(w);
    return w.take();
  }
  static LockGrantMsg decode(ByteSpan b) {
    Reader r(b);
    LockGrantMsg m;
    m.lock = r.u32();
    m.grantor_vc = mem::VClock::deserialize(r);
    const uint32_t n = r.u32();
    m.intervals.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
      m.intervals.push_back(mem::Interval::deserialize(r));
    return m;
  }
};

struct DiffReqMsg {
  mem::PageId page = 0;
  std::vector<uint32_t> interval_indices;  // which intervals of the writer

  Bytes encode() const {
    Writer w;
    w.u32(page);
    w.u32(static_cast<uint32_t>(interval_indices.size()));
    for (uint32_t i : interval_indices) w.u32(i);
    return w.take();
  }
  static DiffReqMsg decode(ByteSpan b) {
    Reader r(b);
    DiffReqMsg m;
    m.page = r.u32();
    const uint32_t n = r.u32();
    m.interval_indices.reserve(n);
    for (uint32_t i = 0; i < n; ++i) m.interval_indices.push_back(r.u32());
    return m;
  }
};

// One of a writer's own diffs, encoded once when its interval (LRC) or
// version (VC_d) closes, in the form a diff reply carries it:
// [key u32][Diff::serialize]. Every reply that includes it shares `wire`.
struct LoggedDiff {
  uint32_t key = 0;  // the writer interval index (LRC) or view version (VC_d)
  SharedBytes wire;

  static LoggedDiff encode(uint32_t key, const mem::Diff& d) {
    Writer w(4 + d.wireSize());
    w.u32(key);
    d.serialize(w);
    return {key, std::make_shared<const Bytes>(w.take())};
  }
};

// A writer's own diffs: page -> logged diffs, ascending by key.
using DiffLog = std::unordered_map<mem::PageId, std::vector<LoggedDiff>>;

// Diff reply: a count head, then one logged diff per segment. On the wire
// that is [count u32] followed by count x [key u32][diff].
struct DiffRespMsg {
  // (ordering key, diff) pairs read in place: each view points into the
  // reply frame, which must outlive the message.
  std::vector<std::pair<uint32_t, mem::DiffView>> diffs;

  // Answers `req` straight from the writer's diff log: the reply shares the
  // logged segments instead of copying them.
  static net::Payload encode(const DiffLog& log, const DiffReqMsg& req) {
    auto it = log.find(req.page);
    VODSM_CHECK_MSG(it != log.end(),
                    "diff request for page " << req.page << " with no diffs");
    net::Payload out;
    out.segments.reserve(req.interval_indices.size());
    for (uint32_t want : req.interval_indices) {
      auto dit = std::lower_bound(
          it->second.begin(), it->second.end(), want,
          [](const LoggedDiff& e, uint32_t v) { return e.key < v; });
      VODSM_CHECK_MSG(dit != it->second.end() && dit->key == want,
                      "missing diff for page " << req.page << " key "
                                               << want);
      out.segments.push_back(dit->wire);
    }
    Writer head(4);
    head.u32(static_cast<uint32_t>(out.segments.size()));
    out.head = head.take();
    return out;
  }
  // Reads the head's count, then one diff from each of the frame's
  // segments, in order.
  static DiffRespMsg decode(const net::FrameData& frame) {
    Reader head(frame.payload.head);
    const uint32_t n = head.u32();
    VODSM_CHECK_MSG(head.done() && frame.payload.segments.size() == n,
                    "diff reply with " << frame.payload.segments.size()
                                       << " segments for " << n << " diffs");
    DiffRespMsg m;
    m.diffs.reserve(n);
    for (const SharedBytes& seg : frame.payload.segments) {
      Reader r(*seg);
      const uint32_t key = r.u32();
      m.diffs.emplace_back(key, mem::DiffView::read(r));
      VODSM_CHECK_MSG(r.done(), "trailing bytes after a logged diff");
    }
    return m;
  }
};

// Barrier arrival. VC protocols leave `intervals` empty (pure sync).
struct BarrArriveMsg {
  BarrierId barrier = 0;
  NodeId node = 0;
  std::vector<mem::Interval> intervals;

  Bytes encode() const {
    Writer w;
    w.u32(barrier);
    w.u32(node);
    w.u32(static_cast<uint32_t>(intervals.size()));
    for (const auto& iv : intervals) iv.serialize(w);
    return w.take();
  }
  static BarrArriveMsg decode(ByteSpan b) {
    Reader r(b);
    BarrArriveMsg m;
    m.barrier = r.u32();
    m.node = r.u32();
    const uint32_t n = r.u32();
    m.intervals.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
      m.intervals.push_back(mem::Interval::deserialize(r));
    return m;
  }
};

// One dissemination-barrier round. VC protocols leave `intervals` empty;
// LRC carries everything the sender has accumulated since entering the
// barrier (its own fresh intervals plus those learned in earlier rounds),
// which is exactly the dissemination invariant receivers need.
struct BarrRoundMsg {
  BarrierId barrier = 0;
  uint32_t round = 0;
  NodeId node = 0;
  std::vector<mem::Interval> intervals;

  Bytes encode() const {
    Writer w;
    w.u32(barrier);
    w.u32(round);
    w.u32(node);
    w.u32(static_cast<uint32_t>(intervals.size()));
    for (const auto& iv : intervals) iv.serialize(w);
    return w.take();
  }
  static BarrRoundMsg decode(ByteSpan b) {
    Reader r(b);
    BarrRoundMsg m;
    m.barrier = r.u32();
    m.round = r.u32();
    m.node = r.u32();
    const uint32_t n = r.u32();
    m.intervals.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
      m.intervals.push_back(mem::Interval::deserialize(r));
    return m;
  }
};

struct BarrReleaseMsg {
  BarrierId barrier = 0;
  std::vector<mem::Interval> intervals;  // LRC: global merged set

  Bytes encode() const {
    Writer w;
    w.u32(barrier);
    w.u32(static_cast<uint32_t>(intervals.size()));
    for (const auto& iv : intervals) iv.serialize(w);
    return w.take();
  }
  static BarrReleaseMsg decode(ByteSpan b) {
    Reader r(b);
    BarrReleaseMsg m;
    m.barrier = r.u32();
    const uint32_t n = r.u32();
    m.intervals.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
      m.intervals.push_back(mem::Interval::deserialize(r));
    return m;
  }
};

// ---- VC payloads ----

struct ViewAcqMsg {
  ViewId view = 0;
  NodeId requester = 0;
  uint8_t write = 1;
  uint32_t last_seen = 0;  // last view version this node has incorporated

  Bytes encode() const {
    Writer w;
    w.u32(view);
    w.u32(requester);
    w.u8(write);
    w.u32(last_seen);
    return w.take();
  }
  static ViewAcqMsg decode(ByteSpan b) {
    Reader r(b);
    ViewAcqMsg m;
    m.view = r.u32();
    m.requester = r.u32();
    m.write = r.u8();
    m.last_seen = r.u32();
    return m;
  }
};

// One stale page in a view grant (VC_d): fetch version `version` from
// `writer`.
struct VcNotice {
  mem::PageId page = 0;
  uint32_t version = 0;
  NodeId writer = 0;
};

struct ViewGrantMsg {
  ViewId view = 0;
  uint32_t cur_version = 0;    // committed version at grant time
  uint32_t write_version = 0;  // version assigned to the writer (0 for reads)
  std::vector<VcNotice> notices;  // VC_d: stale pages to invalidate
  std::vector<mem::Diff> diffs;   // VC_sd: integrated diffs, applied eagerly

  Bytes encode() const {
    size_t total = 20 + notices.size() * 12;
    for (const auto& d : diffs) total += d.wireSize();
    Writer w(total);
    w.u32(view);
    w.u32(cur_version);
    w.u32(write_version);
    w.u32(static_cast<uint32_t>(notices.size()));
    for (const auto& n : notices) {
      w.u32(n.page);
      w.u32(n.version);
      w.u32(n.writer);
    }
    w.u32(static_cast<uint32_t>(diffs.size()));
    for (const auto& d : diffs) d.serialize(w);
    return w.take();
  }
  static ViewGrantMsg decode(ByteSpan b) {
    Reader r(b);
    ViewGrantMsg m;
    m.view = r.u32();
    m.cur_version = r.u32();
    m.write_version = r.u32();
    const uint32_t nn = r.u32();
    m.notices.reserve(nn);
    for (uint32_t i = 0; i < nn; ++i) {
      VcNotice n;
      n.page = r.u32();
      n.version = r.u32();
      n.writer = r.u32();
      m.notices.push_back(n);
    }
    const uint32_t nd = r.u32();
    m.diffs.reserve(nd);
    for (uint32_t i = 0; i < nd; ++i)
      m.diffs.push_back(mem::Diff::deserialize(r));
    return m;
  }
};

struct ViewReleaseMsg {
  ViewId view = 0;
  NodeId writer = 0;
  uint32_t version = 0;
  std::vector<mem::PageId> pages;  // pages dirtied in this version
  std::vector<mem::Diff> diffs;    // VC_sd: their diffs (home update)

  Bytes encode() const {
    size_t total = 20 + pages.size() * 4;
    for (const auto& d : diffs) total += d.wireSize();
    Writer w(total);
    w.u32(view);
    w.u32(writer);
    w.u32(version);
    w.u32(static_cast<uint32_t>(pages.size()));
    for (mem::PageId p : pages) w.u32(p);
    w.u32(static_cast<uint32_t>(diffs.size()));
    for (const auto& d : diffs) d.serialize(w);
    return w.take();
  }
  static ViewReleaseMsg decode(ByteSpan b) {
    Reader r(b);
    ViewReleaseMsg m;
    m.view = r.u32();
    m.writer = r.u32();
    m.version = r.u32();
    const uint32_t np = r.u32();
    m.pages.reserve(np);
    for (uint32_t i = 0; i < np; ++i) m.pages.push_back(r.u32());
    const uint32_t nd = r.u32();
    m.diffs.reserve(nd);
    for (uint32_t i = 0; i < nd; ++i)
      m.diffs.push_back(mem::Diff::deserialize(r));
    return m;
  }
};

// Full manager state of one view, shipped old home -> new home on a
// ViewHomes::kMigrate handoff (only ever sent while the view is idle: no
// writer, no readers, empty queue). Maps are flattened in ascending key
// order so the encoded bytes — and hence the simulated wire cost — are
// deterministic.
struct ViewMigrateMsg {
  ViewId view = 0;
  uint32_t cur_version = 0;
  uint32_t gc_version = 0;
  // history[v-1] = (writer, pages) of version v.
  std::vector<std::pair<NodeId, std::vector<mem::PageId>>> history;
  // VC_sd home storage, per page ascending: version-tail and GC base.
  std::vector<std::pair<mem::PageId,
                        std::vector<std::pair<uint32_t, mem::Diff>>>>
      diff_log;
  std::vector<std::pair<mem::PageId, mem::Diff>> base;
  // Last granted version per node that ever acquired the view.
  std::vector<std::pair<NodeId, uint32_t>> seen;

  Bytes encode() const {
    Writer w;
    w.u32(view);
    w.u32(cur_version);
    w.u32(gc_version);
    w.u32(static_cast<uint32_t>(history.size()));
    for (const auto& [writer, pages] : history) {
      w.u32(writer);
      w.u32(static_cast<uint32_t>(pages.size()));
      for (mem::PageId p : pages) w.u32(p);
    }
    w.u32(static_cast<uint32_t>(diff_log.size()));
    for (const auto& [page, log] : diff_log) {
      w.u32(page);
      w.u32(static_cast<uint32_t>(log.size()));
      for (const auto& [ver, d] : log) {
        w.u32(ver);
        d.serialize(w);
      }
    }
    w.u32(static_cast<uint32_t>(base.size()));
    for (const auto& [page, d] : base) {
      w.u32(page);
      d.serialize(w);
    }
    w.u32(static_cast<uint32_t>(seen.size()));
    for (const auto& [node, ver] : seen) {
      w.u32(node);
      w.u32(ver);
    }
    return w.take();
  }
  static ViewMigrateMsg decode(ByteSpan b) {
    Reader r(b);
    ViewMigrateMsg m;
    m.view = r.u32();
    m.cur_version = r.u32();
    m.gc_version = r.u32();
    const uint32_t nh = r.u32();
    m.history.reserve(nh);
    for (uint32_t i = 0; i < nh; ++i) {
      NodeId writer = r.u32();
      const uint32_t np = r.u32();
      std::vector<mem::PageId> pages;
      pages.reserve(np);
      for (uint32_t k = 0; k < np; ++k) pages.push_back(r.u32());
      m.history.emplace_back(writer, std::move(pages));
    }
    const uint32_t nl = r.u32();
    m.diff_log.reserve(nl);
    for (uint32_t i = 0; i < nl; ++i) {
      mem::PageId page = r.u32();
      const uint32_t nd = r.u32();
      std::vector<std::pair<uint32_t, mem::Diff>> log;
      log.reserve(nd);
      for (uint32_t k = 0; k < nd; ++k) {
        uint32_t ver = r.u32();
        log.emplace_back(ver, mem::Diff::deserialize(r));
      }
      m.diff_log.emplace_back(page, std::move(log));
    }
    const uint32_t nb = r.u32();
    m.base.reserve(nb);
    for (uint32_t i = 0; i < nb; ++i) {
      mem::PageId page = r.u32();
      m.base.emplace_back(page, mem::Diff::deserialize(r));
    }
    const uint32_t ns = r.u32();
    m.seen.reserve(ns);
    for (uint32_t i = 0; i < ns; ++i) {
      NodeId node = r.u32();
      uint32_t ver = r.u32();
      m.seen.emplace_back(node, ver);
    }
    return m;
  }
};

struct ViewReadReleaseMsg {
  ViewId view = 0;
  NodeId reader = 0;

  Bytes encode() const {
    Writer w;
    w.u32(view);
    w.u32(reader);
    return w.take();
  }
  static ViewReadReleaseMsg decode(ByteSpan b) {
    Reader r(b);
    ViewReadReleaseMsg m;
    m.view = r.u32();
    m.reader = r.u32();
    return m;
  }
};

}  // namespace vodsm::dsm
