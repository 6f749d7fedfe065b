#include "mem/diff.hpp"

#include <algorithm>
#include <cstring>

namespace vodsm::mem {

namespace {
constexpr size_t kWord = 4;
static_assert(kPageSize % 8 == 0, "64-bit scan assumes 8-byte-multiple pages");

// 64-bit twin comparison with run coalescing. Semantics are identical to
// the original 4-byte-word memcmp scan (runs are maximal sequences of
// differing 4-byte words), but the clean fast path — an unchanged 8-byte
// block — is one XOR, and the per-word result falls out of the same XOR's
// halves, so scanning a mostly-clean page touches each cache line once.
void scanPage(ByteSpan current, ByteSpan twin, std::vector<Diff::Run>& runs,
              Bytes& data) {
  VODSM_CHECK(current.size() == kPageSize && twin.size() == kPageSize);
  const std::byte* cur = current.data();
  const std::byte* tw = twin.data();

  size_t run_start = kPageSize;  // kPageSize == no run open
  auto flush = [&](size_t end) {
    if (run_start == kPageSize) return;
    runs.push_back(Diff::Run{static_cast<uint16_t>(run_start),
                             static_cast<uint16_t>(end - run_start)});
    data.insert(data.end(), cur + run_start, cur + end);
    run_start = kPageSize;
  };

  for (size_t i = 0; i < kPageSize; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, cur + i, 8);
    std::memcpy(&b, tw + i, 8);
    const uint64_t x = a ^ b;
    if (x == 0) {
      flush(i);
      continue;
    }
    // Little-endian host (as assumed by support/bytes.hpp): the low 32 bits
    // of the XOR cover bytes [i, i+4), the high 32 bits [i+4, i+8).
    const bool lo = (x & 0xFFFFFFFFull) != 0;
    const bool hi = (x >> 32) != 0;
    if (lo) {
      if (run_start == kPageSize) run_start = i;
      if (!hi) flush(i + kWord);
    } else {
      flush(i);
      if (hi) run_start = i + kWord;
    }
  }
  flush(kPageSize);
}

// Runs in offset order, pairwise disjoint (adjacent is fine), in the page:
// what create() and integrate() produce.
bool sortedRuns(const std::vector<Diff::Run>& runs) {
  size_t end = 0;
  for (const Diff::Run& r : runs) {
    if (r.offset < end) return false;
    end = static_cast<size_t>(r.offset) + r.length;
  }
  return end <= kPageSize;
}
}  // namespace

Diff Diff::create(PageId page, ByteSpan current, ByteSpan twin) {
  Diff d(page);
  scanPage(current, twin, d.runs_, d.data_);
  return d;
}

Diff Diff::create(PageId page, ByteSpan current, ByteSpan twin,
                  Scratch& scratch) {
  scratch.runs.clear();
  scratch.data.clear();
  scanPage(current, twin, scratch.runs, scratch.data);
  Diff d(page);
  d.runs_.assign(scratch.runs.begin(), scratch.runs.end());
  d.data_.assign(scratch.data.begin(), scratch.data.end());
  return d;
}

void Diff::apply(MutByteSpan page_bytes) const {
  VODSM_CHECK(page_bytes.size() == kPageSize);
  size_t pos = 0;
  for (const Run& r : runs_) {
    VODSM_DCHECK(static_cast<size_t>(r.offset) + r.length <= kPageSize);
    std::memcpy(page_bytes.data() + r.offset, data_.data() + pos, r.length);
    pos += r.length;
  }
  VODSM_DCHECK(pos == data_.size());
}

Diff Diff::integrate(const Diff& older, const Diff& newer) {
  VODSM_CHECK(older.page_ == newer.page_);
  VODSM_CHECK_MSG(sortedRuns(older.runs_) && sortedRuns(newer.runs_),
                  "integrate needs sorted, disjoint runs");
  // Merge the two sorted run lists: every run of `newer` whole, and the
  // parts of `older`'s runs that fall in the gaps between them. Pieces come
  // out in offset order and never overlap; a piece that starts where the
  // last output run ends extends it, so the output runs are the maximal
  // intervals of the union, exactly as a byte overlay would find them.
  Diff out(older.page_);
  out.runs_.reserve(older.runs_.size() + newer.runs_.size());
  out.data_.reserve(older.data_.size() + newer.data_.size());
  auto emit = [&out](size_t start, const std::byte* src, size_t len) {
    if (len == 0) return;
    Run* last = out.runs_.empty() ? nullptr : &out.runs_.back();
    if (last != nullptr && last->offset + last->length == start) {
      last->length = static_cast<uint16_t>(last->length + len);
    } else {
      out.runs_.push_back(
          Run{static_cast<uint16_t>(start), static_cast<uint16_t>(len)});
    }
    out.data_.insert(out.data_.end(), src, src + len);
  };
  const std::vector<Run>& o = older.runs_;
  const std::vector<Run>& n = newer.runs_;
  size_t i = 0, j = 0;        // next run of older / newer
  size_t opos = 0, npos = 0;  // data offset of run i / run j
  size_t done = 0;            // every byte below this is already placed
  auto emitNewer = [&] {
    emit(n[j].offset, newer.data_.data() + npos, n[j].length);
    done = static_cast<size_t>(n[j].offset) + n[j].length;
    npos += n[j].length;
    ++j;
  };
  while (i < o.size()) {
    const size_t oend = static_cast<size_t>(o[i].offset) + o[i].length;
    const size_t ostart = std::max<size_t>(o[i].offset, done);
    if (ostart >= oend) {  // nothing of run i is left to place
      opos += o[i].length;
      ++i;
    } else if (j < n.size() && n[j].offset <= ostart) {
      emitNewer();
    } else {
      const size_t cut =
          j < n.size() ? std::min<size_t>(oend, n[j].offset) : oend;
      emit(ostart, older.data_.data() + opos + (ostart - o[i].offset),
           cut - ostart);
      done = cut;
    }
  }
  while (j < n.size()) emitNewer();
  return out;
}

void Diff::serialize(Writer& w) const {
  w.reserveMore(wireSize());
  w.u32(page_);
  w.u32(static_cast<uint32_t>(runs_.size()));
  for (const Run& r : runs_) {
    w.u16(r.offset);
    w.u16(r.length);
  }
  w.blob(data_);
}

Diff Diff::deserialize(Reader& r) {
  Diff d(r.u32());
  const uint32_t n = r.u32();
  d.runs_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint16_t off = r.u16();
    uint16_t len = r.u16();
    d.runs_.push_back(Run{off, len});
  }
  ByteSpan data = r.blob();
  d.data_.assign(data.begin(), data.end());
  size_t total = 0;
  for (const Run& run : d.runs_) total += run.length;
  VODSM_CHECK_MSG(total == d.data_.size(), "corrupt diff encoding");
  return d;
}

namespace {
// One entry of a serialized run table (see Diff::serialize): offset in the
// low half of the little-endian word, length in the high half.
Diff::Run runAt(ByteSpan table, size_t i) {
  uint32_t word;
  std::memcpy(&word, table.data() + 4 * i, 4);
  return Diff::Run{static_cast<uint16_t>(word),
                   static_cast<uint16_t>(word >> 16)};
}
}  // namespace

DiffView DiffView::read(Reader& r) {
  DiffView v;
  v.page_ = r.u32();
  const uint32_t n = r.u32();
  v.runs_ = r.bytes(size_t{n} * 4);
  v.data_ = r.blob();
  size_t total = 0;
  size_t end = 0;  // furthest byte any run reaches
  for (size_t i = 0; i < n; ++i) {
    const Diff::Run run = runAt(v.runs_, i);
    total += run.length;
    end = std::max(end, static_cast<size_t>(run.offset) + run.length);
  }
  VODSM_CHECK_MSG(total == v.data_.size() && end <= kPageSize,
                  "corrupt diff encoding");
  return v;
}

void DiffView::apply(MutByteSpan page_bytes) const {
  VODSM_CHECK(page_bytes.size() == kPageSize);
  size_t pos = 0;
  for (size_t i = 0; i < runCount(); ++i) {
    const Diff::Run run = runAt(runs_, i);
    std::memcpy(page_bytes.data() + run.offset, data_.data() + pos,
                run.length);
    pos += run.length;
  }
}

void Diff::addRun(uint16_t offset, ByteSpan bytes) {
  VODSM_CHECK(static_cast<size_t>(offset) + bytes.size() <= kPageSize);
  runs_.push_back(Run{offset, static_cast<uint16_t>(bytes.size())});
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

}  // namespace vodsm::mem
