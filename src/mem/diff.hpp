// Page diffs: the unit of update propagation in all three DSM protocols.
//
// A diff records the byte ranges of one page that changed relative to its
// twin, at 4-byte word granularity (as in TreadMarks). VC_sd additionally
// *integrates* successive diffs of the same page into a single diff whose
// runs cover the union of the inputs, with later bytes taking precedence.
#pragma once

#include <vector>

#include "mem/page.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace vodsm::mem {

class Diff {
 public:
  struct Run {
    uint16_t offset = 0;  // byte offset within the page
    uint16_t length = 0;  // byte count
  };

  Diff() = default;
  explicit Diff(PageId page) : page_(page) {}

  PageId page() const { return page_; }
  bool empty() const { return runs_.empty(); }
  const std::vector<Run>& runs() const { return runs_; }
  ByteSpan data() const { return data_; }

  // Word-granular comparison of `current` against `twin` (both one page).
  static Diff create(PageId page, ByteSpan current, ByteSpan twin);

  // Reusable scan buffers for the arena variant of create() below. One
  // Scratch per owner (e.g. per-node PageStore) keeps the hot diff path
  // free of vector growth: the scan runs in capacity retained across
  // calls and the resulting Diff is sized exactly once.
  struct Scratch {
    std::vector<Run> runs;
    Bytes data;
  };

  // As create(), but scans into `scratch` (capacity retained across calls)
  // and copies the exact-size result out. Produces an identical Diff.
  static Diff create(PageId page, ByteSpan current, ByteSpan twin,
                     Scratch& scratch);

  // Overwrite the covered ranges of `page_bytes` with this diff's data.
  void apply(MutByteSpan page_bytes) const;

  // Equivalent of applying `older` then `newer` to the same base. Each
  // input's runs must be in offset order and disjoint, as create() and
  // integrate() make them; the result's runs are the maximal intervals of
  // the union, with `newer`'s bytes winning.
  static Diff integrate(const Diff& older, const Diff& newer);

  // Bytes this diff occupies in a message (runs table + data + header).
  size_t wireSize() const { return 12 + runs_.size() * 4 + data_.size(); }

  void serialize(Writer& w) const;
  // Copies the diff out of `r` into owned storage. DiffView::read reads the
  // same encoding in place.
  static Diff deserialize(Reader& r);

  // Test/build helper: add one run with explicit bytes.
  void addRun(uint16_t offset, ByteSpan bytes);

  bool operator==(const Diff& o) const {
    if (page_ != o.page_ || runs_.size() != o.runs_.size()) return false;
    for (size_t i = 0; i < runs_.size(); ++i)
      if (runs_[i].offset != o.runs_[i].offset ||
          runs_[i].length != o.runs_[i].length)
        return false;
    return std::equal(data_.begin(), data_.end(), o.data_.begin(),
                      o.data_.end());
  }

 private:
  PageId page_ = 0;
  std::vector<Run> runs_;
  Bytes data_;
};

// A serialized diff (Diff::serialize's layout) read in place: the run table
// and the data stay in the buffer they arrived in, which must outlive the
// view. A receiver applies a fetched diff straight from the frame that
// carried it instead of first copying it into a Diff.
class DiffView {
 public:
  // Consumes one serialized diff from `r`. Fails a check, as
  // Diff::deserialize does, when the run lengths do not add up to the data;
  // also when a run reaches past the page, since apply() writes in place.
  static DiffView read(Reader& r);

  PageId page() const { return page_; }
  size_t runCount() const { return runs_.size() / 4; }
  // Same as the equivalent Diff's wireSize().
  size_t wireSize() const { return 12 + runs_.size() + data_.size(); }

  // Same effect as Diff::apply on the equivalent Diff.
  void apply(MutByteSpan page_bytes) const;

 private:
  PageId page_ = 0;
  ByteSpan runs_;  // 4 bytes per run: offset u16, length u16 (little-endian)
  ByteSpan data_;
};

}  // namespace vodsm::mem
