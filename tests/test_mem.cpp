// Unit and property tests for the memory substrate: diffs, diff
// integration, page store, vector clocks, view map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "dsm/view_map.hpp"
#include "mem/diff.hpp"
#include "mem/page_store.hpp"
#include "mem/vclock.hpp"
#include "sim/rng.hpp"

namespace vodsm {
namespace {

using mem::Diff;
using mem::kPageSize;

Bytes randomPage(sim::Rng& rng) {
  Bytes page(kPageSize);
  for (auto& b : page) b = static_cast<std::byte>(rng.below(256));
  return page;
}

// Mutate `page` at roughly `density` fraction of its words.
void mutatePage(sim::Rng& rng, MutByteSpan page, double density) {
  for (size_t w = 0; w + 4 <= page.size(); w += 4) {
    if (rng.uniform() < density) {
      page[w] = static_cast<std::byte>(rng.below(256));
      page[w + 1] = static_cast<std::byte>(rng.below(256));
    }
  }
}

class DiffProperty : public ::testing::TestWithParam<double> {};

// apply(create(cur, twin), twin) == cur — for any edit density.
TEST_P(DiffProperty, RoundTrip) {
  sim::Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes twin = randomPage(rng);
    Bytes cur = twin;
    mutatePage(rng, cur, GetParam());
    Diff d = Diff::create(1, cur, twin);
    Bytes out = twin;
    d.apply(out);
    EXPECT_EQ(out, cur);
  }
}

// integrate(d1, d2) applied to base == d1 then d2 applied to base.
TEST_P(DiffProperty, IntegrationEqualsSequentialApplication) {
  sim::Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes base = randomPage(rng);
    Bytes v1 = base;
    mutatePage(rng, v1, GetParam());
    Bytes v2 = v1;
    mutatePage(rng, v2, GetParam());
    Diff d1 = Diff::create(2, v1, base);
    Diff d2 = Diff::create(2, v2, v1);
    Diff merged = Diff::integrate(d1, d2);

    Bytes seq = base;
    d1.apply(seq);
    d2.apply(seq);
    Bytes intg = base;
    merged.apply(intg);
    EXPECT_EQ(intg, seq);
  }
}

// Wire round trip preserves the diff exactly.
TEST_P(DiffProperty, SerializationRoundTrip) {
  sim::Rng rng(77);
  Bytes twin = randomPage(rng);
  Bytes cur = twin;
  mutatePage(rng, cur, GetParam());
  Diff d = Diff::create(3, cur, twin);
  Writer w;
  d.serialize(w);
  Bytes encoded = w.take();
  Reader r(encoded);
  Diff back = Diff::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(d, back);
  EXPECT_EQ(encoded.size(), d.wireSize());
}

INSTANTIATE_TEST_SUITE_P(Densities, DiffProperty,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 1.0),
                         [](const auto& info) {
                           return "density_" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

TEST(Diff, EmptyWhenIdentical) {
  Bytes page(kPageSize, std::byte{5});
  Diff d = Diff::create(0, page, page);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.runs().size(), 0u);
}

TEST(Diff, CoalescesAdjacentWords) {
  Bytes twin(kPageSize, std::byte{0});
  Bytes cur = twin;
  for (size_t i = 100; i < 120; ++i) cur[i] = std::byte{1};
  Diff d = Diff::create(0, cur, twin);
  EXPECT_EQ(d.runs().size(), 1u);
  EXPECT_EQ(d.runs()[0].offset, 100u);
  EXPECT_EQ(d.runs()[0].length, 20u);
}

TEST(Diff, IntegrationNewerWinsOnOverlap) {
  Diff older(4), newer(4);
  Bytes a{std::byte{1}, std::byte{1}, std::byte{1}, std::byte{1}};
  Bytes b{std::byte{2}, std::byte{2}};
  older.addRun(0, a);
  newer.addRun(2, b);
  Diff merged = Diff::integrate(older, newer);
  Bytes page(kPageSize, std::byte{0});
  merged.apply(page);
  EXPECT_EQ(page[0], std::byte{1});
  EXPECT_EQ(page[1], std::byte{1});
  EXPECT_EQ(page[2], std::byte{2});
  EXPECT_EQ(page[3], std::byte{2});
}

// The byte-overlay integration that Diff::integrate's run merge replaced:
// materialize both diffs onto a page and a coverage map, then rescan.
Diff overlayIntegrate(const Diff& older, const Diff& newer) {
  std::vector<std::byte> bytes(kPageSize);
  std::vector<bool> covered(kPageSize, false);
  auto overlay = [&](const Diff& d) {
    size_t pos = 0;
    for (const Diff::Run& r : d.runs()) {
      for (size_t k = 0; k < r.length; ++k) {
        bytes[r.offset + k] = d.data()[pos + k];
        covered[r.offset + k] = true;
      }
      pos += r.length;
    }
  };
  overlay(older);
  overlay(newer);
  Diff out(older.page());
  size_t i = 0;
  while (i < kPageSize) {
    if (!covered[i]) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < kPageSize && covered[i]) ++i;
    out.addRun(static_cast<uint16_t>(start),
               ByteSpan(bytes.data() + start, i - start));
  }
  return out;
}

// A diff of random sorted, disjoint runs: gaps of zero (adjacent runs),
// zero-length runs, single bytes, and runs up to a quarter page.
Diff randomRunDiff(sim::Rng& rng, uint64_t max_gap) {
  Diff d(9);
  size_t at = rng.below(max_gap + 1);
  while (at < kPageSize) {
    const size_t cap = std::min<size_t>(kPageSize - at, kPageSize / 4);
    Bytes run(rng.below(8) == 0 ? 0 : 1 + rng.below(cap));
    for (auto& b : run) b = static_cast<std::byte>(rng.below(256));
    d.addRun(static_cast<uint16_t>(at), run);
    at += run.size() + rng.below(max_gap + 1);
  }
  return d;
}

TEST(Diff, IntegrationMatchesByteOverlay) {
  sim::Rng rng(2024);
  for (int trial = 0; trial < 3000; ++trial) {
    const uint64_t gap_a = uint64_t{1} << rng.below(12);
    const uint64_t gap_b = uint64_t{1} << rng.below(12);
    const Diff older =
        rng.below(10) == 0 ? Diff(9) : randomRunDiff(rng, gap_a);
    const Diff newer =
        rng.below(10) == 0 ? Diff(9) : randomRunDiff(rng, gap_b);
    const Diff want = overlayIntegrate(older, newer);
    ASSERT_EQ(Diff::integrate(older, newer), want) << "trial " << trial;
  }
  // Diffs as the protocols make them: word-granular twin comparisons.
  for (double density : {0.01, 0.1, 0.5, 0.9}) {
    for (int trial = 0; trial < 50; ++trial) {
      Bytes base = randomPage(rng);
      Bytes v1 = base;
      mutatePage(rng, v1, density);
      Bytes v2 = v1;
      mutatePage(rng, v2, density);
      const Diff d1 = Diff::create(2, v1, base);
      const Diff d2 = Diff::create(2, v2, v1);
      ASSERT_EQ(Diff::integrate(d1, d2), overlayIntegrate(d1, d2));
      ASSERT_EQ(Diff::integrate(d2, d1), overlayIntegrate(d2, d1));
    }
  }
}

// DiffView reads Diff::serialize's encoding in place. Reading and applying
// it must do exactly what deserializing into a Diff and applying that does:
// same page, run count and wire size, same page bytes afterwards.
void expectViewMatchesDeserialized(const Diff& d, sim::Rng& rng) {
  Writer w;
  d.serialize(w);
  const Bytes encoded = w.take();
  Reader owned_reader(encoded);
  const Diff owned = Diff::deserialize(owned_reader);
  Reader view_reader(encoded);
  const mem::DiffView view = mem::DiffView::read(view_reader);
  ASSERT_TRUE(view_reader.done());
  ASSERT_EQ(view.page(), owned.page());
  ASSERT_EQ(view.runCount(), owned.runs().size());
  ASSERT_EQ(view.wireSize(), owned.wireSize());
  const Bytes base = randomPage(rng);
  Bytes via_owned = base;
  owned.apply(via_owned);
  Bytes via_view = base;
  view.apply(via_view);
  ASSERT_EQ(via_view, via_owned);
}

TEST(DiffView, ApplyMatchesDeserializedDiff) {
  sim::Rng rng(4242);
  for (int trial = 0; trial < 3000; ++trial) {
    const uint64_t gap = uint64_t{1} << rng.below(12);
    const Diff d = rng.below(10) == 0 ? Diff(9) : randomRunDiff(rng, gap);
    SCOPED_TRACE(trial);
    expectViewMatchesDeserialized(d, rng);
  }
  // Diffs as the protocols make them: word-granular twin comparisons.
  for (double density : {0.01, 0.1, 0.5, 0.9}) {
    for (int trial = 0; trial < 50; ++trial) {
      const Bytes twin = randomPage(rng);
      Bytes cur = twin;
      mutatePage(rng, cur, density);
      SCOPED_TRACE(density);
      expectViewMatchesDeserialized(Diff::create(4, cur, twin), rng);
    }
  }
}

TEST(DiffView, RejectsCorruptEncoding) {
  Diff d(5);
  d.addRun(8, Bytes(16, std::byte{1}));
  d.addRun(64, Bytes(4, std::byte{2}));
  Writer w;
  d.serialize(w);
  const Bytes good = w.take();
  // Layout: page u32, run count u32, then (offset u16, length u16) per run.
  constexpr size_t kFirstLength = 10;
  constexpr size_t kSecondOffset = 12;
  Bytes bad_total = good;
  bad_total[kFirstLength] = std::byte{17};  // runs add up to 21, data is 20
  Reader r1(bad_total);
  EXPECT_THROW(mem::DiffView::read(r1), Error);
  Reader r2(bad_total);
  EXPECT_THROW(Diff::deserialize(r2), Error);  // the same check
  // Applying in place must never write past the page.
  Bytes past_page = good;
  const uint16_t off = kPageSize - 2;
  std::memcpy(past_page.data() + kSecondOffset, &off, 2);
  Reader r3(past_page);
  EXPECT_THROW(mem::DiffView::read(r3), Error);
  Reader r4(ByteSpan(good).first(good.size() - 1));
  EXPECT_THROW(mem::DiffView::read(r4), Error);  // short read
}

TEST(PageStore, TwinLifecycle) {
  mem::PageStore store(4 * kPageSize);
  EXPECT_EQ(store.pageCount(), 4u);
  store.range(0, 8)[0] = std::byte{9};
  store.makeTwin(0);
  EXPECT_TRUE(store.hasTwin(0));
  store.range(0, 8)[0] = std::byte{7};
  Diff d = store.diffAgainstTwin(0);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.runs()[0].offset, 0u);
  store.dropTwin(0);
  EXPECT_FALSE(store.hasTwin(0));
}

TEST(PageStore, SizeRoundsToPages) {
  mem::PageStore store(kPageSize + 1);
  EXPECT_EQ(store.pageCount(), 2u);
  EXPECT_EQ(store.sizeBytes(), 2 * kPageSize);
}

TEST(VClock, CoversAndMerge) {
  mem::VClock a(3), b(3);
  a[0] = 2;
  b[1] = 5;
  EXPECT_FALSE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  mem::VClock m = a;
  m.merge(b);
  EXPECT_TRUE(m.covers(a));
  EXPECT_TRUE(m.covers(b));
  EXPECT_EQ(m[0], 2u);
  EXPECT_EQ(m[1], 5u);
  EXPECT_TRUE(m.hasSeen(1, 5));
  EXPECT_FALSE(m.hasSeen(1, 6));
}

TEST(VClock, SerializationRoundTrip) {
  mem::VClock a(4);
  a[2] = 17;
  Writer w;
  a.serialize(w);
  Bytes enc = w.take();
  Reader r(enc);
  EXPECT_EQ(mem::VClock::deserialize(r), a);
}

TEST(ViewMap, ViewsArePageAlignedAndDisjoint) {
  dsm::ViewMap vm;
  dsm::ViewId a = vm.defineView(100);
  dsm::ViewId b = vm.defineView(5000);
  dsm::ViewId c = vm.defineView(1);
  EXPECT_EQ(vm.view(a).offset % kPageSize, 0u);
  EXPECT_EQ(vm.view(b).offset, kPageSize);      // a occupies one page
  EXPECT_EQ(vm.view(c).offset, 3 * kPageSize);  // b occupies two
  EXPECT_EQ(vm.viewOfPage(0), a);
  EXPECT_EQ(vm.viewOfPage(1), b);
  EXPECT_EQ(vm.viewOfPage(2), b);
  EXPECT_EQ(vm.viewOfPage(3), c);
  EXPECT_EQ(vm.viewOfPage(4), std::nullopt);
}

TEST(ViewMap, RawAllocationsPackAndShareNoViews) {
  dsm::ViewMap vm;
  size_t x = vm.allocRaw(12);
  size_t y = vm.allocRaw(4);
  EXPECT_EQ(y, x + 16);  // 8-aligned packing (false sharing by design)
  EXPECT_EQ(vm.viewOfPage(0), std::nullopt);
  dsm::ViewId v = vm.defineView(10);
  EXPECT_EQ(vm.view(v).offset % kPageSize, 0u);
}

TEST(ViewMap, HomesOverrideRoundRobin) {
  dsm::ViewMap vm;
  dsm::ViewId a = vm.defineView(8);       // default: id % nprocs
  dsm::ViewId b = vm.defineView(8, 3);    // pinned
  dsm::ViewId c = vm.defineView(8, 100);  // pinned, wraps
  EXPECT_EQ(vm.managerOf(a, 4), 0u);
  EXPECT_EQ(vm.managerOf(b, 4), 3u);
  EXPECT_EQ(vm.managerOf(c, 4), 0u);
}

TEST(ViewMap, ContainsRange) {
  dsm::ViewMap vm;
  dsm::ViewId v = vm.defineView(100);
  size_t off = vm.view(v).offset;
  EXPECT_TRUE(vm.viewContainsRange(v, off, 100));
  EXPECT_TRUE(vm.viewContainsRange(v, off + 50, 50));
  EXPECT_FALSE(vm.viewContainsRange(v, off + 50, 51));
}

TEST(BytesIO, WriterReaderRoundTrip) {
  Writer w;
  w.u8(7);
  w.u16(300);
  w.u32(70000);
  w.u64(1ull << 40);
  w.i64(-5);
  w.f64(3.25);
  Bytes inner{std::byte{1}, std::byte{2}};
  w.blob(inner);
  Bytes enc = w.take();
  Reader r(enc);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 300);
  EXPECT_EQ(r.u32(), 70000u);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_EQ(r.i64(), -5);
  EXPECT_EQ(r.f64(), 3.25);
  ByteSpan blob = r.blob();
  EXPECT_EQ(blob.size(), 2u);
  EXPECT_TRUE(r.done());
}

// Diff::serialize reserves room for itself before appending. Into an
// unsized Writer (a message that does not pre-size), that must still grow
// the buffer geometrically: N serializes cost O(log N) reallocations, not N.
TEST(BytesIO, ReserveMoreGrowsGeometrically) {
  sim::Rng rng(9);
  const Bytes twin = randomPage(rng);
  Bytes cur = twin;
  mutatePage(rng, cur, 0.01);
  const Diff d = Diff::create(1, cur, twin);
  constexpr int kSerializes = 4096;
  Writer w;
  size_t capacity = w.capacity();
  int changes = 0;
  for (int i = 0; i < kSerializes; ++i) {
    d.serialize(w);
    if (w.capacity() != capacity) {
      capacity = w.capacity();
      ++changes;
    }
  }
  EXPECT_EQ(w.size(), kSerializes * d.wireSize());
  EXPECT_LE(changes, 14);  // log2(4096) + 2
}

TEST(BytesIO, ShortReadThrows) {
  Bytes enc{std::byte{1}};
  Reader r(enc);
  EXPECT_THROW(r.u32(), Error);
}

}  // namespace
}  // namespace vodsm
