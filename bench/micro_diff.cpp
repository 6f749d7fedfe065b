// Microbenchmark: host-side cost of the diff machinery (create, apply,
// integrate) as a function of page dirtiness. These are the operations the
// cost model charges for; this bench grounds the constants.
#include <benchmark/benchmark.h>

#include "mem/diff.hpp"
#include "sim/rng.hpp"

namespace {

using vodsm::Bytes;
using vodsm::mem::Diff;
using vodsm::mem::kPageSize;

Bytes makePage(uint64_t seed) {
  vodsm::sim::Rng rng(seed);
  Bytes page(kPageSize);
  for (auto& b : page) b = static_cast<std::byte>(rng.below(256));
  return page;
}

Bytes mutate(const Bytes& base, double density, uint64_t seed) {
  vodsm::sim::Rng rng(seed);
  Bytes out = base;
  for (size_t w = 0; w + 4 <= out.size(); w += 4)
    if (rng.uniform() < density)
      out[w] = static_cast<std::byte>(rng.below(256));
  return out;
}

// Reference implementation of the pre-optimization 4-byte-word memcmp scan
// (the original Diff::create), kept here so the 64-bit-word production path
// can be compared against it — and checked equivalent — on every pattern.
Diff diffCreateWordScan(const Bytes& current, const Bytes& twin) {
  constexpr size_t kWord = 4;
  Diff d(0);
  size_t i = 0;
  while (i < kPageSize) {
    if (std::memcmp(current.data() + i, twin.data() + i, kWord) == 0) {
      i += kWord;
      continue;
    }
    size_t start = i;
    while (i < kPageSize &&
           std::memcmp(current.data() + i, twin.data() + i, kWord) != 0)
      i += kWord;
    d.addRun(static_cast<uint16_t>(start),
             vodsm::ByteSpan(current).subspan(start, i - start));
  }
  return d;
}

// Change patterns the protocols actually produce: empty (clean page at
// release), sparse scattered words, a dense page, and one contiguous run
// (the common "block rewrite" shape).
struct Pattern {
  const char* name;
  Bytes cur;
  Bytes twin;
};

Pattern makePattern(int which) {
  Bytes twin = makePage(1);
  switch (which) {
    case 0: return {"empty", twin, twin};
    case 1: return {"sparse1pct", mutate(twin, 0.01, 2), twin};
    case 2: return {"sparse10pct", mutate(twin, 0.10, 2), twin};
    case 3: return {"dense", mutate(twin, 1.0, 2), twin};
    default: {
      Bytes cur = twin;
      for (size_t i = kPageSize / 4; i < kPageSize / 2; ++i)
        cur[i] = static_cast<std::byte>(~std::to_integer<unsigned>(cur[i]));
      return {"one_block", cur, twin};
    }
  }
}

// Old vs new scan, throughput in bytes/s of page scanned (SetBytesProcessed
// prints it as MB/s or GB/s).
void BM_DiffCreateWordScan(benchmark::State& state) {
  Pattern p = makePattern(static_cast<int>(state.range(0)));
  state.SetLabel(p.name);
  for (auto _ : state) {
    Diff d = diffCreateWordScan(p.cur, p.twin);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_DiffCreateWordScan)->DenseRange(0, 4);

void BM_DiffCreate64BitScan(benchmark::State& state) {
  Pattern p = makePattern(static_cast<int>(state.range(0)));
  state.SetLabel(p.name);
  // The optimization must not change results: same runs, same bytes.
  if (!(Diff::create(0, p.cur, p.twin) == diffCreateWordScan(p.cur, p.twin))) {
    state.SkipWithError("64-bit scan diverges from word-scan reference");
    return;
  }
  for (auto _ : state) {
    Diff d = Diff::create(0, p.cur, p.twin);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_DiffCreate64BitScan)->DenseRange(0, 4);

void BM_DiffCreate(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Bytes twin = makePage(1);
  Bytes cur = mutate(twin, density, 2);
  for (auto _ : state) {
    Diff d = Diff::create(0, cur, twin);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DiffCreate)->Arg(0)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

void BM_DiffApply(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Bytes twin = makePage(1);
  Bytes cur = mutate(twin, density, 2);
  Diff d = Diff::create(0, cur, twin);
  Bytes target = twin;
  for (auto _ : state) {
    d.apply(target);
    benchmark::DoNotOptimize(target.data());
  }
  state.counters["wire_bytes"] = static_cast<double>(d.wireSize());
}
BENCHMARK(BM_DiffApply)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

// A fetched diff as a receiver handles it. BM_DiffDeserializeApply copies
// the serialized diff into an owned Diff first, as fault handlers did;
// BM_DiffViewApply reads and applies it in place.
void BM_DiffDeserializeApply(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Bytes twin = makePage(1);
  vodsm::Writer w;
  Diff::create(0, mutate(twin, density, 2), twin).serialize(w);
  const Bytes wire = w.take();
  Bytes target = twin;
  for (auto _ : state) {
    vodsm::Reader r(wire);
    Diff::deserialize(r).apply(target);
    benchmark::DoNotOptimize(target.data());
  }
  state.counters["wire_bytes"] = static_cast<double>(wire.size());
}
BENCHMARK(BM_DiffDeserializeApply)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

void BM_DiffViewApply(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Bytes twin = makePage(1);
  vodsm::Writer w;
  Diff::create(0, mutate(twin, density, 2), twin).serialize(w);
  const Bytes wire = w.take();
  Bytes target = twin;
  for (auto _ : state) {
    vodsm::Reader r(wire);
    vodsm::mem::DiffView::read(r).apply(target);
    benchmark::DoNotOptimize(target.data());
  }
  state.counters["wire_bytes"] = static_cast<double>(wire.size());
}
BENCHMARK(BM_DiffViewApply)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

void BM_DiffIntegrate(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Bytes base = makePage(1);
  Bytes v1 = mutate(base, density, 2);
  Bytes v2 = mutate(v1, density, 3);
  Diff d1 = Diff::create(0, v1, base);
  Diff d2 = Diff::create(0, v2, v1);
  for (auto _ : state) {
    Diff merged = Diff::integrate(d1, d2);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_DiffIntegrate)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

// Integration saves wire bytes versus shipping the chain: report the ratio.
void BM_IntegrationCompression(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  Bytes base = makePage(1);
  std::vector<Diff> diffs;
  Bytes prev = base;
  for (int i = 0; i < chain; ++i) {
    Bytes next = mutate(prev, 0.3, static_cast<uint64_t>(i + 2));
    diffs.push_back(Diff::create(0, next, prev));
    prev = next;
  }
  size_t chain_bytes = 0;
  for (const Diff& d : diffs) chain_bytes += d.wireSize();
  Diff merged = diffs[0];
  for (auto _ : state) {
    merged = diffs[0];
    for (int i = 1; i < chain; ++i)
      merged = Diff::integrate(merged, diffs[static_cast<size_t>(i)]);
    benchmark::DoNotOptimize(merged);
  }
  state.counters["chain_bytes"] = static_cast<double>(chain_bytes);
  state.counters["integrated_bytes"] = static_cast<double>(merged.wireSize());
  state.counters["compression"] =
      static_cast<double>(chain_bytes) / static_cast<double>(merged.wireSize());
}
BENCHMARK(BM_IntegrationCompression)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
