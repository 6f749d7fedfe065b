#include "apps/gauss.hpp"

#include <algorithm>
#include <cstring>

#include "vopp/cluster.hpp"

namespace vodsm::apps {

namespace {

double cell(uint64_t seed, size_t i, size_t j, size_t n) {
  uint64_t z = seed ^ (i * 0x9e3779b97f4a7c15ULL + j * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  double v = 1.0 + static_cast<double>(z >> 11) * 0x1.0p-53;
  if (i == j) v += static_cast<double>(n);  // diagonal dominance
  return v;
}

size_t rowLo(size_t n, int nprocs, int pid) {
  return static_cast<size_t>(pid) * n / static_cast<size_t>(nprocs);
}
size_t rowHi(size_t n, int nprocs, int pid) {
  return static_cast<size_t>(pid + 1) * n / static_cast<size_t>(nprocs);
}

void eliminateRow(double* row, const double* pivot, size_t k, size_t n) {
  const double f = row[k] / pivot[k];
  for (size_t j = k; j < n; ++j) row[j] -= f * pivot[j];
}

}  // namespace

// The elimination loop's host time swings by about 40% with its position
// relative to 64-byte code boundaries, so unrelated code-size changes
// elsewhere in the binary would move it. Pinning the function's alignment
// keeps the reference's cost independent of the rest of the link.
__attribute__((aligned(64))) double gaussSerialChecksum(const GaussParams& p) {
  const size_t n = p.n;
  std::vector<double> a(n * n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) a[i * n + j] = cell(p.seed, i, j, n);
  for (size_t k = 0; k + 1 < n; ++k)
    for (size_t i = k + 1; i < n; ++i)
      eliminateRow(&a[i * n], &a[k * n], k, n);
  double sum = 0;
  for (double v : a) sum += v;
  return sum;
}

namespace {

struct GaussLayout {
  // VOPP
  std::vector<dsm::ViewId> block_views;  // one per processor
  dsm::ViewId pivot_views[2] = {0, 0};   // parity-alternating pivot rows
  dsm::ViewId result_view = 0;
  // traditional
  size_t matrix_off = 0;
  size_t result_off = 0;
};

sim::Task<void> gaussVopp(vopp::Node& node, const GaussParams& p,
                          const GaussLayout& lay) {
  const size_t n = p.n;
  const int P = node.nprocs();
  const int pid = node.id();
  const size_t lo = rowLo(n, P, pid), hi = rowHi(n, P, pid);
  const size_t mine = hi - lo;
  const size_t row_bytes = n * sizeof(double);

  // Processor 0 "reads the matrix in": it fills every block view.
  if (pid == 0) {
    for (int q = 0; q < P; ++q) {
      dsm::ViewId v = lay.block_views[static_cast<size_t>(q)];
      co_await node.acquireView(v);
      const size_t qlo = rowLo(n, P, q), qhi = rowHi(n, P, q);
      size_t off = node.cluster().viewOffset(v);
      co_await node.touchWrite(off, (qhi - qlo) * row_bytes);
      auto* m = reinterpret_cast<double*>(
          node.mem(off, (qhi - qlo) * row_bytes).data());
      for (size_t i = qlo; i < qhi; ++i)
        for (size_t j = 0; j < n; ++j)
          m[(i - qlo) * n + j] = cell(p.seed, i, j, n);
      node.chargeOps((qhi - qlo) * n, p.flop_ns);
      co_await node.releaseView(v);
    }
  }
  co_await node.barrier();

  // Copy own block into a local buffer (paper Section 3.1).
  std::vector<double> block(mine * n);
  {
    dsm::ViewId v = lay.block_views[static_cast<size_t>(pid)];
    co_await node.acquireView(v);
    co_await node.copyOut(
        node.cluster().viewOffset(v),
        MutByteSpan(reinterpret_cast<std::byte*>(block.data()),
                    block.size() * sizeof(double)));
    co_await node.releaseView(v);
  }
  co_await node.barrier();

  std::vector<double> pivot(n);
  int parity = 0;
  for (size_t k = 0; k + 1 < n; ++k) {
    const bool owner = k >= lo && k < hi;
    dsm::ViewId pv = lay.pivot_views[parity];
    if (owner) {
      co_await node.acquireView(pv);
      co_await node.copyIn(node.cluster().viewOffset(pv),
                           ByteSpan(reinterpret_cast<const std::byte*>(
                                        &block[(k - lo) * n]),
                                    row_bytes));
      co_await node.releaseView(pv);
    }
    co_await node.barrier();
    if (owner) {
      std::memcpy(pivot.data(), &block[(k - lo) * n], row_bytes);
    } else if (hi > k + 1) {  // only processors with rows below k need it
      co_await node.acquireRview(pv);
      co_await node.copyOut(node.cluster().viewOffset(pv),
                            MutByteSpan(reinterpret_cast<std::byte*>(
                                            pivot.data()),
                                        row_bytes));
      co_await node.releaseRview(pv);
    }
    // Eliminate my rows below k in the local buffer.
    const size_t first = std::max(lo, k + 1);
    for (size_t i = first; i < hi; ++i)
      eliminateRow(&block[(i - lo) * n], pivot.data(), k, n);
    if (hi > first) node.chargeOps((hi - first) * (n - k), p.flop_ns);
    parity ^= 1;
  }

  // Copy the block back and collect the checksum on processor 0.
  {
    dsm::ViewId v = lay.block_views[static_cast<size_t>(pid)];
    co_await node.acquireView(v);
    co_await node.copyIn(node.cluster().viewOffset(v),
                         ByteSpan(reinterpret_cast<const std::byte*>(
                                      block.data()),
                                  block.size() * sizeof(double)));
    co_await node.releaseView(v);
  }
  co_await node.barrier();
  if (pid == 0) {
    double sum = 0;
    for (int q = 0; q < P; ++q) {
      dsm::ViewId v = lay.block_views[static_cast<size_t>(q)];
      const size_t rows = rowHi(n, P, q) - rowLo(n, P, q);
      co_await node.acquireRview(v);
      size_t off = node.cluster().viewOffset(v);
      co_await node.touchRead(off, rows * row_bytes);
      auto* m = reinterpret_cast<const double*>(
          node.memView(off, rows * row_bytes).data());
      for (size_t i = 0; i < rows * n; ++i) sum += m[i];
      node.chargeOps(rows * n, p.flop_ns);
      co_await node.releaseRview(v);
    }
    co_await node.acquireView(lay.result_view);
    size_t roff = node.cluster().viewOffset(lay.result_view);
    co_await node.touchWrite(roff, 8);
    std::memcpy(node.mem(roff, 8).data(), &sum, 8);
    co_await node.releaseView(lay.result_view);
  }
  co_await node.barrier();
}

sim::Task<void> gaussTraditional(vopp::Node& node, const GaussParams& p,
                                 const GaussLayout& lay) {
  const size_t n = p.n;
  const int P = node.nprocs();
  const int pid = node.id();
  const size_t lo = rowLo(n, P, pid), hi = rowHi(n, P, pid);
  const size_t row_bytes = n * sizeof(double);
  auto rowOff = [&](size_t i) { return lay.matrix_off + i * row_bytes; };

  if (pid == 0) {
    co_await node.touchWrite(lay.matrix_off, n * row_bytes);
    auto* m = reinterpret_cast<double*>(
        node.mem(lay.matrix_off, n * row_bytes).data());
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) m[i * n + j] = cell(p.seed, i, j, n);
    node.chargeOps(n * n, p.flop_ns);
  }
  co_await node.barrier();

  for (size_t k = 0; k + 1 < n; ++k) {
    const size_t first = std::max(lo, k + 1);
    if (hi > first) {
      // Read the pivot row straight from shared memory (page faults fetch
      // the owner's diffs, dragging along falsely shared neighbours).
      co_await node.touchRead(rowOff(k), row_bytes);
      auto* pivot = reinterpret_cast<const double*>(
          node.memView(rowOff(k), row_bytes).data());
      co_await node.touchWrite(rowOff(first), (hi - first) * row_bytes);
      auto* rows = reinterpret_cast<double*>(
          node.mem(rowOff(first), (hi - first) * row_bytes).data());
      for (size_t i = first; i < hi; ++i)
        eliminateRow(&rows[(i - first) * n], pivot, k, n);
      node.chargeOps((hi - first) * (n - k), p.flop_ns);
    }
    co_await node.barrier();
  }

  if (pid == 0) {
    co_await node.touchRead(lay.matrix_off, n * row_bytes);
    auto* m = reinterpret_cast<const double*>(
        node.memView(lay.matrix_off, n * row_bytes).data());
    double sum = 0;
    for (size_t i = 0; i < n * n; ++i) sum += m[i];
    node.chargeOps(n * n, p.flop_ns);
    co_await node.touchWrite(lay.result_off, 8);
    std::memcpy(node.mem(lay.result_off, 8).data(), &sum, 8);
  }
  co_await node.barrier();
}

}  // namespace

GaussRun runGauss(const harness::RunConfig& config, const GaussParams& params,
                  GaussVariant variant) {
  VODSM_CHECK_MSG(variant != GaussVariant::kTraditional ||
                      config.protocol == dsm::Protocol::kLrcDiff,
                  "traditional Gauss runs on LRC_d only");
  vopp::Cluster cluster({.nprocs = config.nprocs,
                         .protocol = config.protocol,
                         .net = config.net,
                         .costs = config.costs,
                         .proto = config.proto,
                         .seed = config.seed,
                         .trace = config.trace,
                         .metrics = config.metrics,
                         .faults = config.faults});
  GaussLayout lay;
  const size_t n = params.n;
  const size_t row_bytes = n * sizeof(double);
  if (variant == GaussVariant::kVopp) {
    for (int q = 0; q < config.nprocs; ++q) {
      size_t rows = rowHi(n, config.nprocs, q) - rowLo(n, config.nprocs, q);
      lay.block_views.push_back(
          cluster.defineView(std::max<size_t>(rows, 1) * row_bytes));
    }
    lay.pivot_views[0] = cluster.defineView(row_bytes);
    lay.pivot_views[1] = cluster.defineView(row_bytes);
    lay.result_view = cluster.defineView(sizeof(double));
    lay.result_off = cluster.viewOffset(lay.result_view);
  } else {
    lay.matrix_off = cluster.allocShared(n * row_bytes);
    lay.result_off = cluster.allocShared(sizeof(double));
  }

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    return variant == GaussVariant::kVopp ? gaussVopp(node, params, lay)
                                          : gaussTraditional(node, params, lay);
  });

  GaussRun out;
  harness::collectResult(cluster, config, out.result);
  auto raw = cluster.memoryOf(0, lay.result_off, 8);
  std::memcpy(&out.checksum, raw.data(), 8);
  return out;
}

}  // namespace vodsm::apps
