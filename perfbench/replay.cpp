#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "mem/diff.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "support/check.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using namespace vodsm;

double nsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Draws values in proportion to a histogram's counts.
class Sampler {
 public:
  explicit Sampler(const std::map<uint64_t, uint64_t>& hist) {
    for (const auto& [value, count] : hist) {
      total_ += count;
      values_.push_back(value);
      cumulative_.push_back(total_);
    }
  }
  bool empty() const { return total_ == 0; }
  uint64_t draw(sim::Rng& rng) const {
    const uint64_t r = rng.below(total_);
    const size_t i = static_cast<size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), r) -
        cumulative_.begin());
    return values_[i];
  }

 private:
  uint64_t total_ = 0;
  std::vector<uint64_t> values_;
  std::vector<uint64_t> cumulative_;
};

class EngineChains {
 public:
  EngineChains(sim::Engine& e, int chains, uint64_t events, uint64_t seed)
      : e_(e), left_(events), x_(seed | 1) {
    for (int c = 0; c < chains; ++c) e_.at(delay(), [this] { step(); });
  }

 private:
  void step() {
    if (left_ == 0) return;
    --left_;
    e_.after(delay(), [this] { step(); });
  }
  sim::Time delay() {  // xorshift64: cheap next-event gaps of 1..1024 ns
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return static_cast<sim::Time>(1 + (x_ & 1023));
  }

  sim::Engine& e_;
  uint64_t left_;
  uint64_t x_;
};

}  // namespace

double replayEngine(int nodes, uint64_t events, uint64_t seed) {
  sim::Engine e;
  EngineChains chains(e, std::max(nodes, 1), events, seed);
  const auto t0 = Clock::now();
  const uint64_t ran = e.run();
  return nsSince(t0) / static_cast<double>(std::max<uint64_t>(ran, 1));
}

double replayNetwork(const LayerMix& mix, uint64_t messages,
                     double ns_per_event, uint64_t seed) {
  const Sampler sizes(mix.msg_bytes);
  if (sizes.empty() || messages == 0) return 0;
  const int n = std::max(mix.nodes, 2);
  sim::Rng rng(seed);
  sim::Engine e;
  net::Network network(e, n, net::NetConfig{}, seed);
  std::vector<std::unique_ptr<net::Endpoint>> eps;
  uint64_t delivered = 0;
  for (int i = 0; i < n; ++i) {
    eps.push_back(std::make_unique<net::Endpoint>(
        e, network, static_cast<net::NodeId>(i)));
    eps.back()->setHandler(
        [&delivered](net::Delivery&&, const net::ReplyToken&) {
          ++delivered;
        });
  }
  // Batches of posts from random senders to random receivers, spaced so no
  // receive queue overflows; the engine drains each batch before the next.
  constexpr uint64_t kBatch = 512;
  const sim::Time gap = sim::usec(20);
  uint64_t events = 0;
  const auto t0 = Clock::now();
  for (uint64_t sent = 0; sent < messages;) {
    const uint64_t batch = std::min(kBatch, messages - sent);
    const sim::Time base = e.now();
    for (uint64_t k = 0; k < batch; ++k) {
      const auto src = static_cast<net::NodeId>(rng.below(n));
      const auto dst = static_cast<net::NodeId>(
          (src + 1 + rng.below(static_cast<uint64_t>(n - 1))) % n);
      eps[src]->post(dst, 1, Bytes(sizes.draw(rng)),
                     base + gap * static_cast<sim::Time>(k));
    }
    events += e.run();
    sent += batch;
  }
  const double total_ns = nsSince(t0);
  VODSM_CHECK_MSG(delivered == messages, "network replay lost messages");
  return (total_ns - static_cast<double>(events) * ns_per_event) /
         static_cast<double>(messages);
}

DiffCost replayDiffs(const LayerMix& mix, uint64_t pages, uint64_t seed) {
  const Sampler sizes(mix.diff_bytes);
  if (sizes.empty() || pages == 0) return {};
  sim::Rng rng(seed);
  Bytes twin(mem::kPageSize);
  for (auto& b : twin) b = static_cast<std::byte>(rng.below(256));
  // One (current, twin) pair per distinct size: a single changed run whose
  // data bytes match the diff's wire size (12-byte header, 4-byte run
  // entry), word aligned like the protocols' diffs.
  std::map<uint64_t, Bytes> current;
  for (const auto& entry : mix.diff_bytes) {
    const uint64_t wire = entry.first;
    const size_t data =
        std::min<size_t>(wire > 16 ? (wire - 16 + 3) / 4 * 4 : 0,
                         mem::kPageSize);
    Bytes cur = twin;
    const size_t off = rng.below((mem::kPageSize - data) / 4 + 1) * 4;
    for (size_t i = off; i < off + data; ++i)
      cur[i] = static_cast<std::byte>(~std::to_integer<unsigned>(cur[i]));
    current.emplace(wire, std::move(cur));
  }
  mem::Diff::Scratch scratch;
  Bytes target = twin;
  constexpr uint64_t kChunk = 4096;
  std::vector<const Bytes*> picks;
  std::vector<mem::Diff> diffs;
  double create_ns = 0;
  double apply_ns = 0;
  for (uint64_t done = 0; done < pages;) {
    const uint64_t chunk = std::min(kChunk, pages - done);
    picks.clear();
    for (uint64_t k = 0; k < chunk; ++k)
      picks.push_back(&current.at(sizes.draw(rng)));
    diffs.clear();
    diffs.reserve(chunk);
    auto t0 = Clock::now();
    for (const Bytes* cur : picks)
      diffs.push_back(mem::Diff::create(0, *cur, twin, scratch));
    create_ns += nsSince(t0);
    t0 = Clock::now();
    for (const mem::Diff& d : diffs) d.apply(target);
    apply_ns += nsSince(t0);
    done += chunk;
  }
  return {create_ns / static_cast<double>(pages),
          apply_ns / static_cast<double>(pages)};
}

}  // namespace perfbench
