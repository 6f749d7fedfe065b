#include "msg/world.hpp"

#include <algorithm>

#include "dsm/msgs.hpp"  // for the kMsgData wire type id

namespace vodsm::msg {

Rank::Rank(World& world, int id) : world_(world), id_(id) {
  endpoint_ = std::make_unique<net::Endpoint>(
      world_.engine(), world_.network(), static_cast<net::NodeId>(id));
  endpoint_->setHandler([this](net::Delivery&& d, const net::ReplyToken&) {
    onDelivery(std::move(d));
  });
}

int Rank::size() const { return world_.nprocs(); }

void Rank::send(int dst, uint32_t tag, Bytes payload) {
  clock_.charge(world_.options().pack_per_kb *
                static_cast<sim::Time>(payload.size() / 1024 + 1));
  Writer w(payload.size() + 8);
  w.u32(tag);
  w.blob(payload);
  endpoint_->post(static_cast<net::NodeId>(dst), dsm::kMsgData, w.take(),
                  clock_.now());
}

void Rank::onDelivery(net::Delivery&& d) {
  VODSM_CHECK(d.type == dsm::kMsgData);
  Reader r(d.payload);
  const uint32_t tag = r.u32();
  ByteSpan body = r.blob();
  Mailbox& box = mail_[{static_cast<int>(d.src), tag}];
  Bytes data(body.begin(), body.end());
  if (box.waiter) {
    auto waiter = std::move(box.waiter);
    clock_.atLeast(d.arrive);
    waiter->fulfill(std::move(data));
  } else {
    box.messages.push_back(std::move(data));
  }
}

sim::Task<Bytes> Rank::recv(int src, uint32_t tag) {
  Mailbox& box = mail_[{src, tag}];
  if (!box.messages.empty()) {
    Bytes out = std::move(box.messages.front());
    box.messages.pop_front();
    clock_.charge(world_.options().pack_per_kb *
                  static_cast<sim::Time>(out.size() / 1024 + 1));
    co_return out;
  }
  VODSM_CHECK_MSG(!box.waiter, "two concurrent recv() on one (src, tag)");
  box.waiter = std::make_unique<sim::Waiter<Bytes>>();
  Bytes out = co_await *box.waiter;
  box.waiter.reset();
  clock_.charge(world_.options().pack_per_kb *
                static_cast<sim::Time>(out.size() / 1024 + 1));
  co_return out;
}

namespace {
constexpr uint32_t kBarrierTag = 0xffff0001;
constexpr uint32_t kBcastTag = 0xffff0002;
constexpr uint32_t kReduceTag = 0xffff0003;

Bytes packInt64(const std::vector<int64_t>& v) {
  Writer w(v.size() * 8);
  for (int64_t x : v) w.i64(x);
  return w.take();
}
void unpackInt64(ByteSpan b, std::vector<int64_t>& out) {
  Reader r(b);
  for (auto& x : out) x = r.i64();
}
}  // namespace

sim::Task<void> Rank::barrier() {
  if (id_ == 0) {
    for (int i = 1; i < size(); ++i) (void)co_await recv(i, kBarrierTag);
    for (int i = 1; i < size(); ++i) send(i, kBarrierTag, Bytes{});
  } else {
    send(0, kBarrierTag, Bytes{});
    (void)co_await recv(0, kBarrierTag);
  }
}

sim::Task<void> Rank::bcast(int root, Bytes& buf) {
  if (id_ == root) {
    for (int i = 0; i < size(); ++i)
      if (i != root) send(i, kBcastTag, buf);
  } else {
    buf = co_await recv(root, kBcastTag);
  }
}

sim::Task<void> Rank::reduce(int root, std::vector<int64_t>& inout) {
  if (id_ == root) {
    std::vector<int64_t> incoming(inout.size());
    for (int i = 0; i < size(); ++i) {
      if (i == root) continue;
      Bytes b = co_await recv(i, kReduceTag);
      unpackInt64(b, incoming);
      for (size_t k = 0; k < inout.size(); ++k) inout[k] += incoming[k];
      chargeOps(inout.size(), 5);
    }
  } else {
    send(root, kReduceTag, packInt64(inout));
  }
}

sim::Task<void> Rank::allreduce(std::vector<int64_t>& inout) {
  co_await reduce(0, inout);
  Bytes buf = id_ == 0 ? packInt64(inout) : Bytes{};
  co_await bcast(0, buf);
  if (id_ != 0) unpackInt64(buf, inout);
}

void World::run(const Program& program) {
  VODSM_CHECK_MSG(network_ == nullptr, "World::run called twice");
  // One engine lane (stamp counter) per rank, as in vopp::Cluster.
  engine_.configureLanes(opts_.nprocs);
  network_ =
      std::make_unique<net::Network>(engine_, opts_.nprocs, opts_.net,
                                     opts_.seed);
  if (opts_.faults && !opts_.faults->empty()) {
    faults_ = std::make_unique<net::FaultInjector>(*opts_.faults, opts_.seed,
                                                   opts_.nprocs);
    network_->setFaults(faults_.get());
  }
  ranks_.reserve(static_cast<size_t>(opts_.nprocs));
  for (int i = 0; i < opts_.nprocs; ++i) {
    ranks_.push_back(std::make_unique<Rank>(*this, i));
    if (faults_)
      ranks_.back()->clock_.setScaler(
          faults_->chargeScalerFor(static_cast<net::NodeId>(i)));
  }

  // Per-rank completion slots; folds happen after the engine drains.
  std::vector<unsigned char> finished(static_cast<size_t>(opts_.nprocs), 0);
  std::vector<std::exception_ptr> errors(static_cast<size_t>(opts_.nprocs));
  std::vector<sim::Time> done_times(static_cast<size_t>(opts_.nprocs), 0);
  for (int i = 0; i < opts_.nprocs; ++i) {
    Rank& rank = *ranks_[static_cast<size_t>(i)];
    sim::Engine::LaneGuard lane(engine_, static_cast<net::NodeId>(i));
    sim::spawn(scope_, program(rank),
               [i, &rank, &finished, &errors,
                &done_times](std::exception_ptr e) {
                 finished[static_cast<size_t>(i)] = 1;
                 if (e) errors[static_cast<size_t>(i)] = e;
                 done_times[static_cast<size_t>(i)] = rank.now();
               });
  }
  engine_.run();
  for (int i = 0; i < opts_.nprocs; ++i)
    finish_time_ = std::max(finish_time_, done_times[static_cast<size_t>(i)]);
  for (int i = 0; i < opts_.nprocs; ++i)
    if (errors[static_cast<size_t>(i)])
      std::rethrow_exception(errors[static_cast<size_t>(i)]);
  for (int i = 0; i < opts_.nprocs; ++i)
    VODSM_CHECK_MSG(finished[static_cast<size_t>(i)],
                    "deadlock: rank " << i << " never finished");
}

}  // namespace vodsm::msg
