// MPI-like message-passing library on the simulated cluster network.
//
// This is the baseline substrate for the paper's NN-MPI comparison
// (Table 9): the same wire model as the DSM runtimes, but programs move data
// explicitly. Point-to-point send/recv matches on (source, tag); the
// collectives (barrier, bcast, reduce, allreduce) are linear rooted at rank
// 0, which is faithful to early-2000s MPICH over TCP/UDP on small clusters.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/faults.hpp"
#include "net/transport.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/waiter.hpp"

namespace vodsm::msg {

struct WorldOptions {
  int nprocs = 4;
  net::NetConfig net;
  uint64_t seed = 42;
  // Software cost to pack/unpack one KB of message payload.
  sim::Time pack_per_kb = sim::usec(8);
  // Caller-owned fault plan; null or empty means no injection (same
  // contract as vopp::ClusterOptions::faults).
  const net::FaultPlan* faults = nullptr;
};

class World;

// Per-rank environment handed to the program coroutine.
class Rank {
 public:
  Rank(World& world, int id);

  int id() const { return id_; }
  int size() const;
  sim::Time now() const { return clock_.now(); }
  void charge(sim::Time t) { clock_.charge(t); }
  void chargeOps(uint64_t ops, sim::Time per_op) {
    clock_.charge(static_cast<sim::Time>(ops) * per_op);
  }

  // Buffered, reliable, non-blocking send.
  void send(int dst, uint32_t tag, Bytes payload);
  // Blocking receive matching (src, tag).
  sim::Task<Bytes> recv(int src, uint32_t tag);

  // --- collectives (must be called by every rank) ---
  sim::Task<void> barrier();
  sim::Task<void> bcast(int root, Bytes& buf);
  // Element-wise int64 sum reduction to root (in place on root).
  sim::Task<void> reduce(int root, std::vector<int64_t>& inout);
  sim::Task<void> allreduce(std::vector<int64_t>& inout);

 private:
  friend class World;
  void onDelivery(net::Delivery&& d);

  struct Mailbox {
    std::deque<Bytes> messages;
    std::unique_ptr<sim::Waiter<Bytes>> waiter;
  };

  World& world_;
  int id_;
  sim::Clock clock_;
  std::unique_ptr<net::Endpoint> endpoint_;
  std::map<std::pair<int, uint32_t>, Mailbox> mail_;
};

class World {
 public:
  explicit World(WorldOptions opts) : opts_(std::move(opts)) {
    VODSM_CHECK(opts_.nprocs > 0);
  }

  using Program = std::function<sim::Task<void>(Rank&)>;
  void run(const Program& program);

  int nprocs() const { return opts_.nprocs; }
  const WorldOptions& options() const { return opts_; }
  sim::Engine& engine() { return engine_; }
  net::Network& network() { return *network_; }
  double seconds() const { return sim::toSeconds(finish_time_); }
  const net::NetStats& netStats() const { return network_->stats(); }

 private:
  friend class Rank;
  WorldOptions opts_;
  sim::Engine engine_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::FaultInjector> faults_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  sim::Time finish_time_ = 0;
  // Last member: rank frames abandoned by a deadlocked run must be reclaimed
  // before the engine/network/ranks they reference go away.
  sim::TaskScope scope_;
};

}  // namespace vodsm::msg
