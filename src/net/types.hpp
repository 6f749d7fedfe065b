// Shared identifiers and configuration for the simulated cluster network.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace vodsm::net {

using NodeId = uint32_t;

// Message kinds on the wire. Shared between the transport (which sets them
// on each frame) and the network model (which reads them to attribute
// drops).
enum class FrameKind : uint8_t {
  kData = 0,
  kRequest = 1,
  kReply = 2,
  kAck = 3
};

// Fabric shape. kStar is the paper's testbed (one switch, every node one
// hop away) and the default; the multi-switch kinds group nodes onto leaf
// (edge) switches joined by spine switches through trunk links that have
// their own FIFO serialization, latency, and contention. The two
// multi-switch kinds differ only in the derived spine count: a fat tree
// provisions full bisection (one spine path per leaf), a leaf-spine fabric
// oversubscribes 2:1.
enum class TopologyKind : uint8_t {
  kStar = 0,
  kFatTree = 1,
  kLeafSpine = 2,
};

inline const char* topologyKindName(TopologyKind k) {
  switch (k) {
    case TopologyKind::kStar:
      return "star";
    case TopologyKind::kFatTree:
      return "fattree";
    case TopologyKind::kLeafSpine:
      return "leafspine";
  }
  return "?";
}

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kStar;
  // Nodes per leaf switch (ignored for kStar).
  int leaf_size = 16;
  // Spine switch count; 0 derives it from the leaf count per the kind.
  int spines = 0;
  // Trunk links are an order faster than edge links, as in real fabrics.
  double trunk_bandwidth_bps = 1e9;
  // One-way trunk wire + spine cut-through latency per trunk hop.
  sim::Time trunk_latency = sim::usec(5);
};

// Models the paper's testbed: a 100 Mbps N-way switched Ethernet connecting
// Linux PCs, with UDP-style user-level reliability. Every parameter is
// explicit so experiments can ablate them.
struct NetConfig {
  // Per-link, full-duplex bandwidth in bits/second.
  double bandwidth_bps = 100e6;
  // One-way wire + switch cut-through latency.
  sim::Time wire_latency = sim::usec(30);
  // Software cost to push one datagram through the sending stack:
  // fixed syscall/interrupt part plus a copy cost per KB.
  sim::Time send_base = sim::usec(15);
  sim::Time send_per_kb = sim::usec(8);
  // Software cost to pull one datagram out of the receiving stack (same
  // shape). This is also the NIC rx queue's service time, so fan-in bursts
  // faster than the service rate overflow the queue and drop frames.
  sim::Time recv_base = sim::usec(15);
  sim::Time recv_per_kb = sim::usec(8);

  sim::Time sendOverhead(size_t payload) const {
    return send_base +
           send_per_kb * static_cast<sim::Time>(payload / 1024 + 1);
  }
  sim::Time recvOverhead(size_t payload) const {
    return recv_base +
           recv_per_kb * static_cast<sim::Time>(payload / 1024 + 1);
  }
  // Ethernet + IP + UDP header bytes charged per wire fragment.
  size_t header_bytes = 42;
  // Maximum payload bytes per wire fragment (Ethernet MTU minus headers).
  size_t mtu_payload = 1458;
  // NIC receive queue capacity in frames; arrivals beyond this are dropped
  // (tail drop), which is what turns barrier fan-in bursts into the paper's
  // "Rexmit" retransmissions.
  int rx_queue_frames = 256;
  // Uniform random frame loss probability (cable-level noise).
  double random_loss = 0.0;
  // Retransmission timeout for the reliable transport. The paper observes
  // that one retransmission costs about one second of waiting.
  sim::Time rto = sim::sec(1);

  // Fabric shape; kStar reproduces the pre-topology network byte-for-byte.
  TopologyConfig topology;

  // Wire bytes for a message of `payload` logical bytes (fragment headers
  // included).
  size_t wireBytes(size_t payload) const {
    size_t frags = payload == 0 ? 1 : (payload + mtu_payload - 1) / mtu_payload;
    return payload + frags * header_bytes;
  }

  // Serialization time of `payload` logical bytes onto one link.
  sim::Time txTime(size_t payload) const {
    double bits = static_cast<double>(wireBytes(payload)) * 8.0;
    return static_cast<sim::Time>(bits / bandwidth_bps * sim::kSecond);
  }

  bool multiSwitch() const { return topology.kind != TopologyKind::kStar; }

  // Serialization time of `payload` logical bytes onto one trunk link.
  sim::Time trunkTxTime(size_t payload) const {
    double bits = static_cast<double>(wireBytes(payload)) * 8.0;
    return static_cast<sim::Time>(bits / topology.trunk_bandwidth_bps *
                                  sim::kSecond);
  }

};

// Parses a CLI topology spec: `star`, `fattree` or `leafspine`, optionally
// followed by `:key=value,...` pairs (leaf, spines, trunk-gbps, trunk-us).
// Returns false (leaving *out* unspecified) on an unknown kind, unknown
// key, or malformed number — callers print usage and exit 2.
inline bool parseTopologySpec(const std::string& spec, TopologyConfig* out) {
  TopologyConfig cfg;
  const size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (kind == "star") {
    cfg.kind = TopologyKind::kStar;
  } else if (kind == "fattree") {
    cfg.kind = TopologyKind::kFatTree;
  } else if (kind == "leafspine") {
    cfg.kind = TopologyKind::kLeafSpine;
  } else {
    return false;
  }
  std::string rest = colon == std::string::npos ? "" : spec.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string pair = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = pair.substr(0, eq);
    const std::string val = pair.substr(eq + 1);
    try {
      size_t used = 0;
      if (key == "leaf") {
        cfg.leaf_size = std::stoi(val, &used);
        if (cfg.leaf_size <= 0) return false;
      } else if (key == "spines") {
        cfg.spines = std::stoi(val, &used);
        if (cfg.spines < 0) return false;
      } else if (key == "trunk-gbps") {
        cfg.trunk_bandwidth_bps = std::stod(val, &used) * 1e9;
        if (cfg.trunk_bandwidth_bps <= 0) return false;
      } else if (key == "trunk-us") {
        cfg.trunk_latency = sim::usec(std::stoi(val, &used));
        if (cfg.trunk_latency < 0) return false;
      } else {
        return false;
      }
      if (used != val.size() || val.empty()) return false;
    } catch (...) {
      return false;
    }
  }
  *out = cfg;
  return true;
}

}  // namespace vodsm::net
