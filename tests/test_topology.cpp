// Topology layer and scalable-protocol regression tests.
//
// Three guarantees from the scaling work:
//  * the star fabric stays the default and is byte-identical whether it is
//    implied, named, or spelled out — the paper tables depend on it;
//  * tree and butterfly barriers (and the sharded/migrating view
//    directory) change timing, never results: every app's checksum still
//    matches its serial reference, and the protocol does the same number
//    of barriers;
//  * multi-switch runs replay bit-identically (the trunk FIFOs add
//    cross-lane event paths through the leaves' representative lanes).
#include <gtest/gtest.h>

#include <string>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "apps/nn.hpp"
#include "apps/sor.hpp"
#include "harness/run.hpp"

namespace vodsm {
namespace {

using harness::RunConfig;
using harness::RunResult;

void expectResultEq(const RunResult& a, const RunResult& b,
                    const std::string& what) {
  EXPECT_EQ(a.seconds, b.seconds) << what;  // doubles: bit-identical or bust
  EXPECT_EQ(a.dsm.barriers, b.dsm.barriers) << what;
  EXPECT_EQ(a.dsm.acquires, b.dsm.acquires) << what;
  EXPECT_EQ(a.dsm.page_faults, b.dsm.page_faults) << what;
  EXPECT_EQ(a.dsm.diffs_created, b.dsm.diffs_created) << what;
  EXPECT_EQ(a.dsm.barrier_wait_total, b.dsm.barrier_wait_total) << what;
  EXPECT_EQ(a.net.frames_sent, b.net.frames_sent) << what;
  EXPECT_EQ(a.net.frames_delivered, b.net.frames_delivered) << what;
  EXPECT_EQ(a.net.wire_bytes, b.net.wire_bytes) << what;
  EXPECT_EQ(a.net.messages, b.net.messages) << what;
  EXPECT_EQ(a.net.retransmissions, b.net.retransmissions) << what;
}

apps::IsParams smallIs() {
  apps::IsParams is;
  is.n_keys = 1 << 12;
  is.max_key = (1 << 8) - 1;
  is.iterations = 3;
  return is;
}

// --- topology spec grammar ----------------------------------------------

TEST(TopologySpec, ParsesKindsAndParameters) {
  net::TopologyConfig t;
  EXPECT_TRUE(net::parseTopologySpec("star", &t));
  EXPECT_EQ(t.kind, net::TopologyKind::kStar);

  EXPECT_TRUE(net::parseTopologySpec("fattree", &t));
  EXPECT_EQ(t.kind, net::TopologyKind::kFatTree);
  EXPECT_EQ(t.leaf_size, 16);

  EXPECT_TRUE(net::parseTopologySpec(
      "leafspine:leaf=8,spines=3,trunk-gbps=2.5,trunk-us=7", &t));
  EXPECT_EQ(t.kind, net::TopologyKind::kLeafSpine);
  EXPECT_EQ(t.leaf_size, 8);
  EXPECT_EQ(t.spines, 3);
  EXPECT_DOUBLE_EQ(t.trunk_bandwidth_bps, 2.5e9);
  EXPECT_EQ(t.trunk_latency, sim::usec(7));
}

TEST(TopologySpec, RejectsMalformedSpecs) {
  net::TopologyConfig t;
  for (const char* bad :
       {"", "ring", "fattree:leaf=0", "fattree:leaf=-4", "fattree:leaf=",
        "leafspine:spines=x", "fattree:trunk-gbps=0", "fattree:unknown=1"}) {
    EXPECT_FALSE(net::parseTopologySpec(bad, &t)) << "spec '" << bad << "'";
  }
}

// --- star byte-identity --------------------------------------------------

TEST(Topology, DefaultAndExplicitStarAreByteIdentical) {
  const apps::IsParams is = smallIs();
  RunConfig implied;
  implied.protocol = dsm::Protocol::kVcSd;
  implied.nprocs = 8;

  RunConfig spelled = implied;
  ASSERT_TRUE(net::parseTopologySpec("star", &spelled.net.topology));

  expectResultEq(apps::runIs(implied, is, apps::IsVariant::kVopp).result,
                 apps::runIs(spelled, is, apps::IsVariant::kVopp).result,
                 "star implied vs spelled");
}

// --- barrier algorithm result-equivalence --------------------------------

// Every barrier algorithm must produce the same app answer (serial
// reference checksum) and the same barrier count; only timing and traffic
// may differ.
TEST(BarrierAlg, IsChecksumsMatchSerialUnderEveryAlgorithm) {
  const apps::IsParams is = smallIs();
  const auto ref = apps::isSerialRankSums(is, 8);
  for (auto alg : {dsm::BarrierAlg::kCentral, dsm::BarrierAlg::kTree,
                   dsm::BarrierAlg::kButterfly}) {
    for (auto [proto, variant] :
         {std::pair{dsm::Protocol::kLrcDiff, apps::IsVariant::kTraditional},
          std::pair{dsm::Protocol::kVcSd, apps::IsVariant::kVopp}}) {
      RunConfig c;
      c.protocol = proto;
      c.nprocs = 8;
      c.proto.barrier = alg;
      const auto run = apps::runIs(c, is, variant);
      EXPECT_EQ(run.rank_sums, ref)
          << "alg=" << static_cast<int>(alg)
          << " proto=" << static_cast<int>(proto);
    }
  }
}

TEST(BarrierAlg, GaussSorNnChecksumsMatchSerialUnderEveryAlgorithm) {
  apps::GaussParams gauss;
  gauss.n = 64;
  apps::SorParams sor;
  sor.rows = 64;
  sor.cols = 64;
  sor.iterations = 3;
  apps::NnParams nn;
  nn.samples = 64;
  nn.epochs = 3;

  const double gauss_ref = apps::gaussSerialChecksum(gauss);
  const double sor_ref = apps::sorSerialChecksum(sor);
  const double nn_ref = apps::nnSerialChecksum(nn, 8);

  for (auto alg : {dsm::BarrierAlg::kCentral, dsm::BarrierAlg::kTree,
                   dsm::BarrierAlg::kButterfly}) {
    RunConfig c;
    c.nprocs = 8;
    c.proto.barrier = alg;

    c.protocol = dsm::Protocol::kVcSd;
    EXPECT_EQ(apps::runGauss(c, gauss, apps::GaussVariant::kVopp).checksum,
              gauss_ref)
        << "gauss alg=" << static_cast<int>(alg);
    EXPECT_EQ(apps::runNn(c, nn, apps::NnVariant::kVopp).checksum, nn_ref)
        << "nn alg=" << static_cast<int>(alg);

    c.protocol = dsm::Protocol::kLrcDiff;
    EXPECT_EQ(
        apps::runSor(c, sor, apps::SorVariant::kTraditional).checksum,
        sor_ref)
        << "sor alg=" << static_cast<int>(alg);
  }
}

TEST(BarrierAlg, BarrierCountIsAlgorithmIndependent) {
  const apps::IsParams is = smallIs();
  RunConfig c;
  c.protocol = dsm::Protocol::kVcSd;
  c.nprocs = 8;
  const auto central = apps::runIs(c, is, apps::IsVariant::kVopp).result;
  for (auto alg : {dsm::BarrierAlg::kTree, dsm::BarrierAlg::kButterfly}) {
    c.proto.barrier = alg;
    const auto r = apps::runIs(c, is, apps::IsVariant::kVopp).result;
    EXPECT_EQ(r.dsm.barriers, central.dsm.barriers)
        << "alg=" << static_cast<int>(alg);
  }
}

// --- sharded / migrating view directory ----------------------------------

TEST(ViewHomes, IsChecksumsMatchSerialUnderEveryPolicy) {
  const apps::IsParams is = smallIs();
  const auto ref = apps::isSerialRankSums(is, 8);
  for (auto homes : {dsm::ViewHomes::kDefault, dsm::ViewHomes::kHashed,
                     dsm::ViewHomes::kMigrate}) {
    RunConfig c;
    c.protocol = dsm::Protocol::kVcSd;
    c.nprocs = 8;
    c.proto.view_homes = homes;
    EXPECT_EQ(apps::runIs(c, is, apps::IsVariant::kVopp).rank_sums, ref)
        << "homes=" << static_cast<int>(homes);
  }
}

// --- multi-switch determinism --------------------------------------------

// Multi-switch runs route frames through the leaves' representative lanes
// (trunk FIFOs); a repeated run must replay them bit-identically.
TEST(Topology, MultiSwitchRunsAreBitIdenticalAcrossRepeatedRuns) {
  const apps::IsParams is = smallIs();
  for (const char* spec : {"fattree:leaf=4", "leafspine:leaf=4,spines=2"}) {
    RunConfig base;
    base.protocol = dsm::Protocol::kVcSd;
    base.nprocs = 8;
    base.proto.barrier = dsm::BarrierAlg::kTree;
    base.proto.view_homes = dsm::ViewHomes::kHashed;
    ASSERT_TRUE(net::parseTopologySpec(spec, &base.net.topology));
    const auto ref = apps::runIs(base, is, apps::IsVariant::kVopp).result;
    expectResultEq(ref, apps::runIs(base, is, apps::IsVariant::kVopp).result,
                   std::string(spec) + " (repeat)");
  }
}

// Cross-leaf traffic really takes the trunks: a fat tree with every node on
// one leaf is wire-identical to the star, and splitting nodes across leaves
// must route frames over trunk links (visible in the trunk counters).
TEST(Topology, CrossLeafTrafficUsesTrunks) {
  const apps::IsParams is = smallIs();
  RunConfig one_leaf;
  one_leaf.protocol = dsm::Protocol::kVcSd;
  one_leaf.nprocs = 8;
  ASSERT_TRUE(net::parseTopologySpec("fattree:leaf=8",
                                     &one_leaf.net.topology));

  RunConfig star;
  star.protocol = dsm::Protocol::kVcSd;
  star.nprocs = 8;

  expectResultEq(apps::runIs(star, is, apps::IsVariant::kVopp).result,
                 apps::runIs(one_leaf, is, apps::IsVariant::kVopp).result,
                 "single-leaf fat tree vs star");

  RunConfig split = star;
  ASSERT_TRUE(net::parseTopologySpec("fattree:leaf=4", &split.net.topology));
  const auto split_run = apps::runIs(split, is, apps::IsVariant::kVopp);
  EXPECT_EQ(split_run.rank_sums, apps::isSerialRankSums(is, 8));
  // Cross-leaf serialization slows the run relative to the one-big-switch
  // star; equality would mean the trunks were bypassed.
  EXPECT_GT(split_run.result.seconds,
            apps::runIs(star, is, apps::IsVariant::kVopp).result.seconds);
}

}  // namespace
}  // namespace vodsm
