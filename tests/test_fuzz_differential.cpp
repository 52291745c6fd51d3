// Cross-module differential fuzzing.
//
// Each test runs randomized instances through *different* modules that
// must agree on mathematically identical questions — the strongest kind
// of check this library has, because the implementations share no code
// beyond the graph types.  Seeds are test parameters so ctest runs them
// in parallel and failures name the offending seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "ccp/ccp.hpp"
#include "ccp/host_satellite.hpp"
#include "core/bandwidth_baselines.hpp"
#include "core/bandwidth_min.hpp"
#include "core/bottleneck_min.hpp"
#include "core/chain_bottleneck.hpp"
#include "core/duals.hpp"
#include "core/proc_min.hpp"
#include "core/tree_bandwidth.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "svc/job.hpp"
#include "util/rng.hpp"

namespace tgp {
namespace {

class Fuzz : public testing::TestWithParam<std::uint64_t> {
 protected:
  util::Pcg32 rng_{GetParam(), 0xF022};
};

graph::Chain random_int_chain(util::Pcg32& rng, int max_n) {
  int n = static_cast<int>(rng.uniform_int(2, max_n));
  graph::Chain c;
  for (int i = 0; i < n; ++i)
    c.vertex_weight.push_back(static_cast<double>(rng.uniform_int(1, 20)));
  for (int i = 0; i + 1 < n; ++i)
    c.edge_weight.push_back(static_cast<double>(rng.uniform_int(1, 50)));
  return c;
}

TEST_P(Fuzz, ProcMinOnPathEqualsGreedyPackingBlockCount) {
  // Minimum #components of a path under bound K (Algorithm 2.2) must
  // equal the greedy packer's minimum block count (ccp machinery).
  for (int t = 0; t < 15; ++t) {
    graph::Chain c = random_int_chain(rng_, 60);
    double K = c.max_vertex_weight() +
               static_cast<double>(rng_.uniform_int(0, 60));
    auto pm = core::proc_min(graph::path_tree(c), K);
    // Greedy pack via the dual bound machinery: count blocks directly.
    graph::ChainPrefix prefix(c);
    int blocks = 1;
    int start = 0;
    for (int v = 0; v < c.n(); ++v) {
      if (prefix.window(start, v) > K) {
        ++blocks;
        start = v;
      }
    }
    EXPECT_EQ(pm.components, blocks)
        << "seed " << GetParam() << " trial " << t << " K=" << K;
  }
}

TEST_P(Fuzz, ChainDualAgreesWithBothCcpProbes) {
  for (int t = 0; t < 10; ++t) {
    graph::Chain c = random_int_chain(rng_, 80);
    int m = static_cast<int>(rng_.uniform_int(1, std::min(c.n(), 9)));
    double dual = core::min_bound_for_processors_chain(c, m).bound;
    EXPECT_DOUBLE_EQ(dual, ccp::ccp_probe(c, m).bottleneck);
    EXPECT_DOUBLE_EQ(dual, ccp::ccp_nicol_probe(c, m).bottleneck);
  }
}

TEST_P(Fuzz, AllBandwidthMinimizersAgreeThroughSerialization) {
  // Round-trip the chain through the text format mid-way: results must
  // be bit-identical before and after.
  for (int t = 0; t < 10; ++t) {
    graph::Chain c = random_int_chain(rng_, 50);
    double K = c.max_vertex_weight() +
               static_cast<double>(rng_.uniform_int(0, 80));
    auto before = core::bandwidth_min_temps(c, K);
    std::stringstream ss;
    graph::save_chain(ss, c);
    graph::Chain back = graph::load_chain(ss);
    auto after = core::bandwidth_min_temps(back, K);
    EXPECT_EQ(before.cut.edges, after.cut.edges);
    EXPECT_EQ(before.cut_weight, after.cut_weight);
    auto deque = core::bandwidth_min_dp_deque(back, K);
    EXPECT_DOUBLE_EQ(after.cut_weight, deque.cut_weight);
  }
}

TEST_P(Fuzz, ServedChainBandwidthIsTheDequeWitnessWithTheOptimalObjective) {
  // Tie-heavy integer chains (few distinct weights, so most instances
  // have several optimal cuts): the served cut is the deque DP's witness
  // on the canonical chain, bit for bit, and its objective equals TEMPS,
  // the Nicol stand-in and, where it fits, brute force — exactly, since
  // every weight and sum is a small integer.
  for (int t = 0; t < 20; ++t) {
    int n = static_cast<int>(rng_.uniform_int(2, 40));
    graph::Chain c;
    for (int i = 0; i < n; ++i)
      c.vertex_weight.push_back(static_cast<double>(rng_.uniform_int(1, 4)));
    for (int i = 0; i + 1 < n; ++i)
      c.edge_weight.push_back(static_cast<double>(rng_.uniform_int(1, 3)));
    double K = c.max_vertex_weight() +
               static_cast<double>(rng_.uniform_int(0, 8));
    svc::JobResult served = svc::execute_job(
        svc::JobSpec::for_chain(svc::Problem::kBandwidth, K, c));
    ASSERT_TRUE(served.ok);

    graph::CanonicalChain cc = graph::canonical_chain(c);
    std::vector<int> witness;
    for (int e : core::bandwidth_min_dp_deque(cc.chain, K).cut.edges)
      witness.push_back(cc.map_edge_back(e));
    std::sort(witness.begin(), witness.end());
    EXPECT_EQ(served.cut.edges, witness) << "seed " << GetParam() << " t " << t;

    EXPECT_EQ(served.objective, core::bandwidth_min_temps(c, K).cut_weight);
    EXPECT_EQ(served.objective, core::bandwidth_min_nicol(c, K).cut_weight);
    if (c.edge_count() <= 16) {
      EXPECT_EQ(served.objective, core::bandwidth_min_brute(c, K).cut_weight);
    }
  }
}

TEST_P(Fuzz, ChainBottleneckEqualsTreeBottleneckEqualsScan) {
  for (int t = 0; t < 10; ++t) {
    graph::Chain c = random_int_chain(rng_, 50);
    double K = c.max_vertex_weight() +
               static_cast<double>(rng_.uniform_int(0, 60));
    graph::Tree path = graph::path_tree(c);
    double fast = core::chain_bottleneck_min(c, K).threshold;
    EXPECT_DOUBLE_EQ(fast, core::bottleneck_min_bsearch(path, K).threshold);
    EXPECT_DOUBLE_EQ(fast, core::bottleneck_min_scan(path, K).threshold);
  }
}

TEST_P(Fuzz, TreePipelineInvariants) {
  for (int t = 0; t < 10; ++t) {
    int n = static_cast<int>(rng_.uniform_int(2, 40));
    graph::Tree tree = graph::random_tree(
        rng_, n, graph::WeightDist::uniform(1, 9),
        graph::WeightDist::uniform(1, 30));
    double K = tree.max_vertex_weight() +
               rng_.uniform_real(0.0, tree.total_vertex_weight() / 2);
    auto stage1 = core::bottleneck_min_bsearch(tree, K);
    auto piped = core::bottleneck_then_proc_min(tree, K);
    auto direct = core::proc_min(tree, K);
    // Pipeline: bottleneck preserved, feasible, at most stage-1 pieces.
    EXPECT_LE(graph::tree_cut_max_edge(tree, piped.cut),
              stage1.threshold + 1e-12);
    EXPECT_TRUE(graph::tree_cut_feasible(tree, piped.cut, K));
    EXPECT_LE(piped.components, stage1.cut.size() + 1);
    // proc_min alone can never need more components than the pipeline
    // (it optimizes components unconstrained by the bottleneck).
    EXPECT_LE(direct.components, piped.components);
  }
}

TEST_P(Fuzz, TreeBandwidthOrderingsHold) {
  for (int t = 0; t < 8; ++t) {
    int n = static_cast<int>(rng_.uniform_int(2, 12));
    graph::Tree tree = graph::random_tree(
        rng_, n, graph::WeightDist::uniform(1, 9),
        graph::WeightDist::uniform(1, 9));
    double K = tree.max_vertex_weight() +
               rng_.uniform_real(0.0, tree.total_vertex_weight());
    auto oracle = core::tree_bandwidth_oracle(tree, K);
    auto greedy = core::tree_bandwidth_greedy(tree, K);
    EXPECT_GE(greedy.cut_weight + 1e-9, oracle.cut_weight);
    // The bottleneck-threshold cut is feasible too, and the optimal
    // *weight* can never exceed cutting every edge <= threshold.
    auto bn = core::bottleneck_min_bsearch(tree, K);
    EXPECT_LE(oracle.cut_weight,
              graph::tree_cut_weight(tree, bn.cut) + 1e-9);
  }
}

TEST_P(Fuzz, HostSatelliteAgreesWithBruteAndBounds) {
  for (int t = 0; t < 8; ++t) {
    int n = static_cast<int>(rng_.uniform_int(2, 9));
    graph::Tree tree = graph::random_tree(
        rng_, n, graph::WeightDist::uniform(1, 9),
        graph::WeightDist::uniform(1, 9));
    int s = static_cast<int>(rng_.uniform_int(0, 3));
    auto fast = ccp::host_satellite_partition(tree, 0, s);
    auto brute = ccp::host_satellite_brute(tree, 0, s);
    EXPECT_NEAR(fast.bottleneck, brute.bottleneck, 1e-6)
        << "seed " << GetParam() << " n=" << n << " s=" << s;
    EXPECT_LE(fast.host_load, fast.bottleneck + 1e-9);
  }
}

TEST_P(Fuzz, MonotoneKAcrossFourObjectives) {
  graph::Chain c = random_int_chain(rng_, 80);
  graph::Tree path = graph::path_tree(c);
  double prev_bw = 1e300, prev_bn = 1e300;
  int prev_pc = c.n() + 1;
  for (double K = c.max_vertex_weight(); K <= c.total_vertex_weight();
       K *= 1.4) {
    double bw = core::bandwidth_min_temps(c, K).cut_weight;
    double bn = core::chain_bottleneck_min(c, K).threshold;
    int pc = core::proc_min(path, K).components;
    EXPECT_LE(bw, prev_bw + 1e-9);
    EXPECT_LE(bn, prev_bn + 1e-9);
    EXPECT_LE(pc, prev_pc);
    prev_bw = bw;
    prev_bn = bn;
    prev_pc = pc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                         13ull, 21ull, 34ull, 55ull, 89ull,
                                         144ull, 233ull),
                         [](const testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace tgp
