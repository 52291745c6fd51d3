// Tests for the chains-on-chains partitioning baselines (§1 related work).
#include "ccp/ccp.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <ostream>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace tgp::ccp {
namespace {

graph::Chain make_chain(std::vector<double> vw) {
  graph::Chain c;
  c.vertex_weight = std::move(vw);
  c.edge_weight.assign(c.vertex_weight.size() - 1, 1.0);
  return c;
}

TEST(Ccp, SingleProcessorTakesWholeChain) {
  auto c = make_chain({1, 2, 3});
  for (auto* f : {ccp_dp, ccp_probe, ccp_hansen_lih, ccp_nicol_probe}) {
    auto r = f(c, 1);
    EXPECT_TRUE(r.cut_after.empty());
    EXPECT_DOUBLE_EQ(r.bottleneck, 6);
  }
}

TEST(Ccp, OneBlockPerVertexWhenMEqualsN) {
  auto c = make_chain({4, 7, 2, 5});
  for (auto* f : {ccp_dp, ccp_probe, ccp_hansen_lih, ccp_nicol_probe}) {
    auto r = f(c, 4);
    EXPECT_EQ(r.cut_after.size(), 3u);
    EXPECT_DOUBLE_EQ(r.bottleneck, 7);
  }
}

TEST(Ccp, ClassicTextbookInstance) {
  // {2,3,4,5,6} into 3 blocks: optimum 8 via {2,3} | {4} ... check: blocks
  // {2,3}|{4,5}... hmm: {2,3,4}=9, better {2,3}|{4,5}=9 — enumerate: the
  // optimal bottleneck is 9 with {2,3,4}|{5}|{6}? = 9/5/6 → 9;
  // {2,3}|{4,5}|{6} → 5/9/6 → 9; {2,3}|{4}|{5,6} → 5/4/11 → 11.  So 9.
  auto c = make_chain({2, 3, 4, 5, 6});
  for (auto* f : {ccp_dp, ccp_probe, ccp_hansen_lih, ccp_nicol_probe}) {
    EXPECT_DOUBLE_EQ(f(c, 3).bottleneck, 9);
  }
}

TEST(Ccp, BottleneckHelperValidatesPositions) {
  auto c = make_chain({1, 1, 1});
  EXPECT_THROW(ccp_bottleneck(c, {2}), std::invalid_argument);   // not interior
  EXPECT_THROW(ccp_bottleneck(c, {1, 1}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(ccp_bottleneck(c, {0}), 2);
}

TEST(Ccp, RejectsBadProcessorCounts) {
  auto c = make_chain({1, 2});
  EXPECT_THROW(ccp_dp(c, 0), std::invalid_argument);
  EXPECT_THROW(ccp_probe(c, 3), std::invalid_argument);
  EXPECT_THROW(ccp_hansen_lih(c, -1), std::invalid_argument);
}

struct CcpSweep {
  const char* name;
  int n;
  int m;
  graph::WeightDist dist;
  int trials;
};

// Without this, gtest prints the raw bytes of the struct, which include the
// address of `name`; the discovered ctest names would then change from run
// to run under address-space randomization.
void PrintTo(const CcpSweep& sc, std::ostream* os) {
  *os << sc.name << " n=" << sc.n << " m=" << sc.m << " trials=" << sc.trials;
}

class CcpAgreement : public testing::TestWithParam<CcpSweep> {};

TEST_P(CcpAgreement, AllThreeSolversAgree) {
  const CcpSweep& sc = GetParam();
  util::Pcg32 rng(0xBEEF ^ static_cast<std::uint64_t>(sc.n * 31 + sc.m));
  for (int t = 0; t < sc.trials; ++t) {
    graph::Chain c = graph::random_chain(rng, sc.n, sc.dist,
                                         graph::WeightDist::constant(1));
    auto dp = ccp_dp(c, sc.m);
    auto probe = ccp_probe(c, sc.m);
    auto hl = ccp_hansen_lih(c, sc.m);
    auto nicol = ccp_nicol_probe(c, sc.m);
    EXPECT_NEAR(dp.bottleneck, probe.bottleneck, 1e-9 * dp.bottleneck)
        << sc.name << " trial " << t;
    EXPECT_NEAR(dp.bottleneck, hl.bottleneck, 1e-9 * dp.bottleneck)
        << sc.name << " trial " << t;
    EXPECT_NEAR(dp.bottleneck, nicol.bottleneck, 1e-9 * dp.bottleneck)
        << sc.name << " trial " << t;
    // Splits must be exactly m blocks and achieve the reported bottleneck.
    EXPECT_EQ(probe.cut_after.size(), static_cast<std::size_t>(sc.m) - 1);
    EXPECT_DOUBLE_EQ(ccp_bottleneck(c, probe.cut_after), probe.bottleneck);
    EXPECT_DOUBLE_EQ(ccp_bottleneck(c, hl.cut_after), hl.bottleneck);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, CcpAgreement,
    testing::Values(
        CcpSweep{"small2", 12, 2, graph::WeightDist::uniform(1, 9), 30},
        CcpSweep{"small4", 12, 4, graph::WeightDist::uniform(1, 9), 30},
        CcpSweep{"mid8", 100, 8, graph::WeightDist::uniform(1, 20), 10},
        CcpSweep{"mid_heavy", 100, 5,
                 graph::WeightDist::bimodal(0.9, 1, 2, 50, 100), 10},
        CcpSweep{"wide16", 400, 16, graph::WeightDist::exponential(7), 5},
        CcpSweep{"m_equals_n", 20, 20, graph::WeightDist::uniform(1, 9), 10}),
    [](const testing::TestParamInfo<CcpSweep>& info) {
      return info.param.name;
    });

TEST(Ccp, BottleneckLowerBoundsHold) {
  util::Pcg32 rng(5);
  for (int t = 0; t < 20; ++t) {
    graph::Chain c =
        graph::random_chain(rng, 80, graph::WeightDist::uniform(1, 9),
                            graph::WeightDist::constant(1));
    int m = static_cast<int>(rng.uniform_int(1, 12));
    auto r = ccp_probe(c, m);
    EXPECT_GE(r.bottleneck + 1e-9, c.total_vertex_weight() / m);
    EXPECT_GE(r.bottleneck + 1e-9, c.max_vertex_weight());
  }
}

TEST(Ccp, MoreProcessorsNeverHurt) {
  util::Pcg32 rng(6);
  graph::Chain c = graph::random_chain(rng, 60,
                                       graph::WeightDist::uniform(1, 9),
                                       graph::WeightDist::constant(1));
  double prev = std::numeric_limits<double>::infinity();
  for (int m = 1; m <= 20; ++m) {
    double b = ccp_probe(c, m).bottleneck;
    EXPECT_LE(b, prev + 1e-9);
    prev = b;
  }
}

TEST(Ccp, AgreesWithExhaustiveSearchOnTinyInstances) {
  util::Pcg32 rng(7);
  for (int t = 0; t < 40; ++t) {
    int n = static_cast<int>(rng.uniform_int(2, 9));
    int m = static_cast<int>(rng.uniform_int(1, n));
    graph::Chain c = graph::random_chain(rng, n,
                                         graph::WeightDist::uniform(1, 9),
                                         graph::WeightDist::constant(1));
    // Exhaustive: all ways to choose m-1 cut positions among n-1.
    double best = std::numeric_limits<double>::infinity();
    std::vector<int> pos(static_cast<std::size_t>(m) - 1);
    std::function<void(int, int)> rec = [&](int idx, int start) {
      if (idx == m - 1) {
        std::vector<int> cuts(pos.begin(), pos.end());
        best = std::min(best, ccp_bottleneck(c, cuts));
        return;
      }
      for (int p = start; p <= n - 1 - (m - 1 - idx); ++p) {
        pos[static_cast<std::size_t>(idx)] = p;
        rec(idx + 1, p + 1);
      }
    };
    rec(0, 0);
    EXPECT_NEAR(ccp_dp(c, m).bottleneck, best, 1e-9) << "t=" << t;
    EXPECT_NEAR(ccp_probe(c, m).bottleneck, best, 1e-9) << "t=" << t;
    EXPECT_NEAR(ccp_nicol_probe(c, m).bottleneck, best, 1e-9) << "t=" << t;
  }
}

}  // namespace
}  // namespace tgp::ccp
