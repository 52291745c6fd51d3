// Regression guards for the paper's complexity claims, stated over
// SolveCounters (deterministic counts) instead of wall time (noise).
//
// Algorithm 4.1's bound is O(n + p log q): the O(n) part is the prime
// enumeration + edge reduction, and the search part is at most
// r·ceil(log₂(q_max) + 1) binary probes over TEMP_S, with r ≤ 2p − 1.
// These tests pin the counter totals against that formula on generated
// chains across a size sweep, so an accidental reintroduction of an
// O(n log n) inner loop fails counts, not a flaky timing gate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/bandwidth_baselines.hpp"
#include "core/bandwidth_min.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "obs/counters.hpp"
#include "svc/job.hpp"
#include "util/rng.hpp"

namespace tgp {
namespace {

struct Measured {
  core::BandwidthInstrumentation instr;
  obs::SolveCounters counters;
};

Measured measure_chain(int n, unsigned seed, double slack) {
  util::Pcg32 rng(seed ^ static_cast<unsigned>(n));
  graph::Chain c = graph::random_chain(rng, n,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  double K = c.max_vertex_weight() +
             slack * (c.total_vertex_weight() - c.max_vertex_weight());
  Measured m;
  obs::CounterScope scope(&m.counters);
  (void)core::bandwidth_min_temps(c, K, &m.instr);
  return m;
}

TEST(ComplexityCounters, SearchProbesWithinPLogQBound) {
  // Tight K (small slack) maximizes p; the probe total must respect
  // r·(log₂(q_max) + 1) at every size.
  for (int n : {1 << 10, 1 << 12, 1 << 14, 1 << 16}) {
    Measured m = measure_chain(n, 0xA11CE, 0.002);
    ASSERT_GT(m.instr.p, 0) << "n=" << n;
    const double per_edge_bound =
        std::log2(static_cast<double>(std::max(m.instr.q_max, 2))) + 1.0;
    const double bound = static_cast<double>(m.instr.r) * per_edge_bound;
    EXPECT_LE(static_cast<double>(m.counters.bsearch_probes), bound)
        << "n=" << n << " p=" << m.instr.p << " q_max=" << m.instr.q_max;
    // Structure bounds from the paper: r ≤ min(2p−1, n−1), one oracle
    // call per reduced edge.
    EXPECT_LE(m.instr.r, std::min(2 * m.instr.p - 1, n - 1));
    EXPECT_EQ(m.counters.oracle_calls,
              static_cast<std::uint64_t>(m.instr.r));
  }
}

TEST(ComplexityCounters, TotalWorkScalesLinearlyInN) {
  // Doubling n (same weight distributions, tight K) must scale the total
  // counted work — oracle calls plus search probes — by roughly 2×, not
  // the ~2.2× an O(n log n) term would add at these sizes.  The counts
  // are exact, so a generous 2.6× ceiling is immune to noise while still
  // failing a log-factor regression compounded over the 64× sweep.
  std::uint64_t prev_work = 0;
  int prev_n = 0;
  for (int n : {1 << 10, 1 << 12, 1 << 14, 1 << 16}) {
    Measured m = measure_chain(n, 0xB0B, 0.002);
    std::uint64_t work = m.counters.oracle_calls + m.counters.bsearch_probes +
                         m.counters.prime_subpaths;
    ASSERT_GT(work, 0u);
    if (prev_work != 0) {
      const double growth = static_cast<double>(work) /
                            static_cast<double>(prev_work);
      const double size_ratio = static_cast<double>(n) /
                                static_cast<double>(prev_n);
      EXPECT_LE(growth, size_ratio * 1.3)
          << "n " << prev_n << " -> " << n << ": counted work grew "
          << growth << "x";
    }
    prev_work = work;
    prev_n = n;
  }
}

TEST(ComplexityCounters, LooseBoundCollapsesPrimesAndWork) {
  // With K near the total weight there are few (or no) prime subpaths:
  // the DP part of the work must collapse with p, leaving only the O(n)
  // scan.  Guards against doing search work proportional to n when p is
  // tiny.
  Measured tight = measure_chain(1 << 14, 7, 0.002);
  Measured loose = measure_chain(1 << 14, 7, 0.9);
  EXPECT_LT(loose.instr.p, tight.instr.p / 4 + 1);
  EXPECT_LE(loose.counters.bsearch_probes, tight.counters.bsearch_probes);
  if (loose.instr.p == 0) {
    EXPECT_EQ(loose.counters.bsearch_probes, 0u);
    EXPECT_EQ(loose.counters.oracle_calls, 0u);
  }
}

TEST(ComplexityCounters, CountersIdenticalAcrossRepeatRuns) {
  // The whole point of counting instead of timing: bit-equal repeats.
  Measured a = measure_chain(1 << 13, 99, 0.01);
  Measured b = measure_chain(1 << 13, 99, 0.01);
  EXPECT_TRUE(a.counters.algo_equal(b.counters));
  EXPECT_EQ(a.counters.arena_bytes_peak, b.counters.arena_bytes_peak)
      << "same fresh-arena runs should even match on scratch peak";
}

TEST(ComplexityCounters, ServicePathMatchesDirectSolve) {
  // The counters exported by the service must be the solver's own, not a
  // re-derivation: compare execute_job against a direct instrumented run.
  util::Pcg32 rng(4242);
  graph::Chain c = graph::random_chain(rng, 4096,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  double K = c.max_vertex_weight() +
             0.01 * (c.total_vertex_weight() - c.max_vertex_weight());

  // The service solves chain bandwidth-min with the monotone-deque DP in
  // canonical orientation (possibly the reversal of the submitted chain),
  // so the reference run must too.
  graph::CanonicalChain cc = graph::canonical_chain(c);
  obs::SolveCounters direct;
  {
    obs::CounterScope scope(&direct);
    (void)core::bandwidth_min_dp_deque(cc.chain, K);
  }
  EXPECT_EQ(direct.oracle_calls, static_cast<std::uint64_t>(c.n()));
  svc::JobResult r =
      svc::execute_job(svc::JobSpec::for_chain(svc::Problem::kBandwidth, K, c));
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.counters.algo_equal(direct));
}

}  // namespace
}  // namespace tgp
