// Differential proof that the CSR + arena port preserved solver behavior
// bit for bit.
//
// tests/reference_impl.hpp freezes the pre-port implementations; every
// test here generates a corpus (tree families x K regimes x seeds,
// chains including sorted extremes) and asserts the ported solver
// returns *identical* cut edges and objectives — not merely equivalent
// ones.  Exact double equality is intentional: the port's contract is
// same accumulation order, same comparisons, same results.
//
// Also covers the solvers' cancellation/deadline unwind paths with a
// caller-provided arena, and the zero-allocation steady-state guarantee
// via the Arena's heap_block_allocs() hook.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/bandwidth_baselines.hpp"
#include "core/bandwidth_min.hpp"
#include "core/bottleneck_min.hpp"
#include "core/chain_bottleneck.hpp"
#include "core/proc_min.hpp"
#include "core/prime_subpaths.hpp"
#include "core/tree_bandwidth.hpp"
#include "graph/generators.hpp"
#include "obs/counters.hpp"
#include "par/runtime.hpp"
#include "reference_impl.hpp"
#include "util/arena.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace tgp::core {
namespace {

constexpr double kKFrac[] = {0.01, 0.15, 0.9};

graph::Weight k_for(double maxw, double total, double frac) {
  return maxw + frac * (total - maxw);
}

std::vector<graph::Tree> tree_corpus() {
  std::vector<graph::Tree> out;
  for (int n : {1, 2, 3, 9, 40, 150, 400}) {
    for (unsigned seed : {1u, 2u, 3u}) {
      util::Pcg32 rng(0xD1FFu ^ (seed * 2654435761u) ^
                      static_cast<unsigned>(n));
      out.push_back(graph::random_tree(rng, n,
                                       graph::WeightDist::uniform(1, 50),
                                       graph::WeightDist::uniform(1, 100)));
    }
  }
  // A star and a path: the fanout extremes (subset-enumeration vs ratio
  // paths in tree_bandwidth, deep recursion shapes in rooting).
  {
    util::Pcg32 rng(0x57A2u);
    std::vector<graph::Weight> vw;
    std::vector<int> parent;
    std::vector<graph::Weight> pew;
    for (int v = 0; v < 64; ++v) {
      vw.push_back(static_cast<graph::Weight>(rng.uniform_int(1, 40)));
      parent.push_back(v == 0 ? -1 : 0);
      pew.push_back(static_cast<graph::Weight>(rng.uniform_int(1, 90)));
    }
    out.push_back(graph::Tree::from_parents(std::move(vw), parent, pew));
  }
  {
    util::Pcg32 rng(0x9A7Bu);
    std::vector<graph::Weight> vw;
    std::vector<int> parent;
    std::vector<graph::Weight> pew;
    for (int v = 0; v < 100; ++v) {
      vw.push_back(static_cast<graph::Weight>(rng.uniform_int(1, 40)));
      parent.push_back(v - 1);
      pew.push_back(static_cast<graph::Weight>(rng.uniform_int(1, 90)));
    }
    out.push_back(graph::Tree::from_parents(std::move(vw), parent, pew));
  }
  // Tie-heavy trees: constant or two-valued edge weights put whole runs of
  // edges at one δ, so the (δ, index) tie-break decides the cut; two-valued
  // integer vertex weights make component sums exact and collide often.
  const auto two_valued = [](double lo, double hi) {
    return graph::WeightDist::bimodal(0.5, lo, lo, hi, hi);
  };
  for (int n : {9, 60, 150, 400}) {
    for (unsigned seed : {1u, 2u}) {
      util::Pcg32 rng(0x71E5u ^ (seed * 2654435761u) ^
                      static_cast<unsigned>(n));
      out.push_back(graph::random_tree(rng, n, two_valued(1, 4),
                                       graph::WeightDist::constant(5)));
      out.push_back(graph::random_tree(
          rng, n, graph::WeightDist::uniform(1, 50), two_valued(2, 7)));
      out.push_back(
          graph::random_tree(rng, n, two_valued(3, 8), two_valued(1, 9)));
    }
  }
  return out;
}

/// Runs `body` once per team width 1, 2, 4 and 8, with that team active.
template <typename F>
void at_each_width(F&& body) {
  for (int width : {1, 2, 4, 8}) {
    SCOPED_TRACE(width);
    std::unique_ptr<par::Team> team;
    if (width > 1) team = std::make_unique<par::Team>(width);
    par::TeamScope scope(team.get());
    body();
  }
}

std::vector<graph::Chain> chain_corpus() {
  std::vector<graph::Chain> out;
  for (int n : {1, 2, 3, 17, 100, 512}) {
    for (unsigned seed : {1u, 2u, 3u}) {
      util::Pcg32 rng(0xC0DEu ^ (seed * 40503u) ^ static_cast<unsigned>(n));
      out.push_back(graph::random_chain(rng, n,
                                        graph::WeightDist::uniform(1, 100),
                                        graph::WeightDist::uniform(1, 100)));
    }
  }
  // Monotone extremes: ascending and descending weight ramps stress the
  // prime-subpath two-pointer and the TEMP_S close/collapse order.
  {
    graph::Chain asc, desc;
    for (int i = 0; i < 200; ++i) {
      asc.vertex_weight.push_back(1 + i);
      desc.vertex_weight.push_back(200 - i);
      if (i < 199) {
        asc.edge_weight.push_back(1 + (i % 37));
        desc.edge_weight.push_back(1 + ((199 - i) % 37));
      }
    }
    out.push_back(std::move(asc));
    out.push_back(std::move(desc));
  }
  return out;
}

void expect_same_cut(const graph::Cut& got, const graph::Cut& want,
                     const char* what) {
  ASSERT_EQ(got.edges, want.edges) << what;
}

// The Kruskal sweep replaced the bisection, so only the cut and threshold
// are compared with the frozen bsearch (its probe count is gone); the scan
// (Alg. 2.1) cuts the same ascending prefix, in discovery order.
TEST(CsrDifferential, BottleneckMatchesReference) {
  const std::vector<graph::Tree> corpus = tree_corpus();
  at_each_width([&] {
    for (const graph::Tree& t : corpus) {
      for (double frac : kKFrac) {
        graph::Weight K =
            k_for(t.max_vertex_weight(), t.total_vertex_weight(), frac);
        auto got = bottleneck_min_bsearch(t, K);
        auto want = ref::bottleneck_min_bsearch(t, K);
        expect_same_cut(got.cut, want.cut, "bsearch cut");
        EXPECT_EQ(got.threshold, want.threshold);
        if (t.n() <= 150) {
          auto got_scan = bottleneck_min_scan(t, K);
          auto want_scan = ref::bottleneck_min_scan(t, K);
          expect_same_cut(got_scan.cut, want_scan.cut, "scan cut");
          EXPECT_EQ(got_scan.threshold, want_scan.threshold);
          EXPECT_EQ(got_scan.feasibility_checks,
                    want_scan.feasibility_checks);
          expect_same_cut(got_scan.cut.canonical(), got.cut,
                          "scan vs sweep cut");
          EXPECT_EQ(got_scan.threshold, got.threshold);
        }
      }
    }
  });
}

TEST(CsrDifferential, ProcMinMatchesReference) {
  for (const graph::Tree& t : tree_corpus()) {
    for (double frac : kKFrac) {
      graph::Weight K =
          k_for(t.max_vertex_weight(), t.total_vertex_weight(), frac);
      auto got = proc_min(t, K);
      auto want = ref::proc_min(t, K);
      expect_same_cut(got.cut, want.cut, "procmin cut");
      EXPECT_EQ(got.components, want.components);
    }
  }
}

TEST(CsrDifferential, TreeBandwidthMatchesReference) {
  const std::vector<graph::Tree> corpus = tree_corpus();
  at_each_width([&] {
    for (const graph::Tree& t : corpus) {
      for (double frac : kKFrac) {
        graph::Weight K =
            k_for(t.max_vertex_weight(), t.total_vertex_weight(), frac);
        auto got = tree_bandwidth_greedy(t, K);
        auto want = ref::tree_bandwidth_greedy(t, K);
        expect_same_cut(got.cut, want.cut, "greedy cut");
        EXPECT_EQ(got.cut_weight, want.cut_weight);  // exact: same order
      }
    }
  });
}

TEST(CsrDifferential, PrimeSubpathsAndReducedEdgesMatchReference) {
  for (const graph::Chain& c : chain_corpus()) {
    for (double frac : kKFrac) {
      graph::Weight K =
          k_for(c.max_vertex_weight(), c.total_vertex_weight(), frac);
      auto got = prime_subpaths(c, K);
      auto want = ref::prime_subpaths(c, K);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first_vertex, want[i].first_vertex);
        EXPECT_EQ(got[i].last_vertex, want[i].last_vertex);
        EXPECT_EQ(got[i].weight, want[i].weight);
      }
      auto got_e = reduce_edges(c, got);
      auto want_e = ref::reduce_edges(c, want);
      ASSERT_EQ(got_e.size(), want_e.size());
      for (std::size_t i = 0; i < got_e.size(); ++i) {
        EXPECT_EQ(got_e[i].edge, want_e[i].edge);
        EXPECT_EQ(got_e[i].first_prime, want_e[i].first_prime);
        EXPECT_EQ(got_e[i].last_prime, want_e[i].last_prime);
        EXPECT_EQ(got_e[i].weight, want_e[i].weight);
      }
    }
  }
}

TEST(CsrDifferential, ChainSolversMatchReference) {
  for (const graph::Chain& c : chain_corpus()) {
    for (double frac : kKFrac) {
      graph::Weight K =
          k_for(c.max_vertex_weight(), c.total_vertex_weight(), frac);
      auto got_b = chain_bottleneck_min(c, K);
      auto want_b = ref::chain_bottleneck_min(c, K);
      expect_same_cut(got_b.cut, want_b.cut, "chain bottleneck cut");
      EXPECT_EQ(got_b.threshold, want_b.threshold);

      auto got_w = bandwidth_min_temps(c, K);
      auto want_w = ref::bandwidth_min_temps(c, K);
      expect_same_cut(got_w.cut, want_w.cut, "bandwidth cut");
      EXPECT_EQ(got_w.cut_weight, want_w.cut_weight);  // exact: same order
    }
  }
}

TEST(CsrDifferential, GallopPolicyUnchangedByPort) {
  for (const graph::Chain& c : chain_corpus()) {
    graph::Weight K =
        k_for(c.max_vertex_weight(), c.total_vertex_weight(), 0.15);
    auto binary = bandwidth_min_temps(c, K);
    auto gallop =
        bandwidth_min_temps(c, K, nullptr, SearchPolicy::kGallop);
    expect_same_cut(gallop.cut, binary.cut, "gallop vs binary");
    EXPECT_EQ(gallop.cut_weight, binary.cut_weight);
  }
}

// ---- Cancellation and deadline unwind with a caller arena ------------------

TEST(CsrDifferential, PreCancelledTokenUnwindsCleanly) {
  util::Pcg32 rng(0xAB12u);
  graph::Tree t = graph::random_tree(rng, 600,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  graph::Chain c = graph::random_chain(rng, 600,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  graph::Weight Kt =
      k_for(t.max_vertex_weight(), t.total_vertex_weight(), 0.01);
  graph::Weight Kc =
      k_for(c.max_vertex_weight(), c.total_vertex_weight(), 0.01);

  util::CancelToken token;
  token.request_cancel();
  util::Arena arena;
  EXPECT_THROW(bottleneck_min_bsearch(t, Kt, &token, &arena),
               util::CancelledError);
  EXPECT_THROW(proc_min(t, Kt, nullptr, &token, &arena),
               util::CancelledError);
  EXPECT_THROW(bandwidth_min_temps(c, Kc, nullptr, SearchPolicy::kBinary,
                                   &token, &arena),
               util::CancelledError);
  const std::size_t in_use = arena.bytes_in_use();
  EXPECT_THROW(bandwidth_min_dp_deque(c, Kc, &token, &arena),
               util::CancelledError);
  // The ScratchFrame must release on unwind: the arena is reusable and a
  // fresh solve still matches the reference.
  EXPECT_EQ(arena.bytes_in_use(), in_use);
  auto got = bandwidth_min_temps(c, Kc, nullptr, SearchPolicy::kBinary,
                                 nullptr, &arena);
  auto want = ref::bandwidth_min_temps(c, Kc);
  EXPECT_EQ(got.cut.edges, want.cut.edges);
  auto got_dq = bandwidth_min_dp_deque(c, Kc, nullptr, &arena);
  EXPECT_EQ(got_dq.cut.edges, bandwidth_min_dp_deque(c, Kc).cut.edges);
}

TEST(CsrDifferential, ExpiredDeadlineReportsDeadlineReason) {
  util::Pcg32 rng(0xAB13u);
  graph::Tree t = graph::random_tree(rng, 600,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  graph::Weight K =
      k_for(t.max_vertex_weight(), t.total_vertex_weight(), 0.01);
  util::CancelToken token;
  token.set_deadline(util::CancelToken::Clock::now() -
                     std::chrono::milliseconds(1));
  util::Arena arena;
  try {
    proc_min(t, K, nullptr, &token, &arena);
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason, util::CancelReason::kDeadline);
  }
}

// ---- Zero-allocation steady state ------------------------------------------

TEST(CsrDifferential, SteadyStateSolvesAreArenaOnly) {
  util::Pcg32 rng(0xF00Du);
  graph::Tree t = graph::random_tree(rng, 2000,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  graph::Chain c = graph::random_chain(rng, 2000,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  graph::Weight Kt =
      k_for(t.max_vertex_weight(), t.total_vertex_weight(), 0.05);
  graph::Weight Kc =
      k_for(c.max_vertex_weight(), c.total_vertex_weight(), 0.05);

  util::Arena arena;
  auto run_all = [&] {
    (void)bottleneck_min_bsearch(t, Kt, nullptr, &arena);
    (void)proc_min(t, Kt, nullptr, nullptr, &arena);
    (void)tree_bandwidth_greedy(t, Kt, nullptr, &arena);
    (void)bandwidth_min_temps(c, Kc, nullptr, SearchPolicy::kBinary, nullptr,
                              &arena);
    (void)bandwidth_min_dp_deque(c, Kc, nullptr, &arena);
    (void)chain_bottleneck_min(c, Kc, &arena);
  };
  run_all();  // warm: the arena grows to the working-set size
  std::uint64_t blocks = arena.heap_block_allocs();
  for (int i = 0; i < 3; ++i) run_all();
  EXPECT_EQ(arena.heap_block_allocs(), blocks)
      << "steady-state solver scratch must not grow the arena";
}

// ---- Intra-solve parallelism: width-sweep bit-identity ---------------------
//
// The par::Team contract (src/par/runtime.hpp): the answer is a function
// of the instance, never of the schedule.  Instances here are sized past
// kGrain so the blocked chain paths really split — then every result, cut
// edge and deterministic counter must match the serial solve exactly at
// widths 1, 2, 4 and 8.  The tree solvers are serial; the serial run also
// checks them against the frozen references.

struct WidthSweepRun {
  std::vector<PrimeSubpath> primes;
  std::vector<ReducedEdge> reduced;
  graph::Cut temps_cut, deque_cut, cbn_cut, bsearch_cut, greedy_cut;
  graph::Weight temps_weight = 0, deque_weight = 0, cbn_threshold = 0,
                bsearch_threshold = 0, greedy_weight = 0;
  obs::SolveCounters counters;
};

WidthSweepRun run_all_at_width(int width, const graph::Chain& c,
                               graph::Weight Kc, const graph::Tree& t,
                               graph::Weight Kt) {
  WidthSweepRun out;
  std::unique_ptr<par::Team> team;
  if (width > 1) team = std::make_unique<par::Team>(width);
  par::TeamScope scope(team.get());
  obs::CounterScope counters(&out.counters);
  util::Arena arena;

  out.primes = prime_subpaths(c, Kc);
  out.reduced = reduce_edges(c, out.primes);
  auto temps =
      bandwidth_min_temps(c, Kc, nullptr, SearchPolicy::kBinary, nullptr,
                          &arena);
  out.temps_cut = std::move(temps.cut);
  out.temps_weight = temps.cut_weight;
  auto deque = bandwidth_min_dp_deque(c, Kc, nullptr, &arena);
  out.deque_cut = std::move(deque.cut);
  out.deque_weight = deque.cut_weight;
  auto cbn = chain_bottleneck_min(c, Kc, &arena);
  out.cbn_cut = std::move(cbn.cut);
  out.cbn_threshold = cbn.threshold;
  auto bs = bottleneck_min_bsearch(t, Kt, nullptr, &arena);
  out.bsearch_cut = std::move(bs.cut);
  out.bsearch_threshold = bs.threshold;
  auto greedy = tree_bandwidth_greedy(t, Kt, nullptr, &arena);
  out.greedy_cut = std::move(greedy.cut);
  out.greedy_weight = greedy.cut_weight;
  return out;
}

TEST(CsrDifferential, ParallelWidthsBitIdentical) {
  util::Pcg32 rng(0x9A77u);
  graph::Chain c = graph::random_chain(rng, 50000,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  graph::Tree t = graph::random_tree(rng, 60000,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  graph::Weight Kc =
      k_for(c.max_vertex_weight(), c.total_vertex_weight(), 0.005);
  graph::Weight Kt =
      k_for(t.max_vertex_weight(), t.total_vertex_weight(), 0.01);

  WidthSweepRun serial = run_all_at_width(1, c, Kc, t, Kt);
  ASSERT_FALSE(serial.temps_cut.edges.empty());
  // Both exact, summed in different orders: equal up to rounding.
  EXPECT_NEAR(serial.deque_weight, serial.temps_weight,
              1e-9 * serial.temps_weight);
  EXPECT_EQ(serial.counters.par_threads, 0u) << "no team => no par counters";
  auto ref_bsearch = ref::bottleneck_min_bsearch(t, Kt);
  EXPECT_EQ(serial.bsearch_cut.edges, ref_bsearch.cut.edges);
  EXPECT_EQ(serial.bsearch_threshold, ref_bsearch.threshold);
  auto ref_greedy = ref::tree_bandwidth_greedy(t, Kt);
  EXPECT_EQ(serial.greedy_cut.edges, ref_greedy.cut.edges);
  EXPECT_EQ(serial.greedy_weight, ref_greedy.cut_weight);

  for (int width : {2, 4, 8}) {
    SCOPED_TRACE(width);
    WidthSweepRun par = run_all_at_width(width, c, Kc, t, Kt);
    ASSERT_EQ(par.primes.size(), serial.primes.size());
    for (std::size_t i = 0; i < par.primes.size(); ++i) {
      ASSERT_EQ(par.primes[i].first_vertex, serial.primes[i].first_vertex);
      ASSERT_EQ(par.primes[i].last_vertex, serial.primes[i].last_vertex);
      ASSERT_EQ(par.primes[i].weight, serial.primes[i].weight);
    }
    ASSERT_EQ(par.reduced.size(), serial.reduced.size());
    for (std::size_t i = 0; i < par.reduced.size(); ++i) {
      ASSERT_EQ(par.reduced[i].edge, serial.reduced[i].edge);
      ASSERT_EQ(par.reduced[i].first_prime, serial.reduced[i].first_prime);
      ASSERT_EQ(par.reduced[i].last_prime, serial.reduced[i].last_prime);
      ASSERT_EQ(par.reduced[i].weight, serial.reduced[i].weight);
    }
    EXPECT_EQ(par.temps_cut.edges, serial.temps_cut.edges);
    EXPECT_EQ(par.temps_weight, serial.temps_weight);  // exact: same order
    EXPECT_EQ(par.deque_cut.edges, serial.deque_cut.edges);
    EXPECT_EQ(par.deque_weight, serial.deque_weight);
    EXPECT_EQ(par.cbn_cut.edges, serial.cbn_cut.edges);
    EXPECT_EQ(par.cbn_threshold, serial.cbn_threshold);
    EXPECT_EQ(par.bsearch_cut.edges, serial.bsearch_cut.edges);
    EXPECT_EQ(par.bsearch_threshold, serial.bsearch_threshold);
    EXPECT_EQ(par.greedy_cut.edges, serial.greedy_cut.edges);
    EXPECT_EQ(par.greedy_weight, serial.greedy_weight);
    // The deterministic counters are width-independent.
    EXPECT_TRUE(par.counters.algo_equal(serial.counters));
    EXPECT_EQ(par.counters.par_threads, static_cast<std::uint64_t>(width));
    EXPECT_GT(par.counters.par_tasks, 0u);
  }
}

TEST(CsrDifferential, ParallelCountersStableAcrossRepeats) {
  // Same width, repeated runs: dynamic block claiming must not leak into
  // any counter — par_tasks included (the decomposition is fixed).
  util::Pcg32 rng(0x9A78u);
  graph::Chain c = graph::random_chain(rng, 40000,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  graph::Tree t = graph::random_tree(rng, 40000,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  graph::Weight Kc =
      k_for(c.max_vertex_weight(), c.total_vertex_weight(), 0.005);
  graph::Weight Kt =
      k_for(t.max_vertex_weight(), t.total_vertex_weight(), 0.01);
  WidthSweepRun first = run_all_at_width(4, c, Kc, t, Kt);
  for (int rep = 0; rep < 2; ++rep) {
    WidthSweepRun again = run_all_at_width(4, c, Kc, t, Kt);
    EXPECT_EQ(again.counters, first.counters) << "rep " << rep;
    EXPECT_EQ(again.temps_cut.edges, first.temps_cut.edges);
    EXPECT_EQ(again.bsearch_cut.edges, first.bsearch_cut.edges);
  }
}

}  // namespace
}  // namespace tgp::core
