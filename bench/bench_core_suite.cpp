// The tracked core-solver perf suite — emits BENCH_core.json.
//
// Every case here is a hot path the flat-graph (CSR + arena) overhaul is
// accountable for.  The committed BENCH_core.json is the baseline; CI
// re-runs this suite and gates on tools/bench_diff.  Cases pin their
// generator seeds so baseline and candidate always solve the same
// instances.
//
//   bench_core_suite --json BENCH_core.json          # full run
//   bench_core_suite --quick                          # smoke (ctest)
//   bench_core_suite --threads 1,2,8 --json ...       # intra-solve sweep
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_harness.hpp"
#include "core/bandwidth_min.hpp"
#include "core/bottleneck_min.hpp"
#include "core/chain_bottleneck.hpp"
#include "core/proc_min.hpp"
#include "core/prime_subpaths.hpp"
#include "core/tree_bandwidth.hpp"
#include "graph/generators.hpp"
#include "par/runtime.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace {

using namespace tgp;

graph::Chain make_chain(int n, int regime, double* K) {
  util::Pcg32 rng(0x51AB ^ static_cast<unsigned>(n * 3 + regime));
  graph::Chain c = graph::random_chain(rng, n,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  double maxw = c.max_vertex_weight();
  double total = c.total_vertex_weight();
  double frac = regime == 0 ? 0.00002 : regime == 1 ? 0.005 : 0.5;
  *K = maxw + frac * (total - maxw);
  return c;
}

graph::Tree make_tree(int n, double* K) {
  util::Pcg32 rng(0xB077 ^ static_cast<unsigned>(n));
  graph::Tree t = graph::random_tree(rng, n,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  *K = t.max_vertex_weight() +
       0.01 * (t.total_vertex_weight() - t.max_vertex_weight());
  return t;
}

const char* kRegimeName[] = {"tight", "mid", "loose"};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bench::HarnessOptions opt = bench::parse_args(argc, argv, &json_path);
  bench::Harness h("core", opt);
  util::Arena arena;  // one warm arena, like a service worker's

  // --quick shrinks instances so sanitizer/smoke ctest runs stay cheap.
  const int chain_n = opt.quick ? 1 << 12 : 1 << 18;
  const int tree_n = opt.quick ? 1 << 12 : 1 << 17;
  const int greedy_n = opt.quick ? 1 << 12 : 1 << 16;

  char name[96];

  for (int regime : {0, 1, 2}) {
    double K = 0;
    graph::Chain c = make_chain(chain_n, regime, &K);
    std::snprintf(name, sizeof name, "bandwidth_temps/n=%d/%s", chain_n,
                  kRegimeName[regime]);
    h.run(name, chain_n, [&] {
      auto r = core::bandwidth_min_temps(c, K, nullptr,
                                         core::SearchPolicy::kBinary, nullptr,
                                         &arena);
      (void)r.cut_weight;
    });
  }

  {
    double K = 0;
    graph::Chain c = make_chain(chain_n, 1, &K);
    std::snprintf(name, sizeof name, "chain_bottleneck/n=%d", chain_n);
    h.run(name, chain_n, [&] {
      auto r = core::chain_bottleneck_min(c, K, &arena);
      (void)r.threshold;
    });
    std::snprintf(name, sizeof name, "prime_subpaths/n=%d", chain_n);
    h.run(name, chain_n, [&] {
      auto primes = core::prime_subpaths(c, K);
      (void)primes.size();
    });
  }

  {
    double K = 0;
    graph::Tree t = make_tree(tree_n, &K);
    std::snprintf(name, sizeof name, "bottleneck_bsearch/n=%d", tree_n);
    h.run(name, tree_n, [&] {
      auto r = core::bottleneck_min_bsearch(t, K, nullptr, &arena);
      (void)r.threshold;
    });
    std::snprintf(name, sizeof name, "procmin/n=%d", tree_n);
    h.run(name, tree_n, [&] {
      auto r = core::proc_min(t, K, nullptr, nullptr, &arena);
      (void)r.components;
    });
  }

  {
    double K = 0;
    graph::Tree t = make_tree(greedy_n, &K);
    std::snprintf(name, sizeof name, "tree_bandwidth_greedy/n=%d", greedy_n);
    h.run(name, greedy_n, [&] {
      auto r = core::tree_bandwidth_greedy(t, K, nullptr, &arena);
      (void)r.cut_weight;
    });
  }

  // ---- Intra-solve parallelism sweep --------------------------------------
  // Giant instances, one case per --threads width (default: serial only).
  // The /t=W suffix keys tools/bench_diff --min-speedup:
  // same instance, same decomposition, only the team width varies — the
  // answers are bit-identical, so the timings alone differ.  The tree
  // bottleneck is serial, so it runs at width 1 only.
  {
    const std::vector<int> widths =
        opt.threads.empty() ? std::vector<int>{1} : opt.threads;
    const int giant_chain_n = opt.quick ? 1 << 13 : 1 << 24;
    const int giant_tree_n = opt.quick ? 1 << 13 : 1 << 24;
    double Kc = 0, Kt = 0;
    graph::Chain gc = make_chain(giant_chain_n, 1, &Kc);
    graph::Tree gt = make_tree(giant_tree_n, &Kt);
    for (int w : widths) {
      std::unique_ptr<par::Team> team;
      if (w > 1) team = std::make_unique<par::Team>(w);
      par::TeamScope scope(team.get());
      h.set_threads(w);
      std::snprintf(name, sizeof name, "bandwidth_temps/n=%d/mid/t=%d",
                    giant_chain_n, w);
      h.run(name, giant_chain_n, [&] {
        auto r = core::bandwidth_min_temps(gc, Kc, nullptr,
                                           core::SearchPolicy::kBinary,
                                           nullptr, &arena);
        (void)r.cut_weight;
      });
      if (w != 1) continue;
      std::snprintf(name, sizeof name, "bottleneck_bsearch/n=%d/t=%d",
                    giant_tree_n, w);
      h.run(name, giant_tree_n, [&] {
        auto r = core::bottleneck_min_bsearch(gt, Kt, nullptr, &arena);
        (void)r.threshold;
      });
    }
    h.set_threads(1);
  }

  h.print_table();
  if (!json_path.empty() && !h.write_json(json_path)) return 1;
  return 0;
}
