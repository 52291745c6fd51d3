// Canonical forms and fingerprints (graph/fingerprint.hpp): reversal- and
// relabeling-stability, back-mapping correctness, sensitivity to weights,
// pinned fingerprint values, and agreement of the one-pass cache keys
// (chain_key / tree_key) with the full canonical forms.
#include "graph/fingerprint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/cutset.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace tgp::graph {
namespace {

Chain make_chain(std::vector<Weight> v, std::vector<Weight> e) {
  Chain c;
  c.vertex_weight = std::move(v);
  c.edge_weight = std::move(e);
  c.validate();
  return c;
}

// Random, binary, star, caterpillar and even-path trees, plain and
// tie-heavy, plus a relabeled presentation of each.
std::vector<Tree> tree_corpus() {
  util::Pcg32 rng(4242, 29);
  const WeightDist any = WeightDist::uniform(1, 50);
  const WeightDist flat = WeightDist::constant(3);
  const WeightDist two = WeightDist::bimodal(0.5, 1, 1, 2, 2);
  std::vector<Tree> out;
  for (int n : {1, 2, 3, 7, 16, 41, 100}) {
    out.push_back(random_tree(rng, n, any, any));
    out.push_back(random_binary_tree(rng, n, any, any));
    out.push_back(star_tree(rng, n, any, any));
    // Tie-heavy: isomorphic sibling subtrees with equal edge weights.
    out.push_back(random_tree(rng, n, flat, flat));
    out.push_back(random_binary_tree(rng, n, two, flat));
    out.push_back(star_tree(rng, n, flat, two));
  }
  for (int spine : {1, 2, 5, 12}) {
    out.push_back(caterpillar_tree(rng, spine, 3, any, any));
    out.push_back(caterpillar_tree(rng, spine, 2, flat, flat));
  }
  // Even paths: two adjacent centroids, mirror-symmetric when flat.
  for (int n : {2, 4, 10, 30}) {
    out.push_back(path_tree(random_chain(rng, n, any, any)));
    out.push_back(path_tree(random_chain(rng, n, flat, flat)));
  }
  const std::size_t base = out.size();
  for (std::size_t i = 0; i < base; ++i)
    out.push_back(relabel_tree(rng, out[i]));
  return out;
}

TEST(CanonicalChain, ReversalConvergesToOneOrientation) {
  Chain a = make_chain({1, 2, 3, 4}, {10, 20, 30});
  Chain b = reversed_chain(a);
  CanonicalChain ca = canonical_chain(a);
  CanonicalChain cb = canonical_chain(b);
  EXPECT_EQ(ca.chain.vertex_weight, cb.chain.vertex_weight);
  EXPECT_EQ(ca.chain.edge_weight, cb.chain.edge_weight);
  EXPECT_NE(ca.reversed, cb.reversed);
}

TEST(CanonicalChain, MapEdgeBackIdentityWhenNotReversed) {
  Chain a = make_chain({1, 2, 3}, {5, 6});
  CanonicalChain ca = canonical_chain(a);
  ASSERT_FALSE(ca.reversed);  // already canonical (ascending)
  EXPECT_EQ(ca.map_edge_back(0), 0);
  EXPECT_EQ(ca.map_edge_back(1), 1);
}

TEST(CanonicalChain, MapEdgeBackMirrorsWhenReversed) {
  Chain a = make_chain({3, 2, 1}, {6, 5});
  CanonicalChain ca = canonical_chain(a);
  ASSERT_TRUE(ca.reversed);
  // Canonical edge i refers to submitted edge (m-1-i); the edge weight
  // must agree through the map.
  for (int e = 0; e < ca.chain.edge_count(); ++e)
    EXPECT_EQ(ca.chain.edge_weight[static_cast<std::size_t>(e)],
              a.edge_weight[static_cast<std::size_t>(ca.map_edge_back(e))]);
}

TEST(CanonicalChain, PalindromeIsItsOwnCanonicalForm) {
  Chain p = make_chain({1, 2, 1}, {7, 7});
  CanonicalChain cp = canonical_chain(p);
  EXPECT_FALSE(cp.reversed);
  EXPECT_EQ(cp.chain.vertex_weight, p.vertex_weight);
}

TEST(Fingerprint, ChainReversalCollides) {
  util::Pcg32 rng(99, 3);
  for (int trial = 0; trial < 20; ++trial) {
    Chain c = random_chain(rng, 2 + trial * 7,
                           WeightDist::uniform(1, 50),
                           WeightDist::uniform(1, 50));
    EXPECT_EQ(chain_fingerprint(c), chain_fingerprint(reversed_chain(c)));
  }
}

TEST(Fingerprint, ChainWeightPerturbationSeparates) {
  Chain a = make_chain({1, 2, 3}, {5, 6});
  Chain b = make_chain({1, 2, 3}, {5, 6.000001});
  Chain c = make_chain({1, 2.5, 3}, {5, 6});
  EXPECT_NE(chain_fingerprint(a), chain_fingerprint(b));
  EXPECT_NE(chain_fingerprint(a), chain_fingerprint(c));
}

TEST(Fingerprint, ChainAndPathTreeDoNotCollide) {
  Chain c = make_chain({1, 2, 3}, {5, 6});
  EXPECT_NE(chain_fingerprint(c), tree_fingerprint(path_tree(c)));
}

TEST(Fingerprint, TreeRelabelingCollides) {
  util::Pcg32 rng(1234, 5);
  for (int trial = 0; trial < 30; ++trial) {
    int n = 2 + static_cast<int>(rng.uniform_int(0, 60));
    Tree t = random_tree(rng, n, WeightDist::uniform(1, 20),
                         WeightDist::uniform(1, 20));
    Fingerprint f = tree_fingerprint(t);
    for (int rep = 0; rep < 3; ++rep)
      EXPECT_EQ(f, tree_fingerprint(relabel_tree(rng, t)));
  }
}

TEST(Fingerprint, StarChildPermutationCollides) {
  util::Pcg32 rng(7, 7);
  Tree s = star_tree(rng, 9, WeightDist::uniform(1, 10),
                     WeightDist::uniform(1, 10));
  Fingerprint f = tree_fingerprint(s);
  for (int rep = 0; rep < 5; ++rep)
    EXPECT_EQ(f, tree_fingerprint(relabel_tree(rng, s)));
}

TEST(Fingerprint, TreeEdgeWeightChangeSeparates) {
  std::vector<Weight> vw{1, 2, 3, 4};
  std::vector<TreeEdge> e1{{0, 1, 5}, {1, 2, 6}, {1, 3, 7}};
  std::vector<TreeEdge> e2{{0, 1, 5}, {1, 2, 6}, {1, 3, 7.5}};
  EXPECT_NE(tree_fingerprint(Tree::from_edges(vw, e1)),
            tree_fingerprint(Tree::from_edges(vw, e2)));
}

TEST(Fingerprint, DistinctRandomTreesSeparate) {
  util::Pcg32 rng(500, 11);
  std::vector<Fingerprint> seen;
  for (int i = 0; i < 50; ++i) {
    Tree t = random_tree(rng, 24, WeightDist::uniform(1, 100),
                         WeightDist::uniform(1, 100));
    Fingerprint f = tree_fingerprint(t);
    for (const Fingerprint& g : seen) EXPECT_NE(f, g);
    seen.push_back(f);
  }
}

TEST(CanonicalTree, MapsArePermutations) {
  util::Pcg32 rng(321, 13);
  Tree t = random_tree(rng, 40, WeightDist::uniform(1, 9),
                       WeightDist::uniform(1, 9));
  CanonicalTree ct = canonical_tree(t);
  ASSERT_EQ(ct.tree.n(), t.n());
  std::vector<char> vseen(40, 0), eseen(39, 0);
  for (int v : ct.orig_vertex) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 40);
    EXPECT_FALSE(vseen[static_cast<std::size_t>(v)]);
    vseen[static_cast<std::size_t>(v)] = 1;
  }
  for (int e : ct.orig_edge) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, 39);
    EXPECT_FALSE(eseen[static_cast<std::size_t>(e)]);
    eseen[static_cast<std::size_t>(e)] = 1;
  }
}

TEST(CanonicalTree, PreservesWeightsThroughMaps) {
  util::Pcg32 rng(654, 17);
  Tree t = random_binary_tree(rng, 31, WeightDist::uniform(1, 9),
                              WeightDist::uniform(1, 9));
  CanonicalTree ct = canonical_tree(t);
  for (int c = 0; c < ct.tree.n(); ++c)
    EXPECT_EQ(ct.tree.vertex_weight(c),
              t.vertex_weight(ct.orig_vertex[static_cast<std::size_t>(c)]));
  for (int e = 0; e < ct.tree.edge_count(); ++e)
    EXPECT_EQ(ct.tree.edge(e).weight,
              t.edge(ct.map_edge_back(e)).weight);
}

TEST(CanonicalTree, CutMappingPreservesWeightAndFeasibility) {
  util::Pcg32 rng(777, 19);
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = random_tree(rng, 30, WeightDist::uniform(1, 9),
                         WeightDist::uniform(1, 9));
    CanonicalTree ct = canonical_tree(t);
    // A random cut in canonical numbering maps to one of equal weight
    // and equal component structure in the submitted numbering.
    Cut canon_cut;
    for (int e = 0; e < ct.tree.edge_count(); ++e)
      if (rng.coin(0.3)) canon_cut.edges.push_back(e);
    Cut orig_cut;
    for (int e : canon_cut.edges) orig_cut.edges.push_back(ct.map_edge_back(e));
    // Same multiset of doubles, possibly summed in a different order.
    EXPECT_NEAR(tree_cut_weight(ct.tree, canon_cut),
                tree_cut_weight(t, orig_cut), 1e-9);
    std::vector<Weight> a = tree_component_weights(ct.tree, canon_cut);
    std::vector<Weight> b = tree_component_weights(t, orig_cut);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST(CanonicalTree, RelabeledPresentationsShareCanonicalStructure) {
  util::Pcg32 rng(888, 23);
  std::vector<Tree> trees = tree_corpus();
  trees.push_back(random_tree(rng, 25, WeightDist::uniform(1, 6),
                              WeightDist::uniform(1, 6)));
  for (const Tree& t : trees) {
    Tree r = relabel_tree(rng, t);
    CanonicalTree c1 = canonical_tree(t);
    CanonicalTree c2 = canonical_tree(r);
    ASSERT_EQ(c1.tree.n(), c2.tree.n());
    for (int v = 0; v < c1.tree.n(); ++v)
      EXPECT_EQ(c1.tree.vertex_weight(v), c2.tree.vertex_weight(v));
    for (int e = 0; e < c1.tree.edge_count(); ++e) {
      EXPECT_EQ(c1.tree.edge(e).u, c2.tree.edge(e).u);
      EXPECT_EQ(c1.tree.edge(e).v, c2.tree.edge(e).v);
      EXPECT_EQ(c1.tree.edge(e).weight, c2.tree.edge(e).weight);
      // The edge map lands on a submitted edge with the same endpoints.
      const TreeEdge& sub = r.edge(c2.map_edge_back(e));
      const int cu = c2.orig_vertex[static_cast<std::size_t>(c2.tree.edge(e).u)];
      const int cv = c2.orig_vertex[static_cast<std::size_t>(c2.tree.edge(e).v)];
      EXPECT_TRUE((sub.u == cu && sub.v == cv) || (sub.u == cv && sub.v == cu));
    }
  }
}

TEST(CanonicalTree, TwoCentroidPathsHandled) {
  // Even path: two adjacent centroids.
  Chain c = make_chain({1, 1, 1, 1}, {2, 3, 2});
  Tree t = path_tree(c);
  CanonicalTree ct = canonical_tree(t);
  EXPECT_EQ(ct.tree.n(), 4);
  EXPECT_EQ(tree_fingerprint(t), tree_fingerprint(ct.tree));
}

TEST(CanonicalTree, SingleVertexAndSingleEdge) {
  Tree one = Tree::from_edges({5.0}, {});
  EXPECT_EQ(canonical_tree(one).tree.n(), 1);
  Tree two = Tree::from_edges({5.0, 6.0}, {{0, 1, 3.0}});
  CanonicalTree ct = canonical_tree(two);
  EXPECT_EQ(ct.tree.n(), 2);
  EXPECT_EQ(ct.map_edge_back(0), 0);
  EXPECT_EQ(tree_fingerprint(two), tree_fingerprint(ct.tree));
}

// ---- Pinned values --------------------------------------------------------
// Fingerprints key the memo cache, the persisted journal and the router's
// shard ring, so their values are part of the on-disk and on-wire format.
// These hand-written graphs pin them: any change to the hash (seed, tags,
// absorb order, canonical form) fails here on every machine.

std::vector<std::pair<std::string, Chain>> golden_chains() {
  return {
      {"ascending", make_chain({1, 2, 3, 4}, {10, 20, 30})},
      {"descending", make_chain({4, 3, 2, 1}, {30, 20, 10})},
      {"palindrome", make_chain({1, 2, 1}, {7, 7})},
      {"fractional", make_chain({3.5, 0.25, 8}, {1.5, 2})},
      {"single", make_chain({9}, {})},
  };
}

std::vector<std::pair<std::string, Tree>> golden_trees() {
  return {
      {"single", Tree::from_edges({5}, {})},
      {"edge", Tree::from_edges({5, 6}, {{0, 1, 3}})},
      {"star", Tree::from_edges({1, 2, 3, 4},
                                {{0, 1, 5}, {1, 2, 6}, {1, 3, 7}})},
      {"even_path", Tree::from_edges({1, 1, 1, 1},
                                     {{0, 1, 2}, {1, 2, 3}, {2, 3, 2}})},
      {"mixed", Tree::from_edges({2.5, 1, 4, 0.5, 3, 3, 1.25},
                                 {{0, 1, 1},
                                  {0, 2, 2.5},
                                  {2, 3, 4},
                                  {2, 4, 0.75},
                                  {4, 5, 1},
                                  {1, 6, 6}})},
  };
}

TEST(Fingerprint, GoldenChainValues) {
  const std::vector<std::string> want{
      "ffb18c6af103a42de5071608f34bf785",  // ascending
      "ffb18c6af103a42de5071608f34bf785",  // descending (its reversal)
      "6b915e8d3a3df0fd77bd0b39bd034cdd",  // palindrome
      "a3004a04c22fed3023e6717243bcd098",  // fractional
      "99a3f4ba530cb16c79a7f154c919cac5",  // single
  };
  auto chains = golden_chains();
  ASSERT_EQ(chains.size(), want.size());
  for (std::size_t i = 0; i < chains.size(); ++i) {
    EXPECT_EQ(chain_fingerprint(chains[i].second).hex(), want[i])
        << chains[i].first;
    EXPECT_EQ(chain_key(chains[i].second).fingerprint.hex(), want[i])
        << chains[i].first;
  }
}

TEST(Fingerprint, GoldenTreeValues) {
  const std::vector<std::string> want{
      "a7313f01770609d45b65c583fb3c4144",  // single
      "2bc63de17fc9d25685d876931436d6f0",  // edge
      "7082a3414cb73d3f9dc1c000563ca422",  // star
      "e66bb454fe33bb3b299bfd4bc3da4bca",  // even_path
      "d03134638faa778e10ccafa640d52edd",  // mixed
  };
  auto trees = golden_trees();
  ASSERT_EQ(trees.size(), want.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    EXPECT_EQ(tree_fingerprint(trees[i].second).hex(), want[i])
        << trees[i].first;
    EXPECT_EQ(tree_key(trees[i].second).fingerprint.hex(), want[i])
        << trees[i].first;
  }
}

TEST(TreeKey, GoldenEdgeMaps) {
  // (root, orig_edge) of the canonical labeling: which centroid roots it
  // and in which preorder the submitted edges are visited.
  const std::vector<std::pair<int, std::vector<int>>> want{
      {0, {}},                  // single
      {0, {0}},                 // edge
      {1, {2, 0, 1}},           // star
      {1, {0, 1, 2}},           // even_path (two centroids)
      {2, {1, 0, 5, 3, 4, 2}},  // mixed
  };
  auto trees = golden_trees();
  ASSERT_EQ(trees.size(), want.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    TreeKey key = tree_key(trees[i].second);
    EXPECT_EQ(key.root, want[i].first) << trees[i].first;
    EXPECT_EQ(key.orig_edge, want[i].second) << trees[i].first;
  }
}

// ---- One-pass keys against the full canonical forms -----------------------

TEST(TreeKey, MatchesFullCanonicalForm) {
  for (const Tree& t : tree_corpus()) {
    TreeKey key = tree_key(t);
    CanonicalTree ct = canonical_tree(t);
    EXPECT_EQ(key.fingerprint, tree_fingerprint(t)) << "n=" << t.n();
    EXPECT_EQ(key.fingerprint, tree_fingerprint(ct.tree)) << "n=" << t.n();
    EXPECT_EQ(key.orig_edge, ct.orig_edge) << "n=" << t.n();
    EXPECT_EQ(key.root, ct.orig_vertex[0]) << "n=" << t.n();
    for (int e = 0; e < ct.tree.edge_count(); ++e)
      EXPECT_EQ(key.map_edge_back(e), ct.map_edge_back(e));
  }
}

TEST(TreeKey, MaterializeRejectsAKeyOfAnotherSize) {
  Tree small = Tree::from_edges({1, 2}, {{0, 1, 1}});
  Tree big = Tree::from_edges({1, 2, 3}, {{0, 1, 1}, {1, 2, 1}});
  EXPECT_THROW(materialize_tree(big, tree_key(small)), std::exception);
}

TEST(ChainKey, MatchesCanonicalChain) {
  util::Pcg32 rng(2718, 41);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 40));
    const WeightDist d = trial % 2 == 0 ? WeightDist::uniform(1, 3)
                                        : WeightDist::uniform(1, 50);
    Chain c = random_chain(rng, n, d, d);
    if (trial % 3 == 0) {  // palindromic
      for (int k = 0; k < n / 2; ++k)
        c.vertex_weight[static_cast<std::size_t>(n - 1 - k)] =
            c.vertex_weight[static_cast<std::size_t>(k)];
      for (int k = 0; k < (n - 1) / 2; ++k)
        c.edge_weight[static_cast<std::size_t>(n - 2 - k)] =
            c.edge_weight[static_cast<std::size_t>(k)];
    }
    ChainKey key = chain_key(c);
    CanonicalChain cc = canonical_chain(c);
    EXPECT_EQ(key.fingerprint, chain_fingerprint(c));
    EXPECT_EQ(key.fingerprint, chain_fingerprint(cc.chain));
    EXPECT_EQ(key.reversed, cc.reversed);
    for (int e = 0; e < c.edge_count(); ++e)
      EXPECT_EQ(key.map_edge_back(e), cc.map_edge_back(e));
    CanonicalChain m = materialize_chain(c, key);
    EXPECT_EQ(m.reversed, cc.reversed);
    EXPECT_EQ(m.chain.vertex_weight, cc.chain.vertex_weight);
    EXPECT_EQ(m.chain.edge_weight, cc.chain.edge_weight);
  }
}

TEST(Fingerprint, HexRendersBothWords) {
  Fingerprint f{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(f.hex(), "0123456789abcdeffedcba9876543210");
}

}  // namespace
}  // namespace tgp::graph
