// Canonical forms and isomorphism-stable fingerprints for task graphs.
//
// The partition service memoizes results by graph *content*, not by the
// accident of how a graph was presented: a chain and its reversal describe
// the same linear task graph, and a tree whose children were listed in a
// different order is still the same tree.  This module provides
//
//   * canonical_chain — the lexicographically smaller of the chain and its
//     reversal (weights compared by exact bit pattern), plus the flag
//     needed to map edge indices back to the submitted orientation;
//   * canonical_tree — the tree re-rooted at its (hash-disambiguated)
//     centroid and relabeled in preorder with children sorted by subtree
//     hash, plus vertex/edge maps back to the submitted labeling;
//   * fingerprint — a 128-bit hash of the canonical form, equal for
//     isomorphic chains (reversal) and for trees that differ only by
//     child order / vertex relabeling;
//   * chain_key / tree_key — the fingerprint and the canonical→submitted
//     edge map from one canonicalization pass, without building the
//     canonical graph; materialize_chain / materialize_tree build it from
//     the key when a solver needs it.  canonical_chain(c) is
//     materialize_chain(c, chain_key(c)), and likewise for trees.
//
// Equality of fingerprints is probabilistic (two independent 64-bit
// streams; collision odds ~2^-128 for unrelated graphs), which is the
// right trade for a memo cache: a collision can at worst return a result
// computed for a different graph.  No exact content comparison backs a
// cache hit; a hit that needs verification is checked by core/verify
// against the submitted graph instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/chain.hpp"
#include "graph/tree.hpp"

namespace tgp::util {
class Arena;
}

namespace tgp::graph {

/// 128-bit content hash.  Comparable and hashable so it can key maps.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// 64-bit fold for shard selection / unordered_map bucketing.
  std::uint64_t fold() const { return hi ^ (lo * 0x9E3779B97F4A7C15ull); }

  std::string hex() const;

  /// Number of bytes in the wire representation below.
  static constexpr std::size_t kWireBytes = 16;

  /// Serialize as 16 bytes in explicit little-endian order: `lo` first,
  /// then `hi`, each least-significant byte first.  This is the byte
  /// layout the network wire format carries, so a shard router and a
  /// backend on different architectures always agree on ownership.
  void store_le(unsigned char out[kWireBytes]) const;

  /// Inverse of store_le.
  static Fingerprint load_le(const unsigned char in[kWireBytes]);
};

// ---- Chains ---------------------------------------------------------------

/// A chain in canonical orientation.  `reversed` records whether the
/// submitted chain had to be flipped; map_edge_back translates a canonical
/// edge index to the submitted chain's numbering.
struct CanonicalChain {
  Chain chain;
  bool reversed = false;

  int map_edge_back(int canonical_edge) const {
    return reversed ? chain.edge_count() - 1 - canonical_edge
                    : canonical_edge;
  }
};

/// Canonicalize: of the chain and its reversal, keep the one whose
/// (vertex weights, edge weights) sequence is lexicographically smaller
/// under bit-pattern comparison.  Palindromic chains are their own
/// canonical form.  O(n).
CanonicalChain canonical_chain(const Chain& chain);

/// A chain's cache key without the canonical copy: the fingerprint, and
/// whether the canonical orientation is the reversal.  map_edge_back
/// agrees with the CanonicalChain that materialize_chain builds.
struct ChainKey {
  Fingerprint fingerprint;
  bool reversed = false;
  int edge_count = 0;

  int map_edge_back(int canonical_edge) const {
    return reversed ? edge_count - 1 - canonical_edge : canonical_edge;
  }
};

/// The orientation compare plus the hash in the winning direction; reads
/// `chain` in place.  key.fingerprint == chain_fingerprint(chain).  O(n).
ChainKey chain_key(const Chain& chain);

/// The canonical chain for `key`, which must come from chain_key(chain).
CanonicalChain materialize_chain(const Chain& chain, const ChainKey& key);

// ---- Trees ----------------------------------------------------------------

/// A tree relabeled into canonical form.  orig_vertex[c] is the submitted
/// index of canonical vertex c; orig_edge[c] the submitted index of
/// canonical edge c.
struct CanonicalTree {
  Tree tree;
  std::vector<int> orig_vertex;
  std::vector<int> orig_edge;

  int map_edge_back(int canonical_edge) const {
    return orig_edge[static_cast<std::size_t>(canonical_edge)];
  }
};

/// Canonicalize a free tree: root at the centroid (of the two possible
/// centroids, the one with the smaller rooted subtree hash), then relabel
/// vertices in preorder visiting each vertex's children in ascending
/// (subtree hash, edge-weight bit pattern) order.  Isomorphic trees —
/// any vertex relabeling, any child order — produce identical canonical
/// trees up to 128-bit subtree-hash collisions.  O(n log n).  All
/// canonicalization scratch (rooted forms, child lists, subtree hashes)
/// comes from `arena` (null = per-thread fallback), so steady state only
/// allocates the returned canonical tree and its index maps.
CanonicalTree canonical_tree(const Tree& tree, util::Arena* arena = nullptr);

/// A tree's cache key without the relabeled copy.  `root` is the
/// submitted index of canonical vertex 0; orig_edge[c] is the submitted
/// index of canonical edge c, exactly as in CanonicalTree.  Canonical
/// vertex c >= 1 is the far end of canonical edge c − 1, which is how
/// materialize_tree rebuilds the vertex map without storing it.
struct TreeKey {
  Fingerprint fingerprint;
  int root = 0;
  std::vector<int> orig_edge;

  int map_edge_back(int canonical_edge) const {
    return orig_edge[static_cast<std::size_t>(canonical_edge)];
  }
};

/// One canonicalization pass: CSR, centroids, their rooted forms, and a
/// preorder walk of the chosen one that fills the edge map.  The
/// fingerprint is finished from the chosen rooted form's hash, so
/// key.fingerprint == tree_fingerprint(tree).  Scratch from `arena`
/// (null = per-thread fallback); allocates only the edge map.  O(n log n).
TreeKey tree_key(const Tree& tree, util::Arena* arena = nullptr);

/// The relabeled canonical tree for `key`, which must come from
/// tree_key(tree); takes over key.orig_edge.  O(n).
CanonicalTree materialize_tree(const Tree& tree, TreeKey key);

// ---- Fingerprints ---------------------------------------------------------

/// Fingerprint of the canonical orientation of `chain` (reversal-stable).
Fingerprint chain_fingerprint(const Chain& chain);

/// Fingerprint of the canonical form of `tree` (relabeling- and
/// child-order-stable).  Scratch from `arena` (null = per-thread
/// fallback); allocates nothing in steady state.
Fingerprint tree_fingerprint(const Tree& tree, util::Arena* arena = nullptr);

}  // namespace tgp::graph

// std::hash so Fingerprint can key unordered containers directly.
template <>
struct std::hash<tgp::graph::Fingerprint> {
  std::size_t operator()(const tgp::graph::Fingerprint& f) const noexcept {
    return static_cast<std::size_t>(f.fold());
  }
};
