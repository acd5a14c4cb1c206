// Index Benefit Graph (Schnaitter, Polyzotis, Getoor: "Index interactions in
// physical design tuning", PVLDB 2009 — reference [16] of the paper). The
// IBG of a statement q compactly encodes cost(q, X) for every X ⊆ U using
// one what-if call per node: node Y stores cost(q, Y) and used(q, Y); its
// children remove one used index each. The cost of an arbitrary subset is
// found by descending from the root while removing used indices that are
// not in the subset ("covering node" lookup).
//
// Construction is a level-synchronous BFS: a node's children depend only
// on its own `used` set, so each level is budget-checked as a whole and
// then probed in canonical mask order.
//
// Thread safety after construction: the node table is immutable, but cost
// lookups memoize into mutable caches, so an IBG must be read by ONE thread
// at a time. Analysis is serial: every IBG is built and consumed on the
// thread that analyzes its statement, so this holds by construction and
// is not checked at run time.
#ifndef WFIT_IBG_IBG_H_
#define WFIT_IBG_IBG_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bits.h"
#include "common/flat_mask_map.h"
#include "optimizer/what_if.h"

namespace wfit {

class IndexBenefitGraph {
 public:
  /// Builds the IBG of `q` over `candidates` (local bit i corresponds to
  /// candidates[i]). Indices on tables the statement does not touch are
  /// harmless but waste bits; callers should pre-filter for efficiency.
  /// Requires candidates.size() <= 25 (masks are 32-bit).
  ///
  /// `max_nodes` bounds the what-if calls a single statement may consume
  /// (the paper reports 5-100 calls/query on DB2). If the node closure
  /// exceeds the budget, the builder retries with the first half of the
  /// candidate list — callers that rank candidates by current benefit
  /// (chooseCands does) therefore shed the least valuable ones first.
  /// Dropped candidates are reported via truncated_candidates().
  IndexBenefitGraph(const Statement& q, const WhatIfOptimizer& optimizer,
                    std::vector<IndexId> candidates,
                    size_t max_nodes = 1u << 20);

  /// Candidates shed by the node-budget fallback (empty in the common case).
  const std::vector<IndexId>& truncated_candidates() const {
    return truncated_;
  }

  const std::vector<IndexId>& candidates() const { return candidates_; }

  /// cost(q, X) for any X over the candidate bits, via covering-node
  /// descent (memoized). Never triggers a what-if call.
  double CostOf(Mask subset) const;

  /// used(q, Z) of the covering node for `subset`; a subset of `subset`.
  Mask UsedAt(Mask subset) const;

  /// Union of `used` masks over all IBG nodes: the only indices that can
  /// ever influence cost(q, ·). Benefit and doi searches enumerate within
  /// this mask.
  Mask relevant_used() const { return relevant_used_; }

  /// benefit_q({bit}, context) = cost(context) − cost(context ∪ {bit}).
  double BenefitOf(int bit, Mask context) const;

  /// β_n(a) = max_X benefit_q({a}, X) over X ⊆ relevant_used() − {a}.
  /// When more than kMaxEnumerationBits indices are plan-relevant the
  /// context enumeration is truncated to the lowest bits (exact in
  /// practice: real plans use far fewer indices).
  double MaxBenefit(int bit) const;

  /// Enumeration budget for benefit/doi context searches.
  static constexpr int kMaxEnumerationBits = 12;

  /// Precomputes cost(q, X) for every X in the benefit/doi enumeration
  /// domain (the lowest kMaxEnumerationBits of relevant_used()) into a
  /// dense array, turning the O(2^k) context searches of MaxBenefit and
  /// DegreeOfInteraction into array reads instead of per-context hashed
  /// descents. Idempotent; called automatically by MaxBenefit and the doi
  /// code. Counts as a memoizing read (one reader at a time).
  void PrepareEnumeration() const;

  /// True once PrepareEnumeration has run and every bit of `domain` lies
  /// in the dense enumeration domain, so the cost of any X ⊆ `domain` is
  /// DenseCost(DenseMask(X)).
  bool InDenseDomain(Mask domain) const {
    return enum_ready_ && IsSubset(domain, enum_universe_);
  }
  /// Compresses X ⊆ the dense domain to its index in the dense table. The
  /// compression is a bitwise bijection: DenseMask(X ∪ Y) ==
  /// DenseMask(X) | DenseMask(Y), so contexts can be enumerated directly
  /// as submasks of a compressed universe.
  Mask DenseMask(Mask subset) const {
    Mask dense = 0;
    for (Mask rest = subset; rest != 0; rest &= rest - 1) {
      dense |= Mask{1} << enum_pos_[LowestBit(rest)];
    }
    return dense;
  }
  /// cost(q, X) for the X with DenseMask(X) == `dense`.
  double DenseCost(Mask dense) const { return enum_costs_[dense]; }

  /// Local bit of a global index id, or -1 if not a candidate.
  int BitOf(IndexId id) const;

  /// Translates a global configuration to a local mask (ignores ids outside
  /// the candidate list).
  Mask ToMask(const IndexSet& set) const;
  IndexSet ToSet(Mask mask) const;

  size_t num_nodes() const { return nodes_.size(); }
  /// What-if calls consumed during construction.
  uint64_t build_calls() const { return build_calls_; }

 private:
  struct Node {
    double cost = 0.0;
    Mask used = 0;
  };

  /// Level-synchronous BFS over the node closure; returns false when the
  /// closure exceeds `max_nodes` (decided per level BEFORE probing it).
  /// Accumulates the optimizer calls it issued into `*calls`.
  bool TryBuild(const Statement& q, const WhatIfOptimizer& optimizer,
                size_t max_nodes, uint64_t* calls);

  /// Descends from the root to the covering node of `subset` (no memo).
  const Node& Covering(Mask subset) const;

  std::vector<IndexId> candidates_;
  std::vector<IndexId> truncated_;
  std::unordered_map<IndexId, int> bit_of_;
  /// Node table: open-addressed, pre-sized from min(closure, budget) at
  /// build time; immutable afterwards.
  FlatMaskMap<Node> nodes_;
  /// Memo for CostOf misses outside the dense enumeration domain.
  mutable FlatMaskMap<double> cost_cache_;
  /// Dense cost table over enum_universe_ (lazy; see PrepareEnumeration).
  mutable std::vector<double> enum_costs_;
  mutable Mask enum_universe_ = 0;
  mutable bool enum_ready_ = false;
  /// Dense rank of each universe bit, for mask compression.
  mutable uint8_t enum_pos_[32] = {};
  Mask root_ = 0;
  Mask relevant_used_ = 0;
  uint64_t build_calls_ = 0;
};

}  // namespace wfit

#endif  // WFIT_IBG_IBG_H_
