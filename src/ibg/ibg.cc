#include "ibg/ibg.h"

#include <algorithm>
#include <limits>
#include <string>

#include "obs/trace.h"

namespace wfit {

namespace {

/// Builds `set` from `mask` over `candidates` reusing `set`'s capacity.
void ToSetInto(const std::vector<IndexId>& candidates, Mask mask,
               IndexSet* set) {
  set->clear();
  Mask rest = mask;
  while (rest != 0) {
    int bit = LowestBit(rest);
    rest &= rest - 1;
    set->Add(candidates[static_cast<size_t>(bit)]);
  }
}

}  // namespace

IndexBenefitGraph::IndexBenefitGraph(const Statement& q,
                                     const WhatIfOptimizer& optimizer,
                                     std::vector<IndexId> candidates,
                                     size_t max_nodes)
    : candidates_(std::move(candidates)) {
  WFIT_CHECK(candidates_.size() <= 25, "IBG: too many candidates for a mask");
  WFIT_CHECK(max_nodes >= 1, "IBG: node budget must allow the root");
  {
    obs::StageSpan span(obs::Stage::kIbgBuild, "ibg.build");
    while (!TryBuild(q, optimizer, max_nodes, &build_calls_)) {
      // Budget exceeded: shed the tail half of the candidate list (callers
      // rank by benefit) and rebuild.
      size_t keep = candidates_.size() / 2;
      truncated_.insert(truncated_.end(), candidates_.begin() + keep,
                        candidates_.end());
      candidates_.resize(keep);
    }
    if (span.trace_id() != 0) {
      span.SetDetail(std::to_string(nodes_.size()) + " nodes, " +
                     std::to_string(build_calls_) + " probes");
    }
  }
}

bool IndexBenefitGraph::TryBuild(const Statement& q,
                                 const WhatIfOptimizer& optimizer,
                                 size_t max_nodes, uint64_t* calls) {
  const size_t n = candidates_.size();
  // Closure bound: the graph can never exceed min(2^n, budget + 1) nodes
  // (the level that would cross the budget is never probed).
  const size_t bound = std::min(size_t{1} << n, max_nodes + 1);
  nodes_.Reset(std::min(bound, size_t{1} << 12));
  cost_cache_.Reset(64);
  enum_ready_ = false;
  bit_of_.clear();
  relevant_used_ = 0;
  for (size_t i = 0; i < n; ++i) {
    bit_of_[candidates_[i]] = static_cast<int>(i);
  }
  root_ = n == 0 ? 0 : static_cast<Mask>((1u << n) - 1);

  // Level-synchronous BFS. All masks of one level are distinct and absent
  // from lower levels (a level-ℓ node has exactly ℓ bits removed from the
  // root), so the whole level is checked against the budget before any of
  // it is probed, and each level is probed in canonical (ascending mask)
  // order.
  std::vector<Mask> level = {root_};
  std::vector<Mask> next_level;
  IndexSet scratch;
  while (!level.empty()) {
    if (nodes_.size() + level.size() > max_nodes && n != 0) return false;
    *calls += level.size();
    next_level.clear();
    for (const Mask y : level) {
      ToSetInto(candidates_, y, &scratch);
      const PlanSummary plan = optimizer.Optimize(q, scratch);
      Mask used = ToMask(plan.used);
      WFIT_CHECK(IsSubset(used, y),
                 "optimizer used an index outside the config");
      nodes_.Insert(y, Node{plan.cost, used});
      relevant_used_ |= used;
      // One child per used index: remove it.
      Mask rest = used;
      while (rest != 0) {
        int bit = LowestBit(rest);
        rest &= rest - 1;
        next_level.push_back(y & ~(Mask{1} << bit));
      }
    }
    // Canonical mask order; duplicates (several parents sharing a child)
    // collapse here.
    std::sort(next_level.begin(), next_level.end());
    next_level.erase(std::unique(next_level.begin(), next_level.end()),
                     next_level.end());
    level.swap(next_level);
  }
  return true;
}

const IndexBenefitGraph::Node& IndexBenefitGraph::Covering(
    Mask subset) const {
  Mask y = root_;
  while (true) {
    const Node* node = nodes_.Find(y);
    WFIT_CHECK(node != nullptr, "IBG descent reached a missing node");
    Mask extra = node->used & ~subset;
    if (extra == 0) return *node;
    y &= ~(Mask{1} << LowestBit(extra));
  }
}

double IndexBenefitGraph::CostOf(Mask subset) const {
  WFIT_DCHECK(IsSubset(subset, root_), "CostOf: mask outside candidate set");
  // Only plan-relevant bits can change the answer; projecting first makes
  // the memo caches dense.
  const Mask key = subset & relevant_used_;
  if (InDenseDomain(key)) {
    // Dense fast path: the benefit/doi enumeration domain.
    return DenseCost(DenseMask(key));
  }
  if (const double* cached = cost_cache_.Find(key)) return *cached;
  double cost = Covering(key).cost;
  cost_cache_.Insert(key, cost);
  return cost;
}

Mask IndexBenefitGraph::UsedAt(Mask subset) const {
  WFIT_CHECK(IsSubset(subset, root_), "UsedAt: mask outside candidate set");
  return Covering(subset).used;
}

double IndexBenefitGraph::BenefitOf(int bit, Mask context) const {
  Mask without = context & ~(Mask{1} << bit);
  Mask with = without | (Mask{1} << bit);
  return CostOf(without) - CostOf(with);
}

void IndexBenefitGraph::PrepareEnumeration() const {
  if (enum_ready_) return;
  enum_universe_ = KeepLowestBits(relevant_used_, kMaxEnumerationBits);
  int k = 0;
  for (Mask rest = enum_universe_; rest != 0; rest &= rest - 1) {
    enum_pos_[LowestBit(rest)] = static_cast<uint8_t>(k++);
  }
  enum_costs_.resize(size_t{1} << k);
  // Expand each dense index back to its mask and take one descent; the
  // 2^k ≤ 4096 descents replace the millions of memoized hash lookups the
  // per-context searches would otherwise issue.
  for (size_t idx = 0; idx < enum_costs_.size(); ++idx) {
    Mask m = 0;
    size_t bits = idx;
    Mask universe = enum_universe_;
    while (bits != 0) {
      int low = LowestBit(universe);
      if (bits & 1) m |= Mask{1} << low;
      universe &= universe - 1;
      bits >>= 1;
    }
    enum_costs_[idx] = Covering(m).cost;
  }
  enum_ready_ = true;
}

double IndexBenefitGraph::MaxBenefit(int bit) const {
  Mask self = Mask{1} << bit;
  if ((relevant_used_ & self) == 0) {
    // Never used in any plan: it cannot produce positive benefit, but an
    // update's maintenance can still be triggered; check the empty context.
    return BenefitOf(bit, 0);
  }
  PrepareEnumeration();
  // Bound the enumeration: beyond kMaxEnumerationBits plan-relevant
  // indices, keep the lowest bits (deterministic truncation). The universe
  // is computed exactly as before the dense memo existed — when self is
  // among the lowest relevant bits it may include one bit beyond
  // enum_universe_, and those contexts simply take the memoized-descent
  // path instead of the dense array.
  Mask universe = KeepLowestBits(relevant_used_ & ~self, kMaxEnumerationBits);
  double best = -std::numeric_limits<double>::infinity();
  if (InDenseDomain(universe | self)) {
    // Every context is a dense-table read: sweep the compressed universe
    // directly. A max does not depend on the order contexts are visited
    // in, and each benefit is the same cost(X) − cost(X ∪ {bit}).
    const Mask dense_self = DenseMask(self);
    for (SubmaskIterator it(DenseMask(universe)); !it.done(); it.Next()) {
      const Mask x = it.mask();
      best = std::max(best, DenseCost(x) - DenseCost(x | dense_self));
    }
    return best;
  }
  for (SubmaskIterator it(universe); !it.done(); it.Next()) {
    best = std::max(best, BenefitOf(bit, it.mask()));
  }
  return best;
}

int IndexBenefitGraph::BitOf(IndexId id) const {
  auto it = bit_of_.find(id);
  return it == bit_of_.end() ? -1 : it->second;
}

Mask IndexBenefitGraph::ToMask(const IndexSet& set) const {
  Mask m = 0;
  for (IndexId id : set) {
    int bit = BitOf(id);
    if (bit >= 0) m |= Mask{1} << bit;
  }
  return m;
}

IndexSet IndexBenefitGraph::ToSet(Mask mask) const {
  IndexSet out;
  ToSetInto(candidates_, mask, &out);
  return out;
}

}  // namespace wfit
