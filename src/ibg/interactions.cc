#include "ibg/interactions.h"

#include <algorithm>
#include <cmath>

namespace wfit {

double DegreeOfInteraction(const IndexBenefitGraph& ibg, int bit_a,
                           int bit_b) {
  WFIT_CHECK(bit_a != bit_b, "doi of an index with itself");
  const Mask mask_a = Mask{1} << bit_a;
  const Mask mask_b = Mask{1} << bit_b;
  // Indices that never appear in any plan cannot change any cost.
  if ((ibg.relevant_used() & mask_a) == 0 ||
      (ibg.relevant_used() & mask_b) == 0) {
    return 0.0;
  }
  // Contexts are enumerated within the plan-relevant indices, truncated to
  // the IBG's enumeration budget (doi is pairwise, so the budget is spent
  // per pair). The contexts (and their a/b/ab extensions within the lowest
  // 12 relevant bits) land in the IBG's dense enumeration table.
  ibg.PrepareEnumeration();
  const Mask universe =
      KeepLowestBits(ibg.relevant_used() & ~(mask_a | mask_b),
                     IndexBenefitGraph::kMaxEnumerationBits - 2);
  double best = 0.0;
  if (ibg.InDenseDomain(universe | mask_a | mask_b)) {
    // Every context and its a/b/ab extensions are dense-table reads: sweep
    // the compressed universe directly. A max does not depend on the order
    // contexts are visited in, and each term is the same expression.
    const Mask da = ibg.DenseMask(mask_a);
    const Mask db = ibg.DenseMask(mask_b);
    for (SubmaskIterator it(ibg.DenseMask(universe)); !it.done(); it.Next()) {
      const Mask x = it.mask();
      double v = ibg.DenseCost(x) - ibg.DenseCost(x | da) -
                 ibg.DenseCost(x | db) + ibg.DenseCost(x | da | db);
      best = std::max(best, std::abs(v));
    }
    return best;
  }
  for (SubmaskIterator it(universe); !it.done(); it.Next()) {
    Mask x = it.mask();
    // |cost(X) − cost(X∪a) − cost(X∪b) + cost(X∪ab)|
    double v = ibg.CostOf(x) - ibg.CostOf(x | mask_a) -
               ibg.CostOf(x | mask_b) + ibg.CostOf(x | mask_a | mask_b);
    best = std::max(best, std::abs(v));
  }
  return best;
}

std::vector<InteractionEntry> ComputeInteractions(
    const IndexBenefitGraph& ibg) {
  std::vector<InteractionEntry> out;
  const auto& cands = ibg.candidates();
  const Mask used = ibg.relevant_used();
  for (size_t i = 0; i < cands.size(); ++i) {
    if ((used & (Mask{1} << i)) == 0) continue;
    for (size_t j = i + 1; j < cands.size(); ++j) {
      if ((used & (Mask{1} << j)) == 0) continue;
      double doi = DegreeOfInteraction(ibg, static_cast<int>(i),
                                       static_cast<int>(j));
      if (doi > 0.0) {
        out.push_back(InteractionEntry{cands[i], cands[j], doi});
      }
    }
  }
  return out;
}

}  // namespace wfit
