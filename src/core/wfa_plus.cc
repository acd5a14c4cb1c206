#include "core/wfa_plus.h"

#include <algorithm>
#include <set>

namespace wfit {

std::vector<TableId> StatementTables(const Statement& q) {
  std::vector<TableId> tables;
  tables.reserve(q.tables.size());
  for (const StatementTable& t : q.tables) tables.push_back(t.table);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  return tables;
}

std::vector<IndexId> RelevantCandidates(const std::vector<TableId>& tables,
                                        const IndexPool& pool,
                                        const std::vector<IndexId>& universe,
                                        size_t cap) {
  std::vector<IndexId> out;
  for (IndexId id : universe) {
    if (std::binary_search(tables.begin(), tables.end(), pool.def(id).table)) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  if (out.size() > cap) out.resize(cap);
  return out;
}

std::vector<IndexId> RelevantCandidates(const Statement& q,
                                        const IndexPool& pool,
                                        const std::vector<IndexId>& universe,
                                        size_t cap) {
  return RelevantCandidates(StatementTables(q), pool, universe, cap);
}

WfaPlus::WfaPlus(const IndexPool* pool, const WhatIfOptimizer* optimizer,
                 std::vector<IndexSet> partition,
                 const IndexSet& initial_config, std::string display_name,
                 size_t ibg_node_budget)
    : pool_(pool),
      optimizer_(optimizer),
      partition_(std::move(partition)),
      name_(std::move(display_name)),
      ibg_node_budget_(ibg_node_budget) {
  WFIT_CHECK(pool != nullptr && optimizer != nullptr,
             "WfaPlus requires pool and optimizer");
  std::set<IndexId> seen;
  for (const IndexSet& part : partition_) {
    WFIT_CHECK(!part.empty(), "empty part in stable partition");
    std::vector<IndexId> members;
    for (IndexId id : part) {
      WFIT_CHECK(seen.insert(id).second,
                 "stable partition parts must be disjoint");
      members.push_back(id);
      all_members_.push_back(id);
    }
    // Initial configuration: S0 ∩ Ck.
    Mask init = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      if (initial_config.Contains(members[i])) init |= Mask{1} << i;
    }
    instances_.push_back(
        WfaInstance(std::move(members), optimizer->cost_model(), init));
  }
  std::sort(all_members_.begin(), all_members_.end());
}

void WfaPlus::AnalyzeQuery(const Statement& q) {
  // One IBG per part: WFA(k) needs cost(q, X) only for X ⊆ Ck, so each
  // part's statement-relevant members get their own (small) benefit graph.
  // This keeps every candidate's signal exact — a single statement-wide
  // graph would have to shed candidates under the mask/node budgets.
  AnalyzePartitioned(q, *pool_, *optimizer_, ibg_node_budget_, &instances_);
}

void AnalyzePartitioned(const Statement& q, const IndexPool& pool,
                        const WhatIfOptimizer& optimizer,
                        size_t ibg_node_budget,
                        std::vector<WfaInstance>* instances) {
  const std::vector<TableId> tables = StatementTables(q);
  for (WfaInstance& instance : *instances) {
    const std::vector<IndexId>& members = instance.members();
    std::vector<IndexId> relevant = RelevantCandidates(tables, pool, members);
    if (relevant.empty()) {
      // The statement cannot touch this part: a constant cost function
      // leaves the work-function differentials (hence all decisions)
      // unchanged, so skip the what-if machinery entirely.
      instance.AnalyzeQuery([](Mask) { return 0.0; });
      continue;
    }
    IndexBenefitGraph ibg(q, optimizer, relevant, ibg_node_budget);
    std::vector<int> ibg_bit(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      ibg_bit[i] = ibg.BitOf(members[i]);
    }
    instance.AnalyzeQuery([&](Mask part_mask) {
      Mask m = 0;
      Mask rest = part_mask;
      while (rest != 0) {
        int bit = LowestBit(rest);
        rest &= rest - 1;
        int ib = ibg_bit[static_cast<size_t>(bit)];
        if (ib >= 0) m |= Mask{1} << ib;
      }
      return ibg.CostOf(m);
    });
  }
}

IndexSet WfaPlus::Recommendation() const {
  IndexSet out;
  for (const WfaInstance& instance : instances_) {
    out = out.Union(instance.RecommendationSet());
  }
  return out;
}

void WfaPlus::Feedback(const IndexSet& f_plus, const IndexSet& f_minus) {
  for (WfaInstance& instance : instances_) {
    instance.ApplyFeedback(instance.ToMask(f_plus),
                           instance.ToMask(f_minus));
  }
}

size_t WfaPlus::TotalStates() const {
  size_t total = 0;
  for (const WfaInstance& instance : instances_) {
    total += instance.num_states();
  }
  return total;
}

}  // namespace wfit
