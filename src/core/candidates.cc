#include "core/candidates.h"

#include <algorithm>
#include <limits>

#include "core/wfa_plus.h"
#include "ibg/interactions.h"

namespace wfit {

CandidateSelector::CandidateSelector(IndexPool* pool,
                                     const WhatIfOptimizer* optimizer,
                                     const CandidateOptions& options,
                                     uint64_t seed)
    : pool_(pool),
      optimizer_(optimizer),
      options_(options),
      rng_(seed),
      idx_stats_(options.hist_size),
      int_stats_(options.hist_size) {
  WFIT_CHECK(pool != nullptr && optimizer != nullptr,
             "CandidateSelector requires pool and optimizer");
}

double CandidateSelector::UniverseBenefit(
    IndexId a, const std::vector<double>& benefit_of) const {
  // universe_ is sorted; every queried id comes from it.
  const std::vector<IndexId>& ids = universe_.ids();
  auto it = std::lower_bound(ids.begin(), ids.end(), a);
  WFIT_DCHECK(it != ids.end() && *it == a, "id outside the universe");
  return benefit_of[static_cast<size_t>(it - ids.begin())];
}

std::vector<IndexId> CandidateSelector::TopIndices(
    const std::vector<IndexId>& x, size_t u, const IndexSet& monitored,
    const std::vector<double>& benefit_of) const {
  if (u == 0 || x.empty()) return {};
  struct Scored {
    IndexId id;
    double score;
  };
  std::vector<Scored> scored;
  scored.reserve(x.size());
  for (IndexId a : x) {
    double score = UniverseBenefit(a, benefit_of);
    if (!monitored.Contains(a)) {
      // A new index must displace a monitored one: charge (a scaled share
      // of) its materialization cost as required extra evidence.
      score -= options_.creation_penalty_factor *
               optimizer_->cost_model().CreateCost(a);
    }
    scored.push_back(Scored{a, score});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.id < b.id;
                   });
  std::vector<IndexId> out;
  for (const Scored& s : scored) {
    if (out.size() >= u) break;
    if (s.score <= 0.0) break;  // no evidence of benefit: stop adding
    out.push_back(s.id);
  }
  return out;
}

SelectorState CandidateSelector::ExportState() const {
  SelectorState state;
  state.universe = universe_;
  state.position = position_;
  state.rng_state = rng_.SaveState();
  state.benefit_windows = idx_stats_.Export();
  state.interaction_windows = int_stats_.Export();
  return state;
}

Status CandidateSelector::RestoreState(const SelectorState& state) {
  if (!rng_.LoadState(state.rng_state)) {
    return Status::InvalidArgument("selector state: bad RNG state");
  }
  universe_ = state.universe;
  position_ = state.position;
  idx_stats_ = BenefitStats(options_.hist_size);
  for (const auto& [id, entries] : state.benefit_windows) {
    idx_stats_.RestoreWindow(id, entries);
  }
  int_stats_ = InteractionStats(options_.hist_size);
  for (const auto& [key, entries] : state.interaction_windows) {
    int_stats_.RestoreWindow(key, entries);
  }
  return Status::Ok();
}

CandidateAnalysis CandidateSelector::ChooseCands(
    const Statement& q, const IndexSet& materialized,
    const std::vector<IndexSet>& current_partition) {
  ++position_;

  // Line 1: U ← U ∪ extractIndices(q).
  for (IndexId id : ExtractIndices(q, pool_, options_.extractor)) {
    universe_.Add(id);
  }

  // Current benefit per universe id, computed ONCE per statement (aligned
  // with universe_.ids()): the ranking sort below and topIndices both
  // consume it, instead of re-walking the stats windows per comparison.
  const std::vector<IndexId>& universe_ids = universe_.ids();
  benefit_scratch_.clear();
  benefit_scratch_.reserve(universe_ids.size());
  for (IndexId a : universe_ids) {
    benefit_scratch_.push_back(idx_stats_.CurrentBenefit(a, position_));
  }

  // Line 2: the statement's IBG over the query-relevant slice of U,
  // ranked by current benefit: the mask cap and the what-if node budget
  // both shed from the low-benefit tail.
  relevant_scratch_ = RelevantCandidates(
      q, *pool_, universe_ids, /*cap=*/std::numeric_limits<size_t>::max());
  std::stable_sort(relevant_scratch_.begin(), relevant_scratch_.end(),
                   [&](IndexId a, IndexId b) {
                     double ba = UniverseBenefit(a, benefit_scratch_);
                     double bb = UniverseBenefit(b, benefit_scratch_);
                     if (ba != bb) return ba > bb;
                     return a < b;
                   });
  if (relevant_scratch_.size() > options_.ibg_cap) {
    relevant_scratch_.resize(options_.ibg_cap);
  }
  auto ibg = std::make_shared<IndexBenefitGraph>(
      q, *optimizer_, relevant_scratch_, options_.ibg_node_budget);

  // Line 3: updateStats — benefits βn and pairwise doi from the IBG.
  for (size_t bit = 0; bit < ibg->candidates().size(); ++bit) {
    double beta = ibg->MaxBenefit(static_cast<int>(bit));
    idx_stats_.Record(ibg->candidates()[bit], position_, beta);
  }
  for (const InteractionEntry& entry : ComputeInteractions(*ibg)) {
    int_stats_.Record(entry.a, entry.b, position_, entry.doi);
  }

  // Lines 4-5: D ← M ∪ topIndices(U − M, idxCnt − |M|). topIndices scores
  // with the statistics INCLUDING this statement's Record calls above, so
  // the benefit scratch is refreshed here (the ranking scratch deliberately
  // predated them, exactly like the original two separate passes).
  benefit_scratch_.clear();
  for (IndexId a : universe_ids) {
    benefit_scratch_.push_back(idx_stats_.CurrentBenefit(a, position_));
  }
  IndexSet monitored;
  for (const IndexSet& part : current_partition) {
    monitored = monitored.Union(part);
  }
  not_materialized_scratch_.clear();
  for (IndexId a : universe_ids) {
    if (!materialized.Contains(a)) not_materialized_scratch_.push_back(a);
  }
  size_t budget = options_.idx_cnt > materialized.size()
                      ? options_.idx_cnt - materialized.size()
                      : 0;
  std::vector<IndexId> top = TopIndices(not_materialized_scratch_, budget,
                                        monitored, benefit_scratch_);
  IndexSet d = materialized;
  for (IndexId a : top) d.Add(a);

  // Line 6: choosePartition(D, stateCnt). The search evaluates this
  // exactly once per D pair (it builds its own dense doi matrix).
  DoiFn doi = [this](IndexId a, IndexId b) {
    return int_stats_.CurrentDoi(a, b, position_);
  };
  PartitionOptions popts;
  popts.state_cnt = options_.state_cnt;
  popts.rand_cnt = options_.rand_cnt;
  CandidateAnalysis out;
  out.partition =
      ChoosePartition(d.ids(), current_partition, doi, popts, &rng_);
  out.ibg = std::move(ibg);
  return out;
}

}  // namespace wfit
