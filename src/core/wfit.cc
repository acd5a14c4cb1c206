#include "core/wfit.h"

#include <algorithm>
#include <string>

#include "core/wfa_plus.h"
#include "obs/trace.h"

namespace wfit {

Wfit::Wfit(IndexPool* pool, const WhatIfOptimizer* optimizer,
           const IndexSet& initial_materialized, const WfitOptions& options)
    : pool_(pool),
      optimizer_(optimizer),
      options_(options),
      initial_materialized_(initial_materialized) {
  WFIT_CHECK(pool != nullptr && optimizer != nullptr,
             "Wfit requires pool and optimizer");
  selector_ = std::make_unique<CandidateSelector>(
      pool, optimizer, options.candidates, options.seed);
  // Fig. 4 initialization: C = S0, one singleton part per initial index.
  for (IndexId a : initial_materialized) {
    partition_.push_back(IndexSet{a});
    instances_.push_back(
        WfaInstance({a}, optimizer->cost_model(), /*initial_config=*/1));
    candidate_set_.Add(a);
    selector_->AddToUniverse(a);
  }
}

IndexSet Wfit::Recommendation() const {
  if (!rec_valid_) {
    IndexSet out;
    for (const WfaInstance& instance : instances_) {
      out = out.Union(instance.RecommendationSet());
    }
    cached_rec_ = std::move(out);
    rec_valid_ = true;
  }
  return cached_rec_;
}

size_t Wfit::TotalStates() const {
  size_t total = 0;
  for (const WfaInstance& instance : instances_) {
    total += instance.num_states();
  }
  return total;
}

void Wfit::Repartition(const std::vector<IndexSet>& new_partition) {
  // The new partition must cover what the DBA has materialized (here: the
  // current recommendation), or WFIT's state would contradict the physical
  // configuration (Sec. 5.2.1).
  IndexSet curr_rec = Recommendation();
  IndexSet new_universe;
  for (const IndexSet& part : new_partition) {
    new_universe = new_universe.Union(part);
  }
  WFIT_CHECK(curr_rec.IsSubsetOf(new_universe),
             "new partition does not cover materialized indices");

  const CostModel& model = optimizer_->cost_model();
  std::vector<WfaInstance> new_instances;
  new_instances.reserve(new_partition.size());
  for (const IndexSet& dm : new_partition) {
    std::vector<IndexId> members(dm.begin(), dm.end());
    const size_t n = size_t{1} << members.size();
    std::vector<double> x(n, 0.0);
    // Fig. 5 line 6: x[X] = Σk w(k)[Ck ∩ X].
    for (Mask mask = 0; mask < n; ++mask) {
      IndexSet x_set;
      Mask rest = mask;
      while (rest != 0) {
        int bit = LowestBit(rest);
        rest &= rest - 1;
        x_set.Add(members[static_cast<size_t>(bit)]);
      }
      double total = 0.0;
      for (const WfaInstance& old_instance : instances_) {
        total += old_instance.work_value(old_instance.ToMask(x_set));
      }
      // Fig. 5 line 7: charge materialization for indices new to the
      // candidate set: δ(S0 ∩ Dm − C, X − C).
      IndexSet from = initial_materialized_.Intersect(dm).Minus(candidate_set_);
      IndexSet to = x_set.Minus(candidate_set_);
      total += model.TransitionCost(from, to);
      x[mask] = total;
    }
    // Fig. 5 line 8: newRec = Dm ∩ currRec.
    Mask rec_mask = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      if (curr_rec.Contains(members[i])) rec_mask |= Mask{1} << i;
    }
    new_instances.push_back(
        WfaInstance(std::move(members), model, std::move(x), rec_mask));
  }

  instances_ = std::move(new_instances);
  partition_ = new_partition;
  candidate_set_ = new_universe;
  ++repartitions_;
  rec_valid_ = false;
}

void Wfit::AnalyzeQuery(const Statement& q) {
  // Fig. 6: chooseCands; M = what the DBA has materialized (the adopted
  // recommendation in this library's harness convention).
  CandidateAnalysis analysis = [&] {
    obs::SpanGuard span("choose_cands");
    return selector_->ChooseCands(q, Recommendation(), partition_);
  }();

  std::vector<IndexSet> new_partition = analysis.partition;
  CanonicalizePartition(&new_partition);
  std::vector<IndexSet> current = partition_;
  CanonicalizePartition(&current);
  if (new_partition != current) {
    obs::SpanGuard span("repartition");
    if (span.trace_id() != 0) {
      span.SetDetail(std::to_string(new_partition.size()) + " parts");
    }
    Repartition(new_partition);
  }

  // WFA+ step: one exact IBG per statement-relevant part (the selector's
  // statement-wide IBG serves the statistics only; per-part graphs keep
  // every monitored candidate's cost signal exact).
  {
    obs::SpanGuard span("wfa.update");
    if (span.trace_id() != 0) {
      span.SetDetail(std::to_string(instances_.size()) + " parts");
    }
    AnalyzePartitioned(q, *pool_, *optimizer_,
                       options_.candidates.ibg_node_budget, &instances_);
  }
  rec_valid_ = false;
}

WfitState Wfit::ExportState() const {
  WfitState state;
  state.instance_members.reserve(instances_.size());
  state.work_values.reserve(instances_.size());
  state.current_recs.reserve(instances_.size());
  for (const WfaInstance& instance : instances_) {
    state.instance_members.push_back(instance.members());
    state.work_values.push_back(instance.work_values());
    state.current_recs.push_back(instance.recommendation());
  }
  state.candidate_set = candidate_set_;
  state.initial_materialized = initial_materialized_;
  state.repartitions = repartitions_;
  state.feedback_events = feedback_events_;
  state.selector = selector_->ExportState();
  return state;
}

Status Wfit::RestoreState(const WfitState& state) {
  const size_t parts = state.instance_members.size();
  if (state.work_values.size() != parts ||
      state.current_recs.size() != parts) {
    return Status::InvalidArgument("wfit state: ragged per-part vectors");
  }
  IndexSet member_union;
  for (size_t i = 0; i < parts; ++i) {
    const std::vector<IndexId>& members = state.instance_members[i];
    if (members.empty() || members.size() > 20) {
      return Status::InvalidArgument("wfit state: bad part size");
    }
    const size_t n = size_t{1} << members.size();
    if (state.work_values[i].size() != n || state.current_recs[i] >= n) {
      return Status::InvalidArgument("wfit state: work function shape");
    }
    for (IndexId id : members) {
      if (id >= pool_->size()) {
        return Status::InvalidArgument("wfit state: member outside pool");
      }
      if (!member_union.Add(id)) {
        return Status::InvalidArgument("wfit state: parts not disjoint");
      }
    }
  }
  if (member_union != state.candidate_set) {
    return Status::InvalidArgument(
        "wfit state: candidate set does not match the partition");
  }
  WFIT_RETURN_IF_ERROR(selector_->RestoreState(state.selector));

  const CostModel& model = optimizer_->cost_model();
  std::vector<IndexSet> partition;
  std::vector<WfaInstance> instances;
  partition.reserve(parts);
  instances.reserve(parts);
  for (size_t i = 0; i < parts; ++i) {
    partition.push_back(IndexSet::FromVector(state.instance_members[i]));
    instances.push_back(WfaInstance(state.instance_members[i], model,
                                    state.work_values[i],
                                    state.current_recs[i]));
  }
  partition_ = std::move(partition);
  instances_ = std::move(instances);
  candidate_set_ = state.candidate_set;
  initial_materialized_ = state.initial_materialized;
  repartitions_ = state.repartitions;
  feedback_events_ = state.feedback_events;
  rec_valid_ = false;
  return Status::Ok();
}

void Wfit::Feedback(const IndexSet& f_plus, const IndexSet& f_minus) {
  // Seed the universe with every voted index: even when a vote cannot be
  // honored structurally, the index becomes a candidate for the future.
  for (IndexId a : f_plus) selector_->AddToUniverse(a);
  for (IndexId a : f_minus) selector_->AddToUniverse(a);

  // Positive votes on unmonitored indices: open a singleton part so the
  // consistency constraint F+ ⊆ S can hold.
  for (IndexId a : f_plus) {
    if (candidate_set_.Contains(a)) continue;
    partition_.push_back(IndexSet{a});
    instances_.push_back(
        WfaInstance({a}, optimizer_->cost_model(), /*initial_config=*/0));
    candidate_set_.Add(a);
  }

  for (WfaInstance& instance : instances_) {
    instance.ApplyFeedback(instance.ToMask(f_plus),
                           instance.ToMask(f_minus));
  }
  ++feedback_events_;
  rec_valid_ = false;
}

}  // namespace wfit
