#include "core/work_function.h"

#include <algorithm>
#include <cmath>

namespace wfit {

namespace {

/// Cost comparisons tolerate accumulated floating-point error; scores are
/// sums of what-if costs, so a relative epsilon is required.
bool NearlyEqual(double a, double b) {
  double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= 1e-9 * scale;
}

}  // namespace

WfaInstance::WfaInstance(std::vector<IndexId> members,
                         const CostModel& cost_model, Mask initial_config)
    : members_(std::move(members)) {
  WFIT_CHECK(members_.size() <= 20, "part too large for a WFA instance");
  InitCosts(cost_model);
  const size_t n = size_t{1} << members_.size();
  WFIT_CHECK(initial_config < n, "initial config outside the part");
  w_.resize(n);
  for (Mask s = 0; s < n; ++s) {
    w_[s] = TransitionCost(initial_config, s);
  }
  curr_rec_ = initial_config;
}

WfaInstance::WfaInstance(std::vector<IndexId> members,
                         const CostModel& cost_model,
                         std::vector<double> work_function, Mask current_rec)
    : members_(std::move(members)), w_(std::move(work_function)) {
  WFIT_CHECK(members_.size() <= 20, "part too large for a WFA instance");
  InitCosts(cost_model);
  WFIT_CHECK(w_.size() == (size_t{1} << members_.size()),
             "work function size mismatch");
  WFIT_CHECK(current_rec < w_.size(), "current rec outside the part");
  curr_rec_ = current_rec;
}

WfaInstance::WfaInstance(std::vector<IndexId> members,
                         std::vector<double> create_costs,
                         std::vector<double> drop_costs, Mask initial_config)
    : members_(std::move(members)),
      create_cost_(std::move(create_costs)),
      drop_cost_(std::move(drop_costs)) {
  WFIT_CHECK(members_.size() <= 20, "part too large for a WFA instance");
  WFIT_CHECK(create_cost_.size() == members_.size() &&
                 drop_cost_.size() == members_.size(),
             "transition cost vectors must match member count");
  const size_t n = size_t{1} << members_.size();
  WFIT_CHECK(initial_config < n, "initial config outside the part");
  w_.resize(n);
  for (Mask s = 0; s < n; ++s) {
    w_[s] = TransitionCost(initial_config, s);
  }
  curr_rec_ = initial_config;
}

WfaInstance::WfaInstance(std::vector<IndexId> members,
                         std::vector<double> create_costs,
                         std::vector<double> drop_costs,
                         std::vector<double> work_function, Mask current_rec)
    : members_(std::move(members)),
      create_cost_(std::move(create_costs)),
      drop_cost_(std::move(drop_costs)),
      w_(std::move(work_function)) {
  WFIT_CHECK(members_.size() <= 20, "part too large for a WFA instance");
  WFIT_CHECK(create_cost_.size() == members_.size() &&
                 drop_cost_.size() == members_.size(),
             "transition cost vectors must match member count");
  WFIT_CHECK(w_.size() == (size_t{1} << members_.size()),
             "work function size mismatch");
  WFIT_CHECK(current_rec < w_.size(), "current rec outside the part");
  curr_rec_ = current_rec;
}

void WfaInstance::InitCosts(const CostModel& cost_model) {
  create_cost_.reserve(members_.size());
  drop_cost_.reserve(members_.size());
  for (IndexId id : members_) {
    create_cost_.push_back(cost_model.CreateCost(id));
    drop_cost_.push_back(cost_model.DropCost(id));
  }
}

double WfaInstance::TransitionCost(Mask from, Mask to) const {
  double cost = 0.0;
  Mask created = to & ~from;
  Mask dropped = from & ~to;
  while (created != 0) {
    int bit = LowestBit(created);
    created &= created - 1;
    cost += create_cost_[static_cast<size_t>(bit)];
  }
  while (dropped != 0) {
    int bit = LowestBit(dropped);
    dropped &= dropped - 1;
    cost += drop_cost_[static_cast<size_t>(bit)];
  }
  return cost;
}

void WfaInstance::Relax(std::vector<double>* v) const {
  // min_X { v[X] + δ(X, S) } for all S: since δ is a per-coordinate sum,
  // one simultaneous relaxation per coordinate is exact (distance transform
  // on the hypercube). Within a coordinate the two directions cannot chain
  // (δ+ and δ− are non-negative), so the pairwise update is simultaneous.
  std::vector<double>& vals = *v;
  const size_t n = vals.size();
  for (size_t bit = 0; bit < members_.size(); ++bit) {
    const Mask m = Mask{1} << bit;
    const double up = create_cost_[bit];    // 0 -> 1 transition
    const double down = drop_cost_[bit];    // 1 -> 0 transition
    for (Mask s = 0; s < n; ++s) {
      if ((s & m) != 0) continue;
      const Mask s1 = s | m;
      const double v0 = vals[s];
      const double v1 = vals[s1];
      vals[s] = std::min(v0, v1 + down);
      vals[s1] = std::min(v1, v0 + up);
    }
  }
}

void WfaInstance::AnalyzeQuery(const PartCostFn& cost) {
  const size_t n = w_.size();
  // Stage 1: new work function w'[S] = min_X { w[X] + cost(X) + δ(X, S) }.
  // Both buffers are filled in one pass and the relaxed one is swapped
  // into w_ at the end (double-buffering instead of a per-statement copy).
  v_scratch_.resize(n);
  relax_scratch_.resize(n);
  for (Mask s = 0; s < n; ++s) {
    const double v = w_[s] + cost(s);
    v_scratch_[s] = v;
    relax_scratch_[s] = v;
  }
  std::vector<double>& relaxed = relax_scratch_;
  Relax(&relaxed);

  // Stage 2: recommendation = argmin score(S) among S with S ∈ p[S], i.e.
  // states whose new work function took the "no final transition" path:
  // w'[S] == w[S] + cost(S). Lemma 9.2 of Borodin & El-Yaniv guarantees a
  // minimum-score state satisfies this.
  bool have_best = false;
  Mask best = 0;
  double best_score = 0.0;
  for (Mask s = 0; s < n; ++s) {
    if (!NearlyEqual(relaxed[s], v_scratch_[s])) continue;  // S ∉ p[S]
    double score = relaxed[s] + TransitionCost(s, curr_rec_);
    if (!have_best || score + 1e-12 < best_score ||
        (NearlyEqual(score, best_score) && LexPrefers(s, best))) {
      have_best = true;
      best = s;
      best_score = score;
    }
  }
  WFIT_CHECK(have_best, "no self-path state found (Lemma 9.2 violated)");
  std::swap(w_, relax_scratch_);
  curr_rec_ = best;
}

void WfaInstance::ApplyFeedback(Mask f_plus, Mask f_minus) {
  WFIT_CHECK((f_plus & f_minus) == 0, "contradictory feedback votes");
  const size_t n = w_.size();
  WFIT_CHECK(f_plus < n && f_minus < n, "feedback outside the part");
  // Consistency: the recommendation must contain F+ and avoid F−.
  curr_rec_ = (curr_rec_ & ~f_minus) | f_plus;
  // Recoverability: bump w so that inequality (5.1) holds — every state S
  // must be at least δ(S, Scons) + δ(Scons, S) worse than the new
  // recommendation, as if the workload itself had led here.
  const double w_rec = w_[curr_rec_];
  for (Mask s = 0; s < n; ++s) {
    const Mask s_cons = (s & ~f_minus) | f_plus;
    const double min_diff =
        TransitionCost(s, s_cons) + TransitionCost(s_cons, s);
    const double diff = w_[s] + TransitionCost(s, curr_rec_) - w_rec;
    if (diff < min_diff) {
      w_[s] += min_diff - diff;
    }
  }
}

Mask WfaInstance::ToMask(const IndexSet& set) const {
  Mask m = 0;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (set.Contains(members_[i])) m |= Mask{1} << i;
  }
  return m;
}

IndexSet WfaInstance::ToSet(Mask mask) const {
  IndexSet out;
  Mask rest = mask;
  while (rest != 0) {
    int bit = LowestBit(rest);
    rest &= rest - 1;
    out.Add(members_[static_cast<size_t>(bit)]);
  }
  return out;
}

IndexSet WfaInstance::RecommendationSet() const { return ToSet(curr_rec_); }

}  // namespace wfit
