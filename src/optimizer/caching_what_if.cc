#include "optimizer/caching_what_if.h"

#include "obs/trace.h"

namespace wfit {

namespace {

/// Validates `base` before the base-class initializer dereferences it.
const CostModel* BaseModel(const WhatIfOptimizer* base) {
  WFIT_CHECK(base != nullptr, "CachingWhatIfOptimizer requires a base");
  return &base->cost_model();
}

}  // namespace

CachingWhatIfOptimizer::CachingWhatIfOptimizer(
    const WhatIfOptimizer* base, const CrossStatementCacheOptions& cross_options)
    : WhatIfOptimizer(BaseModel(base)),
      base_(base),
      cross_options_(cross_options) {}

void CachingWhatIfOptimizer::BeginStatement(const Statement* q) {
  scope_ = q;
  cache_.clear();
  cross_ = nullptr;
  if (q == nullptr || cross_options_.max_templates == 0) return;

  const uint64_t fp = q->Fingerprint();
  auto it = template_index_.find(fp);
  if (it != template_index_.end()) {
    if (SameCostShape(it->second->shape, *q)) {
      // Warm template: move to the LRU front and attach.
      templates_.splice(templates_.begin(), templates_, it->second);
      cross_ = &templates_.front().plans;
      return;
    }
    // Fingerprint collision with a different shape: serving it would be
    // wrong, keeping both under one key needs chaining — evict instead
    // (counted; expected ~never).
    ++fingerprint_collisions_;
    templates_.erase(it->second);
    template_index_.erase(it);
  }
  // Second-touch admission: the first sighting only leaves a footprint; an
  // entry (and the per-probe caching work that comes with it) is created
  // when the template provably repeats.
  if (seen_once_.insert(fp).second) {
    if (seen_once_.size() > 8 * cross_options_.max_templates) {
      seen_once_.clear();  // coarse reset; costs a template one cold repeat
    }
    return;
  }
  if (templates_.size() >= cross_options_.max_templates) {
    template_index_.erase(templates_.back().fingerprint);
    templates_.pop_back();
  }
  TemplateEntry entry;
  entry.fingerprint = fp;
  entry.shape = *q;
  entry.shape.sql.clear();
  templates_.push_front(std::move(entry));
  template_index_.emplace(fp, templates_.begin());
  cross_ = &templates_.front().plans;
}

PlanSummary CachingWhatIfOptimizer::Optimize(const Statement& q,
                                             const IndexSet& x) const {
  num_calls_.fetch_add(1, std::memory_order_relaxed);
  if (&q != scope_) {
    ++bypasses_;
    return base_->Optimize(q, x);
  }
  auto it = cache_.find(x);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  if (cross_ != nullptr) {
    auto cit = cross_->find(x);
    if (cit != cross_->end()) {
      ++cross_hits_;
      // Promote into tier 1 so repeats within this statement are
      // statement-tier hits (keeps the tier metrics meaningful).
      cache_.emplace(x, cit->second);
      return cit->second;
    }
  }
  PlanSummary plan = [&] {
    obs::StageTimer timer(obs::Stage::kProbe);
    obs::SpanGuard span("probe.real");
    return base_->Optimize(q, x);
  }();
  ++misses_;
  cache_.emplace(x, plan);
  if (cross_ != nullptr &&
      cross_->size() < cross_options_.max_configs_per_template) {
    cross_->emplace(x, plan);
  }
  return plan;
}

}  // namespace wfit
