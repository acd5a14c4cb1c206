// CachingWhatIfOptimizer: a two-tier memo over any WhatIfOptimizer.
//
// Tier 1 (statement-scoped): WFIT's per-statement work probes cost(q, X)
// from several places — the candidate selector's statement-wide IBG and one
// IBG per stable-partition part — and those probes overlap (shared subsets,
// the IBG node-budget retry path re-probing surviving configurations). The
// decorator deduplicates identical (q, X) probes within one statement:
// callers scope it with BeginStatement(&q), which clears the tier, and every
// probe for a different statement bypasses the cache entirely, so a stale
// cost can never leak across statements.
//
// Tier 2 (cross-statement): generator and OLTP workloads repeat statement
// templates, and a repeated statement re-pays every optimizer probe tier 1
// already answered last time. The cross-statement tier survives
// BeginStatement: a bounded LRU of template entries keyed by the
// statement's structural Fingerprint(), each holding the (configuration →
// plan) map accumulated over previous occurrences. Admission is
// second-touch: a template only earns an entry once its fingerprint has
// been scoped twice, so ad-hoc never-repeated statements (the benchmark
// trace) pay nothing beyond one hash, while prepared-statement workloads
// warm up from their second repetition. Correctness does not rest on the
// hash — a candidate entry is verified with SameCostShape() before it is
// attached, so a fingerprint collision evicts instead of serving a wrong
// cost. The optimizer is a pure function of
// (statement, configuration), so a warm tier 2 changes which probes reach
// the base optimizer but never any returned cost: recommendation
// trajectories are bit-for-bit identical with the tier cold, warm, or
// disabled (asserted in recovery_test and caching_what_if_test). The tier
// is deliberately NOT persisted by persist/ snapshots — recovery restarts
// it cold, which by the same argument cannot change the replayed
// trajectory.
//
// Not thread-safe: one decorator belongs to one tuner, and every call
// comes from the thread analyzing that tuner's statements.
#ifndef WFIT_OPTIMIZER_CACHING_WHAT_IF_H_
#define WFIT_OPTIMIZER_CACHING_WHAT_IF_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "core/index_set.h"
#include "optimizer/what_if.h"

namespace wfit {

/// Bounds for the cross-statement tier. Default-constructed = enabled with
/// service-friendly bounds; set `max_templates = 0` to disable the tier.
struct CrossStatementCacheOptions {
  /// LRU capacity in distinct statement templates (0 disables the tier).
  size_t max_templates = 128;
  /// Per-template bound on memoized configurations; once reached, new
  /// configurations are no longer added (the warm core of the template
  /// stays; tier 1 still dedupes within a statement).
  size_t max_configs_per_template = 8192;
};

class CachingWhatIfOptimizer final : public WhatIfOptimizer {
 public:
  /// Decorates `base` (not owned; must outlive the decorator). cost_model()
  /// passes through to the base model, so WfaInstance construction and
  /// transition costing are unchanged.
  explicit CachingWhatIfOptimizer(
      const WhatIfOptimizer* base,
      const CrossStatementCacheOptions& cross_options = {});

  /// Scopes the cache to `q`: clears tier 1 and attaches (or creates) the
  /// matching cross-statement template entry. Pass nullptr to disable
  /// caching (every probe bypasses to the base optimizer).
  void BeginStatement(const Statement* q);

  /// Returns the memoized plan when (q, X) was already probed — for the
  /// scoped statement (tier 1) or any earlier structurally identical
  /// statement (tier 2); otherwise delegates to the base optimizer and
  /// memoizes in both tiers. Probes for non-scoped statements delegate
  /// without caching.
  PlanSummary Optimize(const Statement& q, const IndexSet& x) const override;

  /// Monotone counters across the decorator's lifetime. Every hit (either
  /// tier) is one avoided optimizer call;
  /// num_calls() == hits + cross_hits + misses + bypasses.
  uint64_t hits() const { return hits_; }
  uint64_t cross_hits() const { return cross_hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t bypasses() const { return bypasses_; }
  /// Templates evicted because a different statement shape hashed to the
  /// same fingerprint (expected ~never; a canary for the hash quality).
  uint64_t fingerprint_collisions() const { return fingerprint_collisions_; }

  /// Entries currently memoized for the scoped statement (tier 1 only).
  size_t scoped_entries() const { return cache_.size(); }
  /// Distinct templates currently resident in the cross-statement tier.
  size_t cross_templates() const { return templates_.size(); }

  const WhatIfOptimizer* base() const { return base_; }
  const CrossStatementCacheOptions& cross_options() const {
    return cross_options_;
  }

 private:
  using PlanMap = std::unordered_map<IndexSet, PlanSummary, IndexSetHash>;

  struct TemplateEntry {
    uint64_t fingerprint = 0;
    /// Structural copy used to verify fingerprint candidates (sql cleared —
    /// it plays no role in costing and can be large).
    Statement shape;
    PlanMap plans;
  };

  const WhatIfOptimizer* base_;
  const CrossStatementCacheOptions cross_options_;
  const Statement* scope_ = nullptr;
  /// Tier 1: cleared every BeginStatement.
  mutable PlanMap cache_;
  /// Tier 2: most-recently-used first; BeginStatement moves the scoped
  /// template to the front and evicts from the back. `cross_` points at the
  /// scoped statement's entry (nullptr = tier disabled / no scope).
  std::list<TemplateEntry> templates_;
  std::unordered_map<uint64_t, std::list<TemplateEntry>::iterator>
      template_index_;
  PlanMap* cross_ = nullptr;
  /// Second-touch admission: fingerprints scoped once, awaiting a repeat.
  /// Cleared wholesale when it outgrows its bound (coarse, but the only
  /// cost of forgetting is one extra cold statement for a template).
  std::unordered_set<uint64_t> seen_once_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t cross_hits_ = 0;
  mutable uint64_t misses_ = 0;
  mutable uint64_t bypasses_ = 0;
  uint64_t fingerprint_collisions_ = 0;
};

}  // namespace wfit

#endif  // WFIT_OPTIMIZER_CACHING_WHAT_IF_H_
