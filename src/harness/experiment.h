// Experiment driver: runs a Tuner over a workload under the paper's
// protocol and measures totWork, per-statement analysis overhead and
// what-if call counts. Supports the evaluation's three input models:
// immediate adoption (Figs. 8-10), feedback streams V (Figs. 9-10), and
// lagged acceptance V_T with implicit votes (Fig. 11).
#ifndef WFIT_HARNESS_EXPERIMENT_H_
#define WFIT_HARNESS_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/tuner.h"
#include "harness/feedback_gen.h"
#include "harness/total_work.h"

namespace wfit::harness {

struct ExperimentOptions {
  /// Record the cumulative totals every this many statements.
  size_t checkpoint_every = 100;
  /// The DBA accepts the current recommendation every `lag` statements
  /// (paper's V_T). lag == 1 grants full autonomy; lag > 1 additionally
  /// casts the implicit votes derived from the accepted changes.
  size_t lag = 1;
};

struct ExperimentSeries {
  std::string name;
  /// Cumulative totWork after each statement.
  std::vector<double> cumulative;
  /// Checkpoint statement counts (1-based) and totals at those points.
  std::vector<size_t> checkpoints;
  std::vector<double> total_at_checkpoint;
  double final_total = 0.0;
  /// Tuner-only analysis time (seconds) and what-if optimizer calls.
  double analyze_seconds = 0.0;
  uint64_t what_if_calls = 0;
};

class ExperimentDriver {
 public:
  ExperimentDriver(const Workload* workload, const WhatIfOptimizer* optimizer)
      : workload_(workload), optimizer_(optimizer) {
    WFIT_CHECK(workload != nullptr && optimizer != nullptr,
               "ExperimentDriver requires workload and optimizer");
  }

  /// Runs `tuner` with the feedback stream `feedback` (may be empty).
  ExperimentSeries Run(Tuner* tuner, const IndexSet& initial,
                       const std::vector<FeedbackEvent>& feedback,
                       const ExperimentOptions& options = {}) const;

  /// Meters a precomputed schedule (OPT) under identical accounting.
  ExperimentSeries Replay(const std::vector<IndexSet>& schedule,
                          const IndexSet& initial, const std::string& name,
                          const ExperimentOptions& options = {}) const;

 private:
  const Workload* workload_;
  const WhatIfOptimizer* optimizer_;
};

/// Wraps OPT's per-prefix optima (baselines/opt.h) into a series with the
/// same checkpoint structure as ExperimentDriver runs — the paper's "OPT=1"
/// reference curve.
ExperimentSeries SeriesFromPrefixOptimum(
    const std::vector<double>& prefix_optimum, const std::string& name,
    const ExperimentOptions& options = {});

}  // namespace wfit::harness

#endif  // WFIT_HARNESS_EXPERIMENT_H_
