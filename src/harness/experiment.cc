#include "harness/experiment.h"

#include <chrono>

namespace wfit::harness {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

ExperimentSeries ExperimentDriver::Run(
    Tuner* tuner, const IndexSet& initial,
    const std::vector<FeedbackEvent>& feedback,
    const ExperimentOptions& options) const {
  WFIT_CHECK(tuner != nullptr, "Run requires a tuner");
  WFIT_CHECK(options.lag >= 1, "lag must be at least 1");
  ExperimentSeries series;
  series.name = tuner->name();

  TotalWorkMeter meter(optimizer_, initial);
  IndexSet materialized = initial;

  size_t feedback_pos = 0;
  auto apply_feedback_through = [&](int64_t position) {
    while (feedback_pos < feedback.size() &&
           feedback[feedback_pos].after_statement <= position) {
      tuner->Feedback(feedback[feedback_pos].f_plus,
                      feedback[feedback_pos].f_minus);
      ++feedback_pos;
    }
  };

  // Votes cast before the first statement.
  apply_feedback_through(-1);

  for (size_t n = 0; n < workload_->size(); ++n) {
    const Statement& q = (*workload_)[n];

    uint64_t calls_before = optimizer_->num_calls();
    Clock::time_point t0 = Clock::now();
    tuner->AnalyzeQuery(q);
    series.analyze_seconds += Seconds(t0, Clock::now());
    series.what_if_calls += optimizer_->num_calls() - calls_before;

    // Feedback elements arriving between qn and qn+1 contribute to Sn
    // (Sec. 3.1: "Sn ... after analyzing qn and all feedback up to qn+1").
    apply_feedback_through(static_cast<int64_t>(n));

    if (n % options.lag == 0) {
      IndexSet accepted = tuner->Recommendation();
      if (options.lag > 1) {
        // Implicit votes from the DBA's accept action: created indices get
        // positive votes, dropped ones negative votes (Sec. 3.1).
        IndexSet created = accepted.Minus(materialized);
        IndexSet dropped = materialized.Minus(accepted);
        if (!created.empty() || !dropped.empty()) {
          tuner->Feedback(created, dropped);
          accepted = tuner->Recommendation();
        }
      }
      materialized = accepted;
    }

    meter.Step(q, materialized);
    if ((n + 1) % options.checkpoint_every == 0 ||
        n + 1 == workload_->size()) {
      series.checkpoints.push_back(n + 1);
      series.total_at_checkpoint.push_back(meter.total());
    }
  }
  series.cumulative = meter.cumulative();
  series.final_total = meter.total();
  return series;
}

ExperimentSeries SeriesFromPrefixOptimum(
    const std::vector<double>& prefix_optimum, const std::string& name,
    const ExperimentOptions& options) {
  ExperimentSeries series;
  series.name = name;
  series.cumulative = prefix_optimum;
  for (size_t n = 0; n < prefix_optimum.size(); ++n) {
    if ((n + 1) % options.checkpoint_every == 0 ||
        n + 1 == prefix_optimum.size()) {
      series.checkpoints.push_back(n + 1);
      series.total_at_checkpoint.push_back(prefix_optimum[n]);
    }
  }
  series.final_total =
      prefix_optimum.empty() ? 0.0 : prefix_optimum.back();
  return series;
}

ExperimentSeries ExperimentDriver::Replay(
    const std::vector<IndexSet>& schedule, const IndexSet& initial,
    const std::string& name, const ExperimentOptions& options) const {
  WFIT_CHECK(schedule.size() == workload_->size(),
             "schedule length must match the workload");
  ExperimentSeries series;
  series.name = name;
  TotalWorkMeter meter(optimizer_, initial);
  for (size_t n = 0; n < workload_->size(); ++n) {
    meter.Step((*workload_)[n], schedule[n]);
    if ((n + 1) % options.checkpoint_every == 0 ||
        n + 1 == workload_->size()) {
      series.checkpoints.push_back(n + 1);
      series.total_at_checkpoint.push_back(meter.total());
    }
  }
  series.cumulative = meter.cumulative();
  series.final_total = meter.total();
  return series;
}

}  // namespace wfit::harness
