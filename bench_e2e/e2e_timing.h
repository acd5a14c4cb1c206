// Timing seams of the traced run: subclasses of the library's public
// classes that time each call into the core and optimizer layers from the
// outside, plus the in-memory span log the benchmark exports as a Chrome
// trace. Nothing here changes what the tuner computes; the traced run's
// trajectory is checked against the untraced one.
#ifndef WFIT_BENCH_E2E_E2E_TIMING_H_
#define WFIT_BENCH_E2E_E2E_TIMING_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/wfit.h"
#include "obs/trace.h"
#include "optimizer/what_if.h"

namespace wfit::e2e {

/// The trace id every span of statement `seq` of tenant incarnation
/// `tenant` shares: the incarnation's number (see IncarnationKey) in the
/// high bits, seq + 1 in the low 32, so it is never zero.
inline uint64_t StatementTraceId(uint64_t tenant, uint64_t seq) {
  return (tenant << 32) | (seq + 1);
}

/// Span ids derived from the trace id, so spans recorded on different
/// threads link up without sharing state; trace ids must stay below 2^59
/// (see SpanLog::NextSpanId).
enum class SpanKind : uint64_t { kSubmit = 1, kAnalyze = 2, kFeedback = 3,
                                 kVisible = 4 };
inline uint64_t SpanIdOf(uint64_t trace_id, SpanKind kind) {
  return (trace_id << 3) | static_cast<uint64_t>(kind);
}

inline uint32_t ThreadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

inline obs::Span MakeSpan(const char* name, uint64_t trace_id,
                          uint64_t span_id, uint64_t parent,
                          uint64_t start_ns, uint64_t dur_ns) {
  obs::Span s;
  s.trace_id = trace_id;
  s.span_id = span_id;
  s.parent_span = parent;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  s.tid = ThreadTag();
  std::strncpy(s.name, name, sizeof(s.name) - 1);
  return s;
}

/// Spans kept in memory until the run ends.
class SpanLog {
 public:
  void Add(const obs::Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<obs::Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  /// A fresh id for a span that is not one per statement; above every
  /// SpanIdOf value.
  uint64_t NextSpanId() { return next_id_.fetch_add(1) | (uint64_t{1} << 62); }

 private:
  mutable std::mutex mu_;
  std::vector<obs::Span> spans_;
  std::atomic<uint64_t> next_id_{1};
};

/// What the timing subclasses of one tenant record. Written on the node's
/// analysis thread; read by the benchmark after the node shut down.
struct AnalysisLog {
  AnalysisLog(uint64_t tenant_key, SpanLog* span_log)
      : tenant(tenant_key), spans(span_log) {}

  const uint64_t tenant;  // the tenant's part of StatementTraceId
  SpanLog* const spans;
  std::vector<uint64_t> analyze_ns;  // indexed by statement sequence
  std::vector<uint64_t> feedback_ns;
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> probe_ns{0};
  /// The analyze span probes parent under (0 outside AnalyzeQuery).
  std::atomic<uint64_t> current_trace{0};
  std::atomic<uint64_t> current_span{0};
};

/// The real what-if optimizer, timed per call. Wfit wraps its optimizer in
/// its own memo, so this layer sees only probes that reach the optimizer.
class TimedWhatIf final : public WhatIfOptimizer {
 public:
  TimedWhatIf(const CostModel* model, AnalysisLog* log)
      : WhatIfOptimizer(model), log_(log) {}

  PlanSummary Optimize(const Statement& q, const IndexSet& x) const override {
    const uint64_t t0 = obs::NowNs();
    PlanSummary plan = WhatIfOptimizer::Optimize(q, x);
    const uint64_t dur = obs::NowNs() - t0;
    log_->probes.fetch_add(1, std::memory_order_relaxed);
    log_->probe_ns.fetch_add(dur, std::memory_order_relaxed);
    const uint64_t trace = log_->current_trace.load(std::memory_order_relaxed);
    log_->spans->Add(MakeSpan("optimizer.probe", trace,
                              log_->spans->NextSpanId(),
                              log_->current_span.load(
                                  std::memory_order_relaxed),
                              t0, dur));
    return plan;
  }

 private:
  AnalysisLog* log_;
};

/// Wfit timed per AnalyzeQuery/Feedback call. A subclass rather than a
/// wrapper: the service's snapshot path downcasts its tuner to Wfit.
class TimedWfit final : public Wfit {
 public:
  TimedWfit(IndexPool* pool, const WhatIfOptimizer* optimizer,
            const WfitOptions& options, AnalysisLog* log)
      : Wfit(pool, optimizer, IndexSet{}, options), log_(log) {}

  void AnalyzeQuery(const Statement& q) override {
    const uint64_t seq = log_->analyze_ns.size();
    const uint64_t trace = StatementTraceId(log_->tenant, seq);
    const uint64_t span = SpanIdOf(trace, SpanKind::kAnalyze);
    log_->current_trace.store(trace, std::memory_order_relaxed);
    log_->current_span.store(span, std::memory_order_relaxed);
    const uint64_t t0 = obs::NowNs();
    Wfit::AnalyzeQuery(q);
    const uint64_t dur = obs::NowNs() - t0;
    log_->current_span.store(0, std::memory_order_relaxed);
    log_->analyze_ns.push_back(dur);
    log_->spans->Add(MakeSpan("core.analyze", trace, span,
                              SpanIdOf(trace, SpanKind::kSubmit), t0, dur));
  }

  void Feedback(const IndexSet& f_plus, const IndexSet& f_minus) override {
    const uint64_t seq = log_->analyze_ns.size();
    const uint64_t trace =
        StatementTraceId(log_->tenant, seq == 0 ? 0 : seq - 1);
    const uint64_t t0 = obs::NowNs();
    Wfit::Feedback(f_plus, f_minus);
    const uint64_t dur = obs::NowNs() - t0;
    log_->feedback_ns.push_back(dur);
    log_->spans->Add(MakeSpan("core.feedback", trace,
                              SpanIdOf(trace, SpanKind::kFeedback),
                              SpanIdOf(trace, SpanKind::kAnalyze), t0, dur));
  }

 private:
  AnalysisLog* log_;
};

}  // namespace wfit::e2e

#endif  // WFIT_BENCH_E2E_E2E_TIMING_H_
