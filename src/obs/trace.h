// Low-overhead distributed tracing for the tuning fleet.
//
// Spans are recorded into PER-THREAD single-writer ring buffers: the
// owning thread publishes a slot with plain-word atomic stores and a
// release store of the ring head, so recording never takes a lock and
// never blocks another thread. Collection (kDumpTrace, SIGUSR2) reads the
// rings concurrently with acquire/relaxed loads and discards any slot the
// writer lapped mid-copy — torn reads are detected, not prevented, which
// keeps the hot path wait-free and the whole scheme clean under TSan.
// A full ring drops the OLDEST spans (head keeps advancing over the ring)
// and the loss is observable: dropped() = max(0, recorded - capacity).
//
// Trace CONTEXT (trace id + parent span id) is thread-local; the RPC
// layer installs the caller's context around each handler, and SpanGuard
// nests by swapping itself in as the parent for its scope. Ids are 64-bit and
// never zero; zero means "no trace".
//
// Cost model: with tracing compiled in but runtime-disabled (the
// default), a SpanGuard is one relaxed atomic load. Compiling with
// WFIT_DISABLE_TRACING turns every tracing entry point into an empty
// inline so the fast path is checked to cost nothing at build time.
// Stage histograms (obs/stages.h, recorded through StageSpan) are metrics
// and stay on either way.
#ifndef WFIT_OBS_TRACE_H_
#define WFIT_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stages.h"

namespace wfit::obs {

/// The propagated part of a trace: which trace this thread is working
/// for, and the span that caused the current work.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  bool active() const { return trace_id != 0; }
};

/// One completed span, exactly as stored in the ring (trivially copyable,
/// 8-byte multiple so slots copy as atomic words). Names and details are
/// truncated to their fixed buffers.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  uint64_t start_ns = 0;  // steady-clock nanoseconds (same epoch per process)
  uint64_t dur_ns = 0;
  uint32_t tid = 0;  // stable per-thread index within this process
  uint32_t reserved = 0;
  char name[24] = {};
  char detail[40] = {};
};
static_assert(sizeof(Span) % 8 == 0, "spans must copy as whole words");

struct TraceCounters {
  uint64_t recorded = 0;  // spans ever pushed
  uint64_t dropped = 0;   // spans overwritten before collection
};

/// Steady-clock nanoseconds; the timestamp domain of Span::start_ns.
uint64_t NowNs();

#ifndef WFIT_DISABLE_TRACING

/// Runtime switch, default off unless the WFIT_TRACE environment variable
/// is set to a nonempty value other than "0".
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

/// Fresh nonzero ids (mixed so concurrent threads never collide).
uint64_t NewTraceId();
uint64_t NewSpanId();

TraceContext CurrentTraceContext();

/// Installs `ctx` on this thread for the guard's lifetime.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// RAII duration span. While alive, it is the current parent, so nested
/// guards (and RPCs issued from this scope) become its children. A guard
/// opened with no current trace starts a new one.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attaches a short free-form annotation (truncated to the slot).
  void SetDetail(std::string_view detail);

  /// The ids this guard is recording under (zero when not tracing).
  uint64_t trace_id() const { return ctx_.trace_id; }
  uint64_t span_id() const { return span_id_; }

 private:
  bool enabled_ = false;
  TraceContext prev_;
  TraceContext ctx_;  // trace id + THIS span as parent while alive
  uint64_t span_id_ = 0;
  uint64_t start_ns_ = 0;
  char name_[24] = {};
  char detail_[40] = {};
};

/// Records a zero-duration event under the current context.
void RecordInstant(const char* name, std::string_view detail = {});

/// Snapshot of every thread's ring, oldest-first per thread. Safe to call
/// while writers are active; spans being overwritten during the copy are
/// dropped from the result.
std::vector<Span> CollectSpans();
TraceCounters CollectTraceCounters();

/// Drops all collected state (tests and bench isolation only).
void ClearTraceForTest();

#else  // WFIT_DISABLE_TRACING: everything compiles to nothing.

inline constexpr bool TracingEnabled() { return false; }
inline void SetTracingEnabled(bool) {}
inline constexpr uint64_t NewTraceId() { return 0; }
inline constexpr uint64_t NewSpanId() { return 0; }
inline TraceContext CurrentTraceContext() { return {}; }

class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext) {}
};

class SpanGuard {
 public:
  explicit SpanGuard(const char*) {}
  void SetDetail(std::string_view) {}
  uint64_t trace_id() const { return 0; }
  uint64_t span_id() const { return 0; }
};

inline void RecordInstant(const char*, std::string_view = {}) {}
inline std::vector<Span> CollectSpans() { return {}; }
inline TraceCounters CollectTraceCounters() { return {}; }
inline void ClearTraceForTest() {}

#endif  // WFIT_DISABLE_TRACING

/// The one RAII site per stage boundary: always records the stage's
/// duration into the current StageSink (a metrics histogram, on whether or
/// not tracing is compiled in) and opens a span named `name` only when
/// tracing is on. Reads the clock for the histogram only when a sink is
/// installed.
class StageSpan {
 public:
  StageSpan(Stage stage, const char* name)
      : span_(name),
        stage_(stage),
        sink_(CurrentStageSink()),
        start_ns_(sink_ != nullptr ? NowNs() : 0) {}
  ~StageSpan() {
    if (sink_ != nullptr) sink_->RecordStage(stage_, NowNs() - start_ns_);
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  void SetDetail(std::string_view detail) { span_.SetDetail(detail); }
  /// Zero when not tracing.
  uint64_t trace_id() const { return span_.trace_id(); }

 private:
  SpanGuard span_;
  Stage stage_;
  StageSink* sink_;
  uint64_t start_ns_;
};

}  // namespace wfit::obs

#endif  // WFIT_OBS_TRACE_H_
