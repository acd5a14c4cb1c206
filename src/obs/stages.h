// Per-stage timing capture, decoupled from the span ring so stage latency
// HISTOGRAMS (a metrics concern, always on) survive even when tracing is
// compiled out. A StageSink is installed thread-locally for the duration
// of one statement's analysis; code anywhere below — the IBG builder, the
// what-if optimizer, the checkpoint writer — records stage durations into
// whichever sink is current on its thread. obs::StageSpan (obs/trace.h)
// times one stage boundary for both the histogram and the trace.
//
// Recording is one TLS pointer read when no sink is installed; sinks must
// be internally thread-safe (metrics scrapes read them concurrently).
#ifndef WFIT_OBS_STAGES_H_
#define WFIT_OBS_STAGES_H_

#include <cstdint>

namespace wfit::obs {

enum class Stage : int {
  kQueueWait = 0,    // ingest enqueue -> batch pop
  kIbgBuild = 1,     // level-synchronous IBG construction
  kProbe = 2,        // what-if optimizer calls (WhatIfOptimizer::Optimize)
  kCheckpointWrite = 3,  // durable snapshot writes
};
inline constexpr int kStageCount = 4;

const char* StageName(Stage stage);

/// A thread-safe receiver of stage durations. ServiceMetrics implements
/// this; tests may substitute their own.
class StageSink {
 public:
  virtual ~StageSink() = default;
  virtual void RecordStage(Stage stage, uint64_t ns) = 0;
};

/// The sink installed on the current thread (null when none).
StageSink* CurrentStageSink();

/// Installs `sink` on this thread for the guard's lifetime, restoring the
/// previous sink on destruction. Pass null to suppress recording.
class ScopedStageSink {
 public:
  explicit ScopedStageSink(StageSink* sink);
  ~ScopedStageSink();
  ScopedStageSink(const ScopedStageSink&) = delete;
  ScopedStageSink& operator=(const ScopedStageSink&) = delete;

 private:
  StageSink* prev_;
};

/// Records `ns` against the current sink; no-op (one TLS read) without one.
void RecordStage(Stage stage, uint64_t ns);

}  // namespace wfit::obs

#endif  // WFIT_OBS_STAGES_H_
