// The common interface of online index advisors in this library. The
// experiment harness drives any Tuner through the paper's protocol:
// AnalyzeQuery per statement, Recommendation afterwards, Feedback for DBA
// votes (explicit or implicit).
#ifndef WFIT_CORE_TUNER_H_
#define WFIT_CORE_TUNER_H_

#include <cstdint>
#include <string>

#include "core/index_set.h"
#include "workload/statement.h"

namespace wfit {

class Tuner {
 public:
  virtual ~Tuner() = default;

  /// Observes the next workload statement and updates internal state.
  virtual void AnalyzeQuery(const Statement& q) = 0;

  /// Current recommended configuration (the paper's S_n).
  virtual IndexSet Recommendation() const = 0;

  /// DBA votes: F+ receives positive votes, F− negative votes. Tuners
  /// without feedback support (e.g. BC) ignore them.
  virtual void Feedback(const IndexSet& f_plus, const IndexSet& f_minus) {
    (void)f_plus;
    (void)f_minus;
  }

  /// Display name for reports.
  virtual std::string name() const = 0;

  /// Number of internal state reorganizations performed so far (WFIT's
  /// repartitions). Drivers — the experiment harness and the online
  /// tuning service — report it; tuners without the notion return 0.
  virtual uint64_t RepartitionCount() const { return 0; }
};

}  // namespace wfit

#endif  // WFIT_CORE_TUNER_H_
