// Statistics helpers of bench_e2e, kept apart so `bench_e2e --selftest`
// can check them against inputs with known answers.
#ifndef WFIT_BENCH_E2E_E2E_STATS_H_
#define WFIT_BENCH_E2E_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace wfit::e2e {

/// Quantile `q` in [0, 1] with linear interpolation between closest ranks
/// (numpy's default); NaN for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// One kGetRecommendation answer: when it arrived and the analyzed
/// watermark it carried.
struct PollSample {
  int64_t t_ns = 0;
  uint64_t analyzed = 0;
};

/// The poll→visible join. Statement s is visible at the first poll whose
/// watermark exceeds s; returns that poll's time for each s in [0, n), or
/// -1 when no poll ever showed it. `polls` must be in arrival order.
inline std::vector<int64_t> JoinPolls(const std::vector<PollSample>& polls,
                                      size_t n) {
  std::vector<int64_t> visible(n, -1);
  size_t next = 0;
  for (const PollSample& p : polls) {
    const size_t upto = static_cast<size_t>(std::min<uint64_t>(p.analyzed, n));
    for (; next < upto; ++next) visible[next] = p.t_ns;
  }
  return visible;
}

}  // namespace wfit::e2e

#endif  // WFIT_BENCH_E2E_E2E_STATS_H_
