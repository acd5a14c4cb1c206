#include "core/stats.h"

#include <algorithm>

namespace wfit {

void RecencyWindow::Record(uint64_t n, double value) {
  WFIT_CHECK(buf_.empty() || buf_[newest_].first <= n,
             "RecencyWindow positions must be non-decreasing");
  if (hist_size_ == 0) return;  // history disabled: window stays empty
  if (buf_.size() < hist_size_) {
    buf_.emplace_back(n, value);
    newest_ = buf_.size() - 1;
  } else {
    newest_ = (newest_ + 1) % hist_size_;
    buf_[newest_] = {n, value};  // overwrites the oldest slot
  }
}

double RecencyWindow::CurrentValue(uint64_t now) const {
  if (buf_.empty()) return 0.0;
  double best = 0.0;
  double sum = 0.0;
  auto visit = [&](const std::pair<uint64_t, double>& entry) {
    sum += entry.second;
    // now >= n always holds; the window spans the most recent now-n+1
    // statements.
    double denom = static_cast<double>(now - entry.first + 1);
    best = std::max(best, sum / denom);
  };
  // Newest -> oldest: from newest_ down to slot 0, then from the end of
  // the ring down to the slot after newest_ (the oldest once it wrapped).
  for (size_t idx = newest_ + 1; idx-- > 0;) visit(buf_[idx]);
  for (size_t idx = buf_.size(); idx-- > newest_ + 1;) visit(buf_[idx]);
  return best;
}

std::vector<std::pair<uint64_t, double>> RecencyWindow::Entries() const {
  std::vector<std::pair<uint64_t, double>> out;
  if (buf_.empty()) return out;
  out.reserve(buf_.size());
  const size_t count = buf_.size();
  size_t idx = (newest_ + 1) % count;  // oldest slot (0 until the ring wraps)
  for (size_t i = 0; i < count; ++i) {
    out.push_back(buf_[idx]);
    idx = (idx + 1) % count;
  }
  return out;
}

void RecencyWindow::RestoreEntries(
    const std::vector<std::pair<uint64_t, double>>& oldest_first) {
  buf_.clear();
  newest_ = 0;
  for (const auto& [n, v] : oldest_first) Record(n, v);
}

void BenefitStats::Record(IndexId a, uint64_t n, double beta) {
  if (beta <= 0.0) return;
  auto [it, inserted] = windows_.try_emplace(a, hist_size_);
  it->second.Record(n, beta);
}

double BenefitStats::CurrentBenefit(IndexId a, uint64_t now) const {
  auto it = windows_.find(a);
  if (it == windows_.end()) return 0.0;
  return it->second.CurrentValue(now);
}

std::vector<std::pair<IndexId, std::vector<std::pair<uint64_t, double>>>>
BenefitStats::Export() const {
  std::vector<std::pair<IndexId, std::vector<std::pair<uint64_t, double>>>>
      out;
  out.reserve(windows_.size());
  for (const auto& [id, window] : windows_) {
    out.emplace_back(id, window.Entries());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void BenefitStats::RestoreWindow(
    IndexId a, const std::vector<std::pair<uint64_t, double>>& entries) {
  auto [it, inserted] = windows_.insert_or_assign(a, RecencyWindow(hist_size_));
  (void)inserted;
  it->second.RestoreEntries(entries);
}

uint64_t InteractionStats::Key(IndexId a, IndexId b) {
  IndexId lo = std::min(a, b);
  IndexId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

void InteractionStats::Record(IndexId a, IndexId b, uint64_t n, double d) {
  if (d <= 0.0) return;
  WFIT_CHECK(a != b, "interaction of an index with itself");
  auto [it, inserted] = windows_.try_emplace(Key(a, b), hist_size_);
  it->second.Record(n, d);
}

double InteractionStats::CurrentDoi(IndexId a, IndexId b, uint64_t now) const {
  auto it = windows_.find(Key(a, b));
  if (it == windows_.end()) return 0.0;
  return it->second.CurrentValue(now);
}

bool InteractionStats::HasInteraction(IndexId a, IndexId b) const {
  return windows_.count(Key(a, b)) != 0;
}

std::vector<std::pair<uint64_t, std::vector<std::pair<uint64_t, double>>>>
InteractionStats::Export() const {
  std::vector<std::pair<uint64_t, std::vector<std::pair<uint64_t, double>>>>
      out;
  out.reserve(windows_.size());
  for (const auto& [key, window] : windows_) {
    out.emplace_back(key, window.Entries());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void InteractionStats::RestoreWindow(
    uint64_t key, const std::vector<std::pair<uint64_t, double>>& entries) {
  auto [it, inserted] =
      windows_.insert_or_assign(key, RecencyWindow(hist_size_));
  (void)inserted;
  it->second.RestoreEntries(entries);
}

}  // namespace wfit
