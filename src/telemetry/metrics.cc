#include "telemetry/metrics.h"

#include <algorithm>

namespace svagc::telemetry {

void Histogram::Record(double x) {
  SpinLockGuard guard(lock_);
  samples_.push_back(x);
  sum_ += x;
  sorted_ = samples_.size() <= 1;
}

std::uint64_t Histogram::count() const {
  SpinLockGuard guard(lock_);
  return samples_.size();
}

double Histogram::sum() const {
  SpinLockGuard guard(lock_);
  return sum_;
}

double Histogram::min() const { return Percentile(0); }

double Histogram::max() const { return Percentile(100); }

double Histogram::Percentile(double p) const {
  SpinLockGuard guard(lock_);
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank =
      p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::vector<double> Histogram::Snapshot() const {
  SpinLockGuard guard(lock_);
  return samples_;
}

void Histogram::Reset() {
  SpinLockGuard guard(lock_);
  samples_.clear();
  sum_ = 0;
  sorted_ = true;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  SpinLockGuard guard(lock_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  SpinLockGuard guard(lock_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  SpinLockGuard guard(lock_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  SpinLockGuard guard(lock_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::SnapshotCounters() const {
  SpinLockGuard guard(lock_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

void MetricsRegistry::Reset() {
  SpinLockGuard guard(lock_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace svagc::telemetry
