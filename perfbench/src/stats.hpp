// Order statistics of the benchmark: percentiles with their sample counts,
// medians, quartiles and the hash used to fingerprint outputs. Header-only
// so the arithmetic tests link nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 1]) over `values`, the same rule
/// as numpy's default: rank = p * (n - 1). Throws on an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("p outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // An exact rank reads its sample directly, so an infinite sample (a
  // failed request) is never interpolated into NaN.
  if (frac == 0.0 || std::isinf(values[lo])) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// A latency sample summarized the way the benchmark reports it: the
/// median and the highest tail percentile that still has at least
/// `kMinBeyond` samples beyond it, with the sample count.
struct TailSummary {
  static constexpr std::size_t kMinBeyond = 10;
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_p = 0.0;  ///< 0 when the sample is too small for any tail.
  double tail = 0.0;
};

/// Highest of {0.999, 0.99, 0.95, 0.9} with at least kMinBeyond of `n`
/// samples beyond it, or 0 when none qualifies.
inline double SupportedTailPercentile(std::size_t n) {
  for (double p : {0.999, 0.99, 0.95, 0.9}) {
    if (static_cast<double>(n) * (1.0 - p) >=
        static_cast<double>(TailSummary::kMinBeyond) - 1e-9) {
      return p;
    }
  }
  return 0.0;
}

inline TailSummary Summarize(const std::vector<double>& values) {
  TailSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.p50 = Median(values);
  s.tail_p = SupportedTailPercentile(values.size());
  if (s.tail_p > 0.0) s.tail = Percentile(values, s.tail_p);
  return s;
}

/// FNV-1a, folded over raw bytes; the fingerprint of every checked output.
class Fnv {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
  template <typename T>
  void Add(const T& value) {
    Bytes(&value, sizeof(value));
  }
  void Add(std::string_view s) { Bytes(s.data(), s.size()); }
  /// A string hashes by its characters, not by its object representation.
  void Add(const std::string& s) { Add(std::string_view(s)); }
  std::uint64_t Value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
