// In-memory span trace of the benchmark's own calls into the program's
// layers. A span has a name ("<layer>.<operation>"), a start, an end and the
// span that was open when it started. Spans stay in memory until the run
// ends; WriteJson dumps them for offline inspection.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover; the timed phase's uncovered remainder is the part
// no root span covers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double SecondsSince(Clock::time_point t) {
  return Seconds(Clock::now() - t);
}

struct Span {
  std::string name;
  double start_s = 0.0;  ///< Relative to the recorder's origin.
  double end_s = 0.0;
  int parent = -1;  ///< Index into the span list, -1 for a root.
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline double CoveredLength(std::vector<std::pair<double, double>> intervals,
                            double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

/// Self time of every span, aligned with `spans`.
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = spans[i].end_s - spans[i].start_s;
    self[i] = d - CoveredLength(children[i], spans[i].start_s, spans[i].end_s);
  }
  return self;
}

/// Self time summed per span name.
inline std::map<std::string, double> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

/// Part of [lo, hi] that no root span covers.
inline double Uncovered(const std::vector<Span>& spans, double lo, double hi) {
  std::vector<std::pair<double, double>> roots;
  for (const Span& s : spans) {
    if (s.parent < 0) roots.emplace_back(s.start_s, s.end_s);
  }
  return (hi - lo) - CoveredLength(std::move(roots), lo, hi);
}

/// Single-threaded span recorder: spans open and close in stack order on
/// the thread that drives the workload.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
      if (tracer_) index_ = tracer_->Open(std::move(name));
    }
    ~Scope() {
      if (tracer_) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  double Now() const { return Seconds(Clock::now() - origin_); }
  const std::vector<Span>& Spans() const { return spans_; }

  /// Writes {"spans": [...]} with times in seconds from the origin.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::size_t Open(std::string name) {
    const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    spans_.push_back({std::move(name), Now(), 0.0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(std::size_t index) {
    spans_[index].end_s = Now();
    open_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
