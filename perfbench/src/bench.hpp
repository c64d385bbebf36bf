// Shared plumbing of the benchmark's workloads: arguments, the result
// record every workload fills, and the timing helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string trace_out;
  /// Directory for the run's scratch files (the serve shard artifact).
  std::string work_dir = ".";
};

struct Value {
  double value = 0.0;
  std::string unit;
};

struct Report {
  /// Operations attempted / failed by the workload's own measure (PODEM
  /// targets, decodes, campaign rounds, requests).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed correctness checks; any entry makes the run fail.
  std::vector<std::string> check_failures;
  /// Metrics of the untraced run (the end-to-end set) and of the traced run
  /// (the per-layer set), keyed by name.
  std::map<std::string, Value> metrics;
  /// Workload-specific numbers printed for people: named outputs, hashes,
  /// the workload-level metrics (profiles_s, evals_per_s, ...).
  std::vector<std::pair<std::string, std::string>> info;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Info(const std::string& name, const std::string& text) {
    info.emplace_back(name, text);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// SplitMix64 finalizer: derives independent input seeds from the workload
/// seed.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Times `setup` over a budget of about two seconds and returns its
/// duration in seconds: repetitions are grouped into batches of at least
/// 0.1 s, and the result is the median of the batches' mean repetition
/// times (at least three batches). A millisecond-scale set-up thus runs
/// over a thousand times, a set-up of seconds three times. `once` runs it a
/// single time instead (the traced run). The last repetition's products are
/// what the timed phase uses.
inline double TimeSetup(const std::function<void()>& setup, bool once = false) {
  constexpr double kBudgetS = 2.0;
  constexpr double kBatchS = 0.1;
  if (once) {
    const auto t0 = Clock::now();
    setup();
    return SecondsSince(t0);
  }
  std::vector<double> means;
  const auto start = Clock::now();
  while (means.size() < 3 || SecondsSince(start) < kBudgetS) {
    const auto t0 = Clock::now();
    int reps = 0;
    double elapsed = 0.0;
    do {
      setup();
      ++reps;
      elapsed = SecondsSince(t0);
    } while (elapsed < kBatchS);
    means.push_back(elapsed / reps);
  }
  return Median(means);
}

/// Repeats `pass` while the next pass is expected to end within `seconds`
/// (at least `min_passes` times) and returns each pass's duration.
inline std::vector<double> TimePasses(double seconds, int min_passes,
                                      const std::function<void(int)>& pass) {
  std::vector<double> times;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const double elapsed = SecondsSince(start);
    if (i >= min_passes && elapsed + times.back() > seconds) break;
    const auto t0 = Clock::now();
    pass(i);
    times.push_back(SecondsSince(t0));
  }
  return times;
}

/// "a b c" of `values`, for the human-readable output.
inline std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

/// Finishes a traced pass over [t0, t1] of `tracer`: reports the share no
/// span covers and the tracing overhead against `untraced_s` (a warm
/// untraced pass of the same work), prints each
/// span name's self time, writes the spans to args.trace_out, and returns
/// each span name's self time as a share (%) of the pass.
inline std::map<std::string, double> ReportTrace(const Args& args,
                                                 Report& report,
                                                 const Tracer& tracer,
                                                 double t0, double t1,
                                                 double untraced_s) {
  std::map<std::string, double> pct;
  for (const auto& [name, seconds] : SelfTimeByName(tracer.Spans())) {
    pct[name] = 100.0 * seconds / (t1 - t0);
    report.Info(name + "_s", std::to_string(seconds) + " s");
  }
  report.Set("trace.uncovered_pct",
             100.0 * Uncovered(tracer.Spans(), t0, t1) / (t1 - t0), "%");
  report.Set("trace.overhead_pct",
             100.0 * ((t1 - t0) - untraced_s) / untraced_s, "%");
  if (!args.trace_out.empty()) {
    report.Check(tracer.WriteJson(args.trace_out),
                 "cannot write " + args.trace_out);
  }
  return pct;
}

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// A workload: fills `report` from `args`.
using WorkloadFn = void (*)(const Args&, Report&);
void RunProfiles(const Args& args, Report& report);
void RunExplore(const Args& args, Report& report);
void RunCorpus(const Args& args, Report& report);
void RunServe(const Args& args, Report& report);

}  // namespace perfbench
