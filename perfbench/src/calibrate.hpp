// Rescaling a measured time to a reference core speed. The benchmark runs
// on cores it shares with other loads, which slow some code down by up to
// 80 % for minutes at a time, in CPU time as much as in wall time: longer
// than a run, so no statistic over a run's passes removes it. A workload
// whose hot loop is that sensitive times a calibration kernel — a stand-in
// for the loop's kind of work on fixed inputs, not the program's code —
// between its passes, and reports
//
//   rescaled = measured * reference / median(kernel times)
//
// A change to the program moves the measured time and not the kernel's, so
// it moves the rescaled time in full; a slow phase of the machine moves
// both, and largely cancels.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

class Calibration {
 public:
  /// `kernel` does fixed work and returns a checksum of it; `reference_s` is
  /// its time on the reference core.
  Calibration(std::function<std::uint64_t()> kernel, double reference_s)
      : kernel_(std::move(kernel)), reference_s_(reference_s) {}

  /// Times `runs` runs of the kernel and records each.
  void Sample(int runs = 5) {
    for (int i = 0; i < runs; ++i) {
      const auto t0 = Clock::now();
      checksum_ = kernel_();
      times_.push_back(SecondsSince(t0));
    }
  }
  const std::vector<double>& Times() const { return times_; }
  std::uint64_t Checksum() const { return checksum_; }
  double ReferenceSeconds() const { return reference_s_; }
  /// How many times slower than the reference core the kernel ran.
  double Slowdown() const { return Median(times_) / reference_s_; }
  double Rescale(double measured_s) const { return measured_s / Slowdown(); }

 private:
  std::function<std::uint64_t()> kernel_;
  double reference_s_;
  std::vector<double> times_;
  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
