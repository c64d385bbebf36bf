// Capacity search of an open-loop load: the highest offered rate at which a
// probe run still meets its service objective.
#pragma once

#include <functional>

namespace perfbench {

struct CapacitySearch {
  double start_rate = 1.0;  ///< First probe; must be > 0.
  int max_doublings = 12;   ///< Bracketing steps in each direction.
  int bisections = 6;       ///< Refinement steps inside the bracket.
};

/// `meets(rate)` runs one probe and reports whether it met the objective;
/// it is assumed monotone (meets at r implies meets below r). Returns the
/// highest rate found to meet it, 0 when even the smallest bracket fails.
/// `probes`, when non-null, receives the number of probe runs.
inline double FindCapacity(const std::function<bool(double)>& meets,
                           const CapacitySearch& search,
                           int* probes = nullptr) {
  int runs = 0;
  auto probe = [&](double rate) {
    ++runs;
    return meets(rate);
  };
  double good = 0.0;
  double bad = 0.0;
  double rate = search.start_rate;
  if (probe(rate)) {
    good = rate;
    for (int i = 0; i < search.max_doublings && bad == 0.0; ++i) {
      rate *= 2.0;
      if (probe(rate)) {
        good = rate;
      } else {
        bad = rate;
      }
    }
    if (bad == 0.0) {
      if (probes) *probes = runs;
      return good;  // Never failed inside the bracket: report its top.
    }
  } else {
    bad = rate;
    for (int i = 0; i < search.max_doublings && good == 0.0; ++i) {
      rate /= 2.0;
      if (probe(rate)) {
        good = rate;
      } else {
        bad = rate;
      }
    }
    if (good == 0.0) {
      if (probes) *probes = runs;
      return 0.0;
    }
  }
  for (int i = 0; i < search.bisections; ++i) {
    const double mid = 0.5 * (good + bad);
    if (probe(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  if (probes) *probes = runs;
  return good;
}

}  // namespace perfbench
