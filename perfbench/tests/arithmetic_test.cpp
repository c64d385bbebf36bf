// Tests of the benchmark's own arithmetic: percentiles and their sample
// counts, span self time and uncovered time, the capacity search and the
// rescaling of a time to the reference core.
// Plain asserts-free checks: every failure is printed and counted, and the
// exit code is the number of failures.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "capacity.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

using namespace perfbench;

void Percentiles() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT(Near(Percentile(v, 0.0), 1.0));
  EXPECT(Near(Percentile(v, 1.0), 5.0));
  EXPECT(Near(Median(v), 3.0));
  EXPECT(Near(Percentile(v, 0.25), 2.0));
  // Interpolates between ranks: rank 0.9 * 4 = 3.6 -> 4 + 0.6.
  EXPECT(Near(Percentile(v, 0.9), 4.6));
  EXPECT(Near(Median({1.0, 2.0}), 1.5));
  EXPECT(Near(Median({7.0}), 7.0));
  bool threw = false;
  try {
    Percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
  // An infinite sample (a failed request) dominates the tail.
  EXPECT(std::isinf(Percentile({1.0, 2.0, INFINITY}, 1.0)));
}

void TailPercentiles() {
  // The highest percentile with at least ten samples beyond it.
  EXPECT(Near(SupportedTailPercentile(9), 0.0));
  EXPECT(Near(SupportedTailPercentile(99), 0.0));
  EXPECT(Near(SupportedTailPercentile(100), 0.9));
  EXPECT(Near(SupportedTailPercentile(200), 0.95));
  EXPECT(Near(SupportedTailPercentile(999), 0.95));
  EXPECT(Near(SupportedTailPercentile(1000), 0.99));
  EXPECT(Near(SupportedTailPercentile(10000), 0.999));

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const TailSummary s = Summarize(v);
  EXPECT(s.count == 1000);
  EXPECT(Near(s.p50, 500.5));
  EXPECT(Near(s.tail_p, 0.99));
  EXPECT(Near(s.tail, 990.01));
  const TailSummary small = Summarize({3.0, 1.0, 2.0});
  EXPECT(small.count == 3 && Near(small.p50, 2.0) && small.tail_p == 0.0);
}

void SelfTime() {
  // root [0, 10] with children [1, 3] and [2, 6] (overlapping: union 5),
  // grandchild [4, 5] under the second child.
  const std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1},
      {"a", 1.0, 3.0, 0},
      {"b", 2.0, 6.0, 0},
      {"c", 4.0, 5.0, 2},
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT(Near(self[0], 5.0));
  EXPECT(Near(self[1], 2.0));
  EXPECT(Near(self[2], 3.0));
  EXPECT(Near(self[3], 1.0));
  const auto by_name = SelfTimeByName(spans);
  EXPECT(Near(by_name.at("b"), 3.0));
  // A child reaching past its parent is clipped to the parent's interval.
  const std::vector<Span> clipped = {{"p", 0.0, 2.0, -1}, {"q", 1.0, 5.0, 0}};
  EXPECT(Near(SelfTimes(clipped)[0], 1.0));
  // Uncovered: phase [0, 20], roots [0, 10] and [12, 15].
  std::vector<Span> roots = spans;
  roots.push_back({"late", 12.0, 15.0, -1});
  EXPECT(Near(Uncovered(roots, 0.0, 20.0), 7.0));
  EXPECT(Near(CoveredLength({{0, 1}, {0.5, 2}, {3, 4}}, 0.0, 10.0), 3.0));
  EXPECT(Near(CoveredLength({}, 0.0, 10.0), 0.0));
}

void TracerNesting() {
  perfbench::Tracer tracer;
  {
    perfbench::Tracer::Scope outer(&tracer, "outer");
    perfbench::Tracer::Scope inner(&tracer, "inner");
  }
  perfbench::Tracer::Scope none(nullptr, "ignored");
  const auto& spans = tracer.Spans();
  EXPECT(spans.size() == 2);
  EXPECT(spans[0].parent == -1 && spans[1].parent == 0);
  EXPECT(spans[1].start_s >= spans[0].start_s &&
         spans[1].end_s <= spans[0].end_s);
}

void Capacity() {
  // Objective met up to 37.5: the search brackets it and converges below.
  int probes = 0;
  const auto meets = [](double r) { return r <= 37.5; };
  double cap = FindCapacity(meets, {.start_rate = 10.0, .max_doublings = 8,
                                    .bisections = 8},
                            &probes);
  EXPECT(cap <= 37.5 && cap > 37.5 - 20.0 / 256.0);
  EXPECT(probes == 1 + 2 + 8);  // start, 20 ok, 40 fails, 8 bisections.
  // Starting above capacity searches downwards.
  cap = FindCapacity(meets, {.start_rate = 100.0, .max_doublings = 8,
                             .bisections = 6});
  EXPECT(cap <= 37.5 && cap > 37.5 - 25.0 / 64.0);
  // Never met: zero. Always met: the top of the bracket.
  EXPECT(FindCapacity([](double) { return false; }, {.start_rate = 8.0}) ==
         0.0);
  EXPECT(Near(FindCapacity([](double) { return true; },
                           {.start_rate = 1.0, .max_doublings = 3}),
              8.0));
}

void Hash() {
  Fnv a;
  a.Add(std::uint64_t{1});
  Fnv b;
  b.Add(std::uint64_t{1});
  EXPECT(a.Value() == b.Value());
  b.Add(std::string_view("x"));
  EXPECT(a.Value() != b.Value());
  // Equal strings in different objects hash alike.
  const std::string x1 = "x";
  const std::string x2 = "x";
  Fnv c;
  c.Add(x1);
  Fnv d;
  d.Add(x2);
  EXPECT(c.Value() == d.Value());
}

void CalibrationRescale() {
  int calls = 0;
  Calibration calibration(
      [&] {
        ++calls;
        std::uint64_t x = 1;
        for (int i = 0; i < 1000; ++i) x = x * 6364136223846793005ULL + 1;
        return x;
      },
      1e-3);
  calibration.Sample();
  calibration.Sample(2);
  EXPECT(calls == 7 && calibration.Times().size() == 7);
  EXPECT(calibration.Checksum() != 0);
  // The slowdown is the median kernel time over the reference time, and a
  // measured time is divided by it.
  const double slowdown = Median(calibration.Times()) / 1e-3;
  EXPECT(Near(calibration.Slowdown(), slowdown));
  EXPECT(Near(calibration.Rescale(2.0 * slowdown), 2.0));
}

}  // namespace

int main() {
  Percentiles();
  TailPercentiles();
  SelfTime();
  TracerNesting();
  Capacity();
  Hash();
  CalibrationRescale();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "ok", failures);
  return failures;
}
