#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "moea/archive.hpp"
#include "moea/indicators.hpp"
#include "moea/nsga2.hpp"

namespace bistdse::moea {
namespace {

TEST(Dominance, BasicRelations) {
  EXPECT_TRUE(Dominates({1, 2}, {2, 3}));
  EXPECT_TRUE(Dominates({1, 2}, {1, 3}));
  EXPECT_FALSE(Dominates({1, 2}, {1, 2}));
  EXPECT_FALSE(Dominates({1, 3}, {2, 2}));
  EXPECT_THROW(Dominates({1}, {1, 2}), std::invalid_argument);
}

TEST(Dominance, FastNonDominatedSortLayers) {
  std::vector<ObjectiveVector> pts = {
      {1, 4}, {2, 2}, {4, 1},  // front 0
      {3, 3}, {2, 5},          // front 1
      {5, 5},                  // front 2
  };
  const auto fronts = FastNonDominatedSort(pts);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0].size(), 3u);
  EXPECT_EQ(fronts[1].size(), 2u);
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{5}));
}

TEST(Dominance, CrowdingBoundariesAreInfinite) {
  std::vector<ObjectiveVector> pts = {{1, 4}, {2, 2}, {4, 1}};
  std::vector<std::size_t> front = {0, 1, 2};
  const auto cd = CrowdingDistance(pts, front);
  EXPECT_TRUE(std::isinf(cd[0]));
  EXPECT_TRUE(std::isinf(cd[2]));
  EXPECT_FALSE(std::isinf(cd[1]));
  EXPECT_GT(cd[1], 0.0);
}

TEST(Archive, KeepsOnlyNonDominated) {
  ParetoArchive archive;
  EXPECT_TRUE(archive.Offer({2, 2}, 0));
  EXPECT_FALSE(archive.Offer({3, 3}, 1));   // dominated
  EXPECT_FALSE(archive.Offer({2, 2}, 2));   // duplicate
  EXPECT_TRUE(archive.Offer({1, 3}, 3));    // incomparable
  EXPECT_TRUE(archive.Offer({1, 1}, 4));    // dominates everything
  ASSERT_EQ(archive.Size(), 1u);
  EXPECT_EQ(archive.Entries()[0].payload, 4u);
}

TEST(Indicators, Hypervolume2D) {
  // Two rectangles: (1,2)->(4,4) area 3*2=6, plus (2,1): adds (4-2)*(2-1)=2.
  std::vector<ObjectiveVector> front = {{1, 2}, {2, 1}};
  EXPECT_DOUBLE_EQ(Hypervolume(front, {4, 4}), 8.0);
  EXPECT_DOUBLE_EQ(Hypervolume({}, {4, 4}), 0.0);
}

TEST(Indicators, Hypervolume3D) {
  // Single point: box volume.
  std::vector<ObjectiveVector> one = {{0, 0, 0}};
  EXPECT_DOUBLE_EQ(Hypervolume(one, {2, 3, 4}), 24.0);
  // Two incomparable points with known union volume.
  std::vector<ObjectiveVector> two = {{0, 1, 1}, {1, 0, 0}};
  // vol(A)= (2-0)(2-1)(2-1) = 2; vol(B) = (2-1)(2-0)(2-0)=4;
  // intersection = (2-1)(2-1)(2-1)=1 -> union 5.
  EXPECT_DOUBLE_EQ(Hypervolume(two, {2, 2, 2}), 5.0);
}

TEST(Indicators, Hypervolume4DMatchesMonteCarlo) {
  // Exact HSO volume vs Monte Carlo estimate on a random 4-D front.
  util::SplitMix64 rng(21);
  std::vector<ObjectiveVector> front;
  for (int i = 0; i < 12; ++i) {
    front.push_back({rng.UnitReal(), rng.UnitReal(), rng.UnitReal(),
                     rng.UnitReal()});
  }
  const ObjectiveVector ref = {1.0, 1.0, 1.0, 1.0};
  const double exact = Hypervolume(front, ref);

  std::size_t hits = 0;
  constexpr std::size_t kSamples = 200000;
  for (std::size_t s = 0; s < kSamples; ++s) {
    const ObjectiveVector x = {rng.UnitReal(), rng.UnitReal(), rng.UnitReal(),
                               rng.UnitReal()};
    for (const auto& p : front) {
      if (p[0] <= x[0] && p[1] <= x[1] && p[2] <= x[2] && p[3] <= x[3]) {
        ++hits;
        break;
      }
    }
  }
  const double estimate = static_cast<double>(hits) / kSamples;
  EXPECT_NEAR(exact, estimate, 0.01);
}

TEST(Indicators, Hypervolume4DSinglePointBox) {
  std::vector<ObjectiveVector> one = {{0, 0, 0, 0}};
  EXPECT_DOUBLE_EQ(Hypervolume(one, {2, 3, 4, 5}), 120.0);
}

TEST(Indicators, HypervolumeGrowsWithBetterFront) {
  std::vector<ObjectiveVector> worse = {{3, 3}};
  std::vector<ObjectiveVector> better = {{3, 3}, {1, 4}, {2, 2}};
  EXPECT_GT(Hypervolume(better, {5, 5}), Hypervolume(worse, {5, 5}));
}

TEST(Indicators, AdditiveEpsilon) {
  std::vector<ObjectiveVector> a = {{1, 1}};
  std::vector<ObjectiveVector> b = {{2, 2}};
  EXPECT_DOUBLE_EQ(AdditiveEpsilon(a, b), -1.0);  // a strictly better
  EXPECT_DOUBLE_EQ(AdditiveEpsilon(b, a), 1.0);
  EXPECT_DOUBLE_EQ(AdditiveEpsilon(a, a), 0.0);
}

TEST(Genotype, DecisionOrderSortsByPriority) {
  Genotype g;
  g.priorities = {0.2, 0.9, 0.5};
  g.phases = {0, 1, 0};
  EXPECT_EQ(g.DecisionOrder(), (std::vector<std::uint32_t>{1, 2, 0}));
}

/// The DecisionOrder this repo used before the bucket sort: an indirect
/// stable_sort on descending priority.
std::vector<std::uint32_t> StableSortOrder(const std::vector<double>& p) {
  std::vector<std::uint32_t> order(p.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return p[a] > p[b]; });
  return order;
}

TEST(Genotype, DecisionOrderMatchesStableSort) {
  util::SplitMix64 rng(23);
  DecisionOrderScratch scratch;  // reused across growing and shrinking sizes
  std::size_t checked = 0;
  const auto check = [&](const std::vector<double>& priorities) {
    Genotype g;
    g.priorities = priorities;
    g.phases.assign(priorities.size(), 0);
    const auto want = StableSortOrder(priorities);
    EXPECT_EQ(g.DecisionOrder(), want) << "size " << priorities.size();
    const auto reused = g.DecisionOrder(scratch);
    EXPECT_EQ(std::vector<std::uint32_t>(reused.begin(), reused.end()), want)
        << "size " << priorities.size();
    ++checked;
  };
  const auto draw = [&](std::size_t n, auto&& value) {
    std::vector<double> p(n);
    for (double& v : p) v = value();
    return p;
  };
  const auto unit = [&] { return rng.UnitReal(); };

  // Random UnitReal priorities, the decoder's case-study size among them.
  for (std::size_t n : {0, 1, 2, 3, 17, 100, 1707, 5000}) {
    for (int rep = 0; rep < 4; ++rep) check(draw(n, unit));
  }
  // The corner genotypes' levels: almost every gene ties.
  constexpr double kCorner[] = {0.5, 0.9, 0.8, 0.1};
  for (std::size_t levels = 1; levels <= 4; ++levels) {
    check(draw(1707, [&] { return kCorner[rng.Below(levels)]; }));
  }
  // A corner genotype with a few mutated genes, as NSGA-II breeds them.
  auto corner = draw(1707, [&] { return kCorner[rng.Below(4)]; });
  for (int i = 0; i < 40; ++i) corner[rng.Below(corner.size())] = unit();
  check(corner);
  // +-0.0 tie with each other; negatives, subnormals and infinities order
  // like the doubles they are.
  constexpr double kMin = std::numeric_limits<double>::denorm_min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSpecial[] = {0.0,   -0.0, kMin,  -kMin,  1e-310, -1e-310,
                                 1e-300, -0.5, 0.5,   1.0,    -1.0,  kInf,
                                 -kInf,  std::numeric_limits<double>::max(),
                                 std::numeric_limits<double>::lowest()};
  const std::size_t specials = std::size(kSpecial);
  check({0.0, -0.0, 0.0, -0.0});
  check({-0.0, 0.5, 0.0, -1.0, -0.0});
  for (std::size_t n : {2, 16, 17, 1707}) {
    check(draw(n, [&] { return kSpecial[rng.Below(specials)]; }));
    check(draw(n, [&] { return 2.0 * unit() - 1.0; }));
    check(draw(n, [&] { return (unit() - 0.5) * 1e-308; }));  // subnormal
    check(draw(n, [&] {
      return rng.Chance(0.5) ? kSpecial[rng.Below(specials)]
                             : (unit() - 0.5) * std::ldexp(1.0, -1060);
    }));
  }
  // Keys that agree in all but their lowest bits.
  check(draw(1707, [&] { return 0.75 + static_cast<double>(rng.Below(64)) *
                                           std::ldexp(1.0, -52); }));
  EXPECT_GT(checked, 50u);
}

TEST(Genotype, OperatorsAreDeterministic) {
  util::SplitMix64 r1(5), r2(5);
  const auto a1 = RandomGenotype(20, r1);
  const auto a2 = RandomGenotype(20, r2);
  EXPECT_EQ(a1.priorities, a2.priorities);
  EXPECT_EQ(a1.phases, a2.phases);
}

TEST(Genotype, MutationRespectsRate) {
  util::SplitMix64 rng(9);
  Genotype g = RandomGenotype(1000, rng);
  const Genotype before = g;
  Mutate(g, 0.0, rng);
  EXPECT_EQ(g.priorities, before.priorities);
  Mutate(g, 1.0, rng);
  EXPECT_NE(g.priorities, before.priorities);
}

// NSGA-II on a classic benchmark: minimize (f1, f2) of Schaffer's problem
// encoded through a genotype -> x in [-4, 4] decoding.
TEST(Nsga2, ConvergesOnSchafferProblem) {
  Nsga2Config cfg;
  cfg.population_size = 40;
  cfg.genotype_size = 16;
  cfg.seed = 3;
  Nsga2 nsga2(cfg);

  const auto evaluator =
      [](const Genotype& g) -> std::optional<ObjectiveVector> {
    // Decode bits -> x in [-4, 4].
    double x = 0.0;
    for (std::size_t i = 0; i < g.Size(); ++i) {
      if (g.phases[i]) x += 1.0 / static_cast<double>(1ull << (i + 1));
    }
    x = x * 8.0 - 4.0;
    return ObjectiveVector{x * x, (x - 2.0) * (x - 2.0)};
  };

  const auto result = nsga2.Run(evaluator, 4000);
  EXPECT_EQ(result.evaluations, 4000u);
  ASSERT_GT(result.archive.Size(), 5u);

  // The Pareto set is x in [0, 2]; on it sqrt(f1) + sqrt(f2) = 2, and
  // min(f1 + f2) = 2 (attained at x = 1).
  double best_sum = 1e9;
  for (const auto& e : result.archive.Entries()) {
    best_sum = std::min(best_sum, e.objectives[0] + e.objectives[1]);
    const double s = std::sqrt(e.objectives[0]) + std::sqrt(e.objectives[1]);
    EXPECT_NEAR(s, 2.0, 0.3);
  }
  EXPECT_NEAR(best_sum, 2.0, 0.2);
}

TEST(Nsga2, InfeasibleEvaluationsAreTolerated) {
  Nsga2Config cfg;
  cfg.population_size = 10;
  cfg.genotype_size = 8;
  cfg.seed = 1;
  Nsga2 nsga2(cfg);
  int calls = 0;
  const auto evaluator =
      [&](const Genotype& g) -> std::optional<ObjectiveVector> {
    ++calls;
    if (calls % 3 == 0) return std::nullopt;  // every third decode "fails"
    double ones = 0;
    for (auto p : g.phases) ones += p;
    return ObjectiveVector{ones, -ones};
  };
  const auto result = nsga2.Run(evaluator, 500);
  EXPECT_EQ(result.evaluations, 500u);
  EXPECT_GE(result.archive.Size(), 1u);
}

TEST(Nsga2, RejectsBadConfig) {
  Nsga2Config cfg;
  cfg.genotype_size = 0;
  EXPECT_THROW(Nsga2{cfg}, std::invalid_argument);
  cfg.genotype_size = 4;
  cfg.population_size = 1;
  EXPECT_THROW(Nsga2{cfg}, std::invalid_argument);
}

TEST(Nsga2, DeterministicForFixedSeed) {
  Nsga2Config cfg;
  cfg.population_size = 12;
  cfg.genotype_size = 10;
  cfg.seed = 77;
  const auto evaluator =
      [](const Genotype& g) -> std::optional<ObjectiveVector> {
    double ones = 0;
    for (auto p : g.phases) ones += p;
    return ObjectiveVector{ones, 10.0 - ones};
  };
  Nsga2 a(cfg), b(cfg);
  const auto ra = a.Run(evaluator, 300);
  const auto rb = b.Run(evaluator, 300);
  ASSERT_EQ(ra.archive.Size(), rb.archive.Size());
  for (std::size_t i = 0; i < ra.archive.Size(); ++i) {
    EXPECT_EQ(ra.archive.Entries()[i].objectives,
              rb.archive.Entries()[i].objectives);
  }
}

}  // namespace
}  // namespace bistdse::moea
