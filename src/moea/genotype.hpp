// SAT-decoding genotype: a branching priority and a preferred phase per
// decision variable (Lukasiewycz et al. [17]). The decoder turns the
// genotype into a total branching order for the PB/SAT solver; the solver
// output is always a *feasible* implementation, so the evolutionary search
// never wastes evaluations on infeasible points.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace bistdse::moea {

/// Working memory of Genotype::DecisionOrder. A decoder that keeps one
/// across calls orders every genotype after the first without allocating.
struct DecisionOrderScratch {
  std::vector<std::uint64_t> keys, spare_keys;
  std::vector<std::uint32_t> order, spare_order, counts;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending;
};

struct Genotype {
  std::vector<double> priorities;     ///< Higher decides earlier.
  std::vector<std::uint8_t> phases;   ///< Preferred value per variable.

  std::size_t Size() const { return priorities.size(); }

  /// Decision order implied by the priorities: descending, ties by
  /// ascending index (-0.0 ties with +0.0). The span points into `scratch`
  /// and stays valid until its next use.
  std::span<const std::uint32_t> DecisionOrder(
      DecisionOrderScratch& scratch) const;
  std::vector<std::uint32_t> DecisionOrder() const;
};

/// Uniformly random genotype of `n` genes (phase probability 1/2).
Genotype RandomGenotype(std::size_t n, util::SplitMix64& rng);

/// Random genotype whose phases are 1 with probability `bias`. Drawing the
/// bias itself uniformly per individual spreads the initial population over
/// the whole selection-density spectrum (none ... all optional tasks
/// selected) — essential when most genes gate *optional* design elements.
Genotype RandomGenotypeBiased(std::size_t n, double bias,
                              util::SplitMix64& rng);

/// Uniform crossover: each gene (priority, phase pair) from either parent.
Genotype UniformCrossover(const Genotype& a, const Genotype& b,
                          util::SplitMix64& rng);

/// One-point crossover: genes [0, cut) from `a`, the rest from `b`. Keeps
/// co-located genes (e.g. one ECU's profile block) together more often than
/// uniform crossover.
Genotype OnePointCrossover(const Genotype& a, const Genotype& b,
                           util::SplitMix64& rng);

/// Per-gene mutation: with `rate`, redraw the priority and flip the phase
/// with probability 1/2.
void Mutate(Genotype& genotype, double rate, util::SplitMix64& rng);

}  // namespace bistdse::moea
