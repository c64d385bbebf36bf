#include <gtest/gtest.h>

#include "atpg/podem.hpp"
#include "netlist/random_circuit.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern_set.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace bistdse::atpg {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using sim::CollapsedFaults;
using sim::FaultSimulator;
using sim::PatternWord;
using sim::StuckAtFault;

// Checks with the (independently tested) fault simulator that `cube`,
// arbitrarily filled with zeros, detects `fault`.
bool CubeDetects(const Netlist& nl, const TestCube& cube,
                 const StuckAtFault& fault) {
  FaultSimulator fsim(nl);
  std::vector<PatternWord> words(cube.bits.size());
  for (std::size_t i = 0; i < cube.bits.size(); ++i) {
    words[i] = cube.bits[i] == Value3::One ? ~PatternWord{0} : 0;
  }
  fsim.SetPatternBlock(words);
  return (fsim.DetectWord(fault) & 1) != 0;
}

TEST(Value3, KleeneTables) {
  EXPECT_EQ(And3(Value3::One, Value3::X), Value3::X);
  EXPECT_EQ(And3(Value3::Zero, Value3::X), Value3::Zero);
  EXPECT_EQ(Or3(Value3::One, Value3::X), Value3::One);
  EXPECT_EQ(Or3(Value3::Zero, Value3::X), Value3::X);
  EXPECT_EQ(Xor3(Value3::One, Value3::X), Value3::X);
  EXPECT_EQ(Not3(Value3::X), Value3::X);
  EXPECT_EQ(Not3(Value3::Zero), Value3::One);
}

TEST(Podem, GeneratesTestsForAllC17Faults) {
  auto nl = testing::MakeC17();
  Podem podem(nl);
  for (const auto& f : CollapsedFaults(nl)) {
    const auto result = podem.Generate(f);
    ASSERT_EQ(result.outcome, PodemOutcome::Detected)
        << sim::ToString(nl, f);
    EXPECT_TRUE(CubeDetects(nl, result.cube, f)) << sim::ToString(nl, f);
  }
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // y = OR(a, NOT(a)): SA1 at y is undetectable.
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId n = nl.AddGate(GateType::Not, {a});
  const NodeId y = nl.AddGate(GateType::Or, {a, n});
  nl.MarkOutput(y);
  nl.Finalize();
  Podem podem(nl);
  EXPECT_EQ(podem.Generate({y, -1, true}).outcome, PodemOutcome::Untestable);
  EXPECT_EQ(podem.Generate({y, -1, false}).outcome, PodemOutcome::Detected);
}

TEST(Podem, HandlesFlopBoundaries) {
  auto nl = netlist::ParseBenchString(bistdse::testing::kTinySeq);
  Podem podem(nl);
  // Fault on the AND gate output (feeds d1/PPO).
  const NodeId d1 = nl.FindByName("d1");
  auto result = podem.Generate({d1, -1, false});
  ASSERT_EQ(result.outcome, PodemOutcome::Detected);
  EXPECT_TRUE(CubeDetects(nl, result.cube, {d1, -1, false}));
}

TEST(Podem, FlopDBranchFault) {
  // Give the flop-D net fanout > 1 so the branch fault is collapsed-distinct.
  Netlist nl;
  const NodeId a = nl.AddInput("a");
  const NodeId b = nl.AddInput("b");
  const NodeId g = nl.AddGate(GateType::And, {a, b});
  const NodeId q = nl.AddFlop(g);
  const NodeId y = nl.AddGate(GateType::Not, {g});
  nl.MarkOutput(y);
  nl.Finalize();
  (void)q;
  Podem podem(nl);
  const StuckAtFault f{q, 0, false};  // D branch stuck-at-0
  auto result = podem.Generate(f);
  ASSERT_EQ(result.outcome, PodemOutcome::Detected);
  EXPECT_TRUE(CubeDetects(nl, result.cube, f));
}

TEST(Podem, AgreesWithFaultSimOnRandomCircuits) {
  // Every PODEM "Detected" must be confirmed by fault simulation; every
  // "Untestable" must resist 256 random patterns (weak but meaningful check).
  for (std::uint64_t seed : {21, 22}) {
    auto nl = bistdse::testing::MakeSmallRandom(seed, 200);
    Podem podem(nl, 500);
    FaultSimulator fsim(nl);
    auto faults = CollapsedFaults(nl);

    std::size_t detected = 0, untestable = 0, aborted = 0;
    for (std::size_t fi = 0; fi < faults.size(); fi += 5) {
      const auto result = podem.Generate(faults[fi]);
      if (result.outcome == PodemOutcome::Detected) {
        ++detected;
        EXPECT_TRUE(CubeDetects(nl, result.cube, faults[fi]))
            << sim::ToString(nl, faults[fi]);
      } else if (result.outcome == PodemOutcome::Untestable) {
        ++untestable;
        util::SplitMix64 rng(seed);
        const std::size_t width = nl.CoreInputs().size();
        std::vector<PatternWord> words(width);
        for (int block = 0; block < 4; ++block) {
          for (auto& w : words) w = rng();
          fsim.SetPatternBlock(words);
          EXPECT_EQ(fsim.DetectWord(faults[fi]), 0u)
              << sim::ToString(nl, faults[fi])
              << " claimed untestable but detected randomly";
        }
      } else {
        ++aborted;
      }
    }
    // The vast majority of faults in a random circuit are testable and easy.
    EXPECT_GT(detected, untestable + aborted);
  }
}

// FNV-1a over every PodemResult field a caller reads (outcome, backtracks,
// cube bits) for every collapsed fault of a seeded CUT, each fault run
// unhinted and then hinted with the previous detected fault's cube. The
// pinned values were recorded with the original full-resimulation search, so
// any change to the implication, backtracking, objective or D-frontier order
// shows up here.
std::uint64_t PodemFingerprint(const Netlist& nl, std::uint32_t limit,
                               std::size_t* aborted, std::size_t* untestable) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  Podem podem(nl, limit);
  auto mix_result = [&mix](const PodemResult& r) {
    mix(static_cast<std::uint64_t>(r.outcome));
    mix(r.backtracks);
    mix(r.cube.bits.size());
    for (Value3 v : r.cube.bits) mix(static_cast<std::uint64_t>(v));
  };
  TestCube previous;  // empty until a fault is detected: Generate ignores it
  for (const StuckAtFault& f : CollapsedFaults(nl)) {
    const PodemResult unhinted = podem.Generate(f);
    mix_result(unhinted);
    mix_result(podem.Generate(f, &previous));
    *aborted += unhinted.outcome == PodemOutcome::Aborted;
    *untestable += unhinted.outcome == PodemOutcome::Untestable;
    if (unhinted.outcome == PodemOutcome::Detected) previous = unhinted.cube;
  }
  return h;
}

TEST(Podem, ResultsPinnedOnSeededCircuits) {
  struct Case {
    netlist::RandomCircuitSpec spec;
    std::uint64_t fingerprint;
    std::size_t aborted;
    std::size_t untestable;
  };
  const Case cases[] = {
      {{.num_inputs = 16, .num_outputs = 12, .num_flops = 40, .num_gates = 300,
        .num_hard_blocks = 3, .hard_block_width = 10, .seed = 101},
       0x52f41b46beafdff2ULL, 57, 7},
      {{.num_inputs = 24, .num_outputs = 16, .num_flops = 64, .num_gates = 450,
        .num_hard_blocks = 4, .hard_block_width = 12, .seed = 202},
       0xa4132f49950d52e1ULL, 131, 11},
      {{.num_inputs = 32, .num_outputs = 20, .num_flops = 96, .num_gates = 600,
        .num_hard_blocks = 5, .hard_block_width = 14, .seed = 303},
       0x6974c7c1c4d12a7bULL, 33, 0},
  };
  for (const Case& c : cases) {
    const Netlist nl = netlist::GenerateRandomCircuit(c.spec);
    std::size_t aborted = 0, untestable = 0;
    const std::uint64_t fp = PodemFingerprint(nl, 100, &aborted, &untestable);
    EXPECT_EQ(fp, c.fingerprint) << "seed " << c.spec.seed;
    // The CUTs exercise the whole search: aborts and redundancy proofs.
    EXPECT_EQ(aborted, c.aborted) << "seed " << c.spec.seed;
    EXPECT_EQ(untestable, c.untestable) << "seed " << c.spec.seed;
  }
}

TEST(Podem, BacktrackLimitProducesAbortNotHang) {
  auto nl = bistdse::testing::MakeSmallRandom(31, 400);
  Podem podem(nl, 1);  // absurdly small limit
  auto faults = CollapsedFaults(nl);
  int outcomes[3] = {0, 0, 0};
  for (std::size_t fi = 0; fi < faults.size(); fi += 9) {
    ++outcomes[static_cast<int>(podem.Generate(faults[fi]).outcome)];
  }
  // With limit 1 some faults must still succeed (easy ones need no
  // backtracking at all).
  EXPECT_GT(outcomes[0], 0);
}

}  // namespace
}  // namespace bistdse::atpg
