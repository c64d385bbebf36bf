// Shared fixtures for bistdse tests.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <string>

#include "arch/topology.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_circuit.hpp"

namespace bistdse::testing {

/// Structural validity of a topology — canonical case studies and generated
/// corpus members alike: every handle indexes a resource of the right kind,
/// every ECU/sensor/actuator hangs off exactly one bus, every ECU reaches
/// the gateway in one hop (ecu -> bus -> gateway), the functional graph is
/// non-trivial, and the BIST augmentation (when present) carries one
/// program per (ECU, profile) with the collect task on the gateway.
inline void ExpectValidTopology(const arch::Topology& topo) {
  const auto& graph = topo.spec.Architecture();
  ASSERT_FALSE(topo.ecus.empty());
  ASSERT_FALSE(topo.buses.empty());
  EXPECT_GT(topo.functional_task_count, 0u);
  EXPECT_GT(topo.functional_message_count, 0u);
  EXPECT_NO_THROW(topo.spec.Validate());

  for (model::ResourceId bus : topo.buses) {
    EXPECT_EQ(graph.GetResource(bus).kind, model::ResourceKind::Bus);
    EXPECT_GT(graph.GetResource(bus).bus_bitrate_bps, 0.0);
  }
  const auto on_one_bus = [&](model::ResourceId r,
                              model::ResourceKind kind) {
    EXPECT_EQ(graph.GetResource(r).kind, kind);
    std::size_t buses = 0;
    for (model::ResourceId n : graph.Neighbors(r)) {
      buses += graph.GetResource(n).kind == model::ResourceKind::Bus;
    }
    EXPECT_EQ(buses, 1u) << graph.GetResource(r).name;
  };
  for (model::ResourceId ecu : topo.ecus) {
    on_one_bus(ecu, model::ResourceKind::Ecu);
  }
  for (model::ResourceId s : topo.sensors) {
    on_one_bus(s, model::ResourceKind::Sensor);
  }
  for (model::ResourceId a : topo.actuators) {
    on_one_bus(a, model::ResourceKind::Actuator);
  }
  if (topo.gateway != model::kInvalidId) {
    EXPECT_EQ(graph.GetResource(topo.gateway).kind,
              model::ResourceKind::Gateway);
    for (model::ResourceId ecu : topo.ecus) {
      const auto path = graph.ShortestPath(ecu, topo.gateway);
      ASSERT_TRUE(path.has_value());
      EXPECT_EQ(path->size(), 3u);  // ecu -> bus -> gateway
    }
  }
  for (const auto& [ecu, programs] : topo.augmentation.programs_by_ecu) {
    EXPECT_EQ(graph.GetResource(ecu).kind, model::ResourceKind::Ecu);
    for (std::size_t p = 0; p < programs.size(); ++p) {
      EXPECT_EQ(programs[p].profile_index, p);
    }
  }
  if (topo.augmentation.collect_task != model::kInvalidId) {
    ASSERT_NE(topo.gateway, model::kInvalidId);
  }
}

/// The ISCAS-85 c17 benchmark: 5 inputs, 2 outputs, 6 NAND gates.
inline const char* kC17 = R"(
# c17 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

inline netlist::Netlist MakeC17() {
  return netlist::ParseBenchString(kC17);
}

/// A small sequential circuit: 2 inputs, 1 output, 2 flops forming a toggle
/// structure.
inline const char* kTinySeq = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
q0 = DFF(d0)
q1 = DFF(d1)
d0 = XOR(a, q1)
d1 = AND(b, q0)
y = OR(q0, q1)
)";

inline netlist::Netlist MakeSmallRandom(std::uint64_t seed = 7,
                                        std::uint32_t gates = 300) {
  netlist::RandomCircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 8;
  spec.num_flops = 24;
  spec.num_gates = gates;
  spec.num_hard_blocks = 2;
  spec.hard_block_width = 6;
  spec.seed = seed;
  return netlist::GenerateRandomCircuit(spec);
}

/// A scratch file path under ::testing::TempDir() that belongs to the running
/// test case of this process: "<suite>.<case>.<pid>.<suffix>". ctest runs
/// every gtest case as a process of its own, concurrently under -j, so a
/// fixed file name would be saved, mapped and deleted by several cases at
/// once.
inline std::string UniqueTempPath(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : name) {
    // Parameterized names carry '/'; keep the file inside TempDir().
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' &&
        c != '_' && c != '-') {
      c = '_';
    }
  }
  return ::testing::TempDir() + name + "." + std::to_string(::getpid()) +
         "." + suffix;
}

}  // namespace bistdse::testing
