// PODEM (Path-Oriented DEcision Making) deterministic test generation.
//
// The generator operates on the full-scan combinational core: decisions are
// made only at core inputs (PIs and flop Qs); values propagate by two-plane
// three-valued simulation (a fault-free plane and a faulty plane with the
// target fault injected). A fault is detected when some core output differs
// between the planes with both values known.
//
// Implication is incremental: each decision propagates forward from its
// input, logging every node it changes on a value trail, and a backtrack
// undoes the trail to the flipped decision's mark before propagating the new
// value. The planes of a DAG have one fixed point per input assignment, so
// they are exactly those a full re-simulation would give.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/value3.hpp"
#include "netlist/netlist.hpp"
#include "sim/fault.hpp"

namespace bistdse::atpg {

/// A test cube: one Value3 per core input (CoreInputs() order). X positions
/// are don't-cares to be filled (randomly for BIST top-up patterns).
struct TestCube {
  std::vector<Value3> bits;

  std::size_t CareBitCount() const {
    std::size_t n = 0;
    for (Value3 v : bits) n += v != Value3::X;
    return n;
  }
};

enum class PodemOutcome : std::uint8_t {
  Detected,    ///< Cube generated.
  Untestable,  ///< Proven redundant (search space exhausted).
  Aborted,     ///< Backtrack limit hit.
};

struct PodemResult {
  PodemOutcome outcome = PodemOutcome::Aborted;
  TestCube cube;                 ///< Valid iff outcome == Detected.
  std::uint32_t backtracks = 0;  ///< Search effort spent.
};

class Podem {
 public:
  /// `backtrack_limit` bounds search effort per fault.
  explicit Podem(const netlist::Netlist& netlist,
                 std::uint32_t backtrack_limit = 200);

  /// Attempts to generate a test cube for `fault`. `hint` (optional) is a
  /// previously successful cube for a structurally related fault — typically
  /// another fault in the same fanout-free region, whose activation and
  /// propagation conditions overlap heavily. Its care bits are seeded as
  /// ordinary flippable decisions before the search starts, so completeness
  /// is untouched: an exhausted decision stack still proves untestability.
  /// If the hinted search aborts on the backtrack limit, the generator
  /// retries once without the hint — a hint can speed the search up but
  /// never change the outcome quality.
  PodemResult Generate(const sim::StuckAtFault& fault,
                       const TestCube* hint = nullptr);

 private:
  struct Decision {
    std::uint32_t input_index;  ///< Index into CoreInputs().
    Value3 value;
    bool flipped;
    std::uint32_t trail_mark;  ///< trail_ size before this assignment.
  };
  /// One node's planes before an assignment changed them.
  struct TrailEntry {
    netlist::NodeId node;
    Value3 good;
    Value3 faulty;
  };

  PodemResult GenerateImpl(const TestCube* hint);
  /// Collects fault_'s fanout cone (site plus transitive non-flop fanouts)
  /// in TopologicalOrder() order, and the core outputs inside it. Outside
  /// the cone the two planes are equal under every assignment, so the
  /// D-frontier, the X-path check and detection only look inside it.
  void BuildCone();
  /// Both planes under the all-X assignment: all X, except the faulty
  /// plane re-evaluated over the cone.
  void InitPlanes();
  /// Assigns one core input and propagates the change forward through both
  /// planes, event-driven in level order. Every changed node goes on the
  /// trail, so UndoTo() restores the planes of any earlier decision.
  void AssignAndPropagate(std::uint32_t input_index, Value3 value);
  /// Pops the trail down to `mark`, restoring each node's old planes.
  void UndoTo(std::size_t mark);
  /// Recomputes one node's planes from its fanins (with fault overrides).
  std::pair<Value3, Value3> EvaluateNode(netlist::NodeId id);
  bool Detected() const;
  /// Next objective (node, value) or nullopt if the search hit a dead end.
  std::optional<std::pair<netlist::NodeId, Value3>> Objective() const;
  /// Maps an objective to a core-input assignment.
  std::optional<std::pair<std::uint32_t, Value3>> Backtrace(
      netlist::NodeId node, Value3 value) const;
  bool XPathExists();
  /// Starts a new visit of visited_.
  void NextStamp();

  const netlist::Netlist& netlist_;
  std::uint32_t backtrack_limit_;
  sim::StuckAtFault fault_{};
  std::vector<Value3> assignment_;  // per core input
  std::vector<Value3> good_;        // per node
  std::vector<Value3> faulty_;      // per node
  std::vector<std::uint32_t> input_index_of_;  // NodeId -> core input index
  std::vector<std::uint8_t> is_output_;  // NodeId -> core output?
  std::vector<Decision> decisions_;
  std::vector<TrailEntry> trail_;
  // Fault cone (see BuildCone); gates start at cone_gates_begin_ (the site
  // is first and skipped when it is a source node).
  std::vector<netlist::NodeId> cone_;
  std::size_t cone_gates_begin_ = 0;
  std::vector<netlist::NodeId> cone_outputs_;
  // Event propagation scratch (lazily sized).
  std::vector<std::vector<netlist::NodeId>> level_buckets_;
  std::vector<std::uint8_t> in_queue_;
  // EvaluateNode fanin values and the X-path search: reused across calls.
  std::vector<Value3> good_in_;
  std::vector<Value3> faulty_in_;
  std::vector<netlist::NodeId> stack_;
  std::vector<std::uint32_t> visited_;  // NodeId -> stamp of last visit
  std::uint32_t stamp_ = 0;
};

}  // namespace bistdse::atpg
