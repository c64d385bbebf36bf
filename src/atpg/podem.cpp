#include "atpg/podem.hpp"

#include <algorithm>
#include <stdexcept>

namespace bistdse::atpg {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

Value3 EvalGate3(GateType type, std::span<const Value3> fanins) {
  switch (type) {
    case GateType::Buf:
      return fanins[0];
    case GateType::Not:
      return Not3(fanins[0]);
    case GateType::And:
    case GateType::Nand: {
      Value3 v = Value3::One;
      for (Value3 f : fanins) v = And3(v, f);
      return type == GateType::And ? v : Not3(v);
    }
    case GateType::Or:
    case GateType::Nor: {
      Value3 v = Value3::Zero;
      for (Value3 f : fanins) v = Or3(v, f);
      return type == GateType::Or ? v : Not3(v);
    }
    case GateType::Xor:
    case GateType::Xnor: {
      Value3 v = Value3::Zero;
      for (Value3 f : fanins) v = Xor3(v, f);
      return type == GateType::Xor ? v : Not3(v);
    }
    case GateType::Input:
    case GateType::Dff:
      throw std::logic_error("EvalGate3 called on source node");
  }
  return Value3::X;
}

Podem::Podem(const Netlist& netlist, std::uint32_t backtrack_limit)
    : netlist_(netlist),
      backtrack_limit_(backtrack_limit),
      input_index_of_(netlist.NodeCount(), static_cast<std::uint32_t>(-1)),
      is_output_(netlist.NodeCount(), 0),
      visited_(netlist.NodeCount(), 0) {
  if (!netlist.IsFinalized())
    throw std::invalid_argument("netlist must be finalized");
  const auto inputs = netlist.CoreInputs();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    input_index_of_[inputs[i]] = static_cast<std::uint32_t>(i);
  for (NodeId id : netlist.CoreOutputs()) is_output_[id] = 1;
}

std::pair<Value3, Value3> Podem::EvaluateNode(netlist::NodeId id) {
  const GateType type = netlist_.TypeOf(id);
  good_in_.clear();
  faulty_in_.clear();
  for (NodeId f : netlist_.FaninsOf(id)) {
    good_in_.push_back(good_[f]);
    faulty_in_.push_back(faulty_[f]);
  }
  const Value3 g = EvalGate3(type, good_in_);
  if (id == fault_.node) {
    if (fault_.IsStem()) return {g, FromBool(fault_.stuck_value)};
    faulty_in_[fault_.fanin_index] = FromBool(fault_.stuck_value);
  }
  return {g, EvalGate3(type, faulty_in_)};
}

void Podem::NextStamp() {
  if (++stamp_ == 0) {  // wrapped: no visit may carry the new stamp
    std::fill(visited_.begin(), visited_.end(), 0);
    stamp_ = 1;
  }
}

void Podem::BuildCone() {
  cone_.clear();
  cone_outputs_.clear();
  cone_gates_begin_ = 0;
  // A flop D-branch fault never reaches a gate's faulty plane: it is
  // observed at the flop's PPO slot (see Detected/Objective).
  if (!fault_.IsStem() && netlist_.TypeOf(fault_.node) == GateType::Dff)
    return;
  // Mark the cone breadth-first, then list it in TopologicalOrder() order
  // (sources are not in that order: a source site goes first).
  NextStamp();
  stack_.assign(1, fault_.node);
  visited_[fault_.node] = stamp_;
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    for (NodeId out : netlist_.FanoutsOf(stack_[i])) {
      if (netlist_.TypeOf(out) == GateType::Dff) continue;
      if (visited_[out] == stamp_) continue;
      visited_[out] = stamp_;
      stack_.push_back(out);
    }
  }
  const GateType site_type = netlist_.TypeOf(fault_.node);
  if (site_type == GateType::Input || site_type == GateType::Dff) {
    cone_.push_back(fault_.node);
    cone_gates_begin_ = 1;
  }
  for (NodeId id : netlist_.TopologicalOrder()) {
    if (visited_[id] == stamp_) cone_.push_back(id);
  }
  for (NodeId id : cone_) {
    if (is_output_[id]) cone_outputs_.push_back(id);
  }
}

void Podem::InitPlanes() {
  // No gate type has a constant output, so with every input X the whole
  // fault-free plane is X; the faulty plane differs only inside the cone.
  good_.assign(netlist_.NodeCount(), Value3::X);
  faulty_.assign(netlist_.NodeCount(), Value3::X);
  if (cone_gates_begin_ == 1) {
    faulty_[fault_.node] = FromBool(fault_.stuck_value);
  }
  for (std::size_t i = cone_gates_begin_; i < cone_.size(); ++i) {
    faulty_[cone_[i]] = EvaluateNode(cone_[i]).second;
  }
}

void Podem::AssignAndPropagate(std::uint32_t input_index, Value3 value) {
  assignment_[input_index] = value;
  const netlist::NodeId input = netlist_.CoreInputs()[input_index];
  trail_.push_back({input, good_[input], faulty_[input]});
  good_[input] = value;
  faulty_[input] = (fault_.IsStem() && input == fault_.node)
                       ? FromBool(fault_.stuck_value)
                       : value;

  if (level_buckets_.size() != netlist_.MaxLevel() + 1) {
    level_buckets_.assign(netlist_.MaxLevel() + 1, {});
    in_queue_.assign(netlist_.NodeCount(), 0);
  }

  std::uint32_t min_level = netlist_.MaxLevel() + 1;
  std::uint32_t max_level = 0;
  auto enqueue_fanouts = [&](netlist::NodeId id) {
    for (netlist::NodeId out : netlist_.FanoutsOf(id)) {
      if (netlist_.TypeOf(out) == GateType::Dff) continue;
      if (in_queue_[out]) continue;
      in_queue_[out] = 1;
      const std::uint32_t lvl = netlist_.LevelOf(out);
      level_buckets_[lvl].push_back(out);
      min_level = std::min(min_level, lvl);
      max_level = std::max(max_level, lvl);
    }
  };
  enqueue_fanouts(input);

  for (std::uint32_t lvl = min_level; lvl <= max_level && lvl < level_buckets_.size(); ++lvl) {
    auto& bucket = level_buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const netlist::NodeId id = bucket[i];
      in_queue_[id] = 0;
      const auto [g, f] = EvaluateNode(id);
      if (g == good_[id] && f == faulty_[id]) continue;
      trail_.push_back({id, good_[id], faulty_[id]});
      good_[id] = g;
      faulty_[id] = f;
      enqueue_fanouts(id);
    }
    bucket.clear();
  }
}

void Podem::UndoTo(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    good_[e.node] = e.good;
    faulty_[e.node] = e.faulty;
    trail_.pop_back();
  }
}

bool Podem::Detected() const {
  // Flop D-branch faults are observed directly at the flop's PPO slot.
  if (!fault_.IsStem() && netlist_.TypeOf(fault_.node) == GateType::Dff) {
    const Value3 g = good_[netlist_.FaninsOf(fault_.node)[0]];
    return g != Value3::X && g != FromBool(fault_.stuck_value);
  }
  for (NodeId id : cone_outputs_) {
    if (good_[id] != Value3::X && faulty_[id] != Value3::X &&
        good_[id] != faulty_[id]) {
      return true;
    }
  }
  return false;
}

std::optional<std::pair<NodeId, Value3>> Podem::Objective() const {
  // Flop D-branch: single objective — drive the D net to the opposite value.
  if (!fault_.IsStem() && netlist_.TypeOf(fault_.node) == GateType::Dff) {
    const NodeId driver = netlist_.FaninsOf(fault_.node)[0];
    if (good_[driver] != Value3::X) return std::nullopt;  // conflict or done
    return std::make_pair(driver, Not3(FromBool(fault_.stuck_value)));
  }

  // Activation: the fault site (stem) or faulted pin's driver must carry the
  // opposite of the stuck value in the good circuit.
  const NodeId site_net = fault_.IsStem()
                              ? fault_.node
                              : netlist_.FaninsOf(fault_.node)[fault_.fanin_index];
  const Value3 want = Not3(FromBool(fault_.stuck_value));
  if (good_[site_net] == Value3::X) return std::make_pair(site_net, want);
  if (good_[site_net] != want) return std::nullopt;  // unactivatable here

  // Propagation: pick the first D-frontier gate in topological order and set
  // one of its X inputs to the non-controlling value. For a branch fault the
  // site gate itself is in the frontier: its faulted pin carries D by the
  // forced value, even though the driver net's planes agree. Every frontier
  // gate has a D input or is the site, so it lies in the cone.
  for (std::size_t i = cone_gates_begin_; i < cone_.size(); ++i) {
    const NodeId id = cone_[i];
    if (good_[id] != Value3::X && faulty_[id] != Value3::X) continue;
    bool has_d_input = false;
    if (id == fault_.node && !fault_.IsStem()) {
      has_d_input = true;  // activation was checked above
    }
    for (NodeId f : netlist_.FaninsOf(id)) {
      if (has_d_input) break;
      if (good_[f] != Value3::X && faulty_[f] != Value3::X &&
          good_[f] != faulty_[f]) {
        has_d_input = true;
      }
    }
    if (!has_d_input) continue;
    const GateType type = netlist_.TypeOf(id);
    for (NodeId f : netlist_.FaninsOf(id)) {
      if (good_[f] != Value3::X) continue;
      const int ctrl = netlist::ControllingValue(type);
      const Value3 v = ctrl < 0 ? Value3::Zero : Not3(FromBool(ctrl == 1));
      return std::make_pair(f, v);
    }
  }
  return std::nullopt;  // no D-frontier gate with an X input
}

std::optional<std::pair<std::uint32_t, Value3>> Podem::Backtrace(
    NodeId node, Value3 value) const {
  // Follow X-valued nets toward a core input, inverting the target value
  // through inverting gates.
  NodeId cur = node;
  Value3 v = value;
  for (;;) {
    const GateType type = netlist_.TypeOf(cur);
    if (type == GateType::Input || type == GateType::Dff) {
      const std::uint32_t idx = input_index_of_[cur];
      if (assignment_[idx] != Value3::X) return std::nullopt;  // already set
      return std::make_pair(idx, v);
    }
    const Value3 v_in = IsInverting(type) ? Not3(v) : v;
    // Choose an X-valued input. If the required value is the controlling
    // value, any single input suffices ("easiest": lowest level). Otherwise
    // all inputs must eventually get it, start with the hardest (highest
    // level) to fail fast.
    const int ctrl = netlist::ControllingValue(type);
    NodeId chosen = netlist::kInvalidNode;
    const bool want_easiest = ctrl >= 0 && v_in == FromBool(ctrl == 1);
    std::uint32_t best_level = 0;
    for (NodeId f : netlist_.FaninsOf(cur)) {
      if (good_[f] != Value3::X) continue;
      const std::uint32_t lvl = netlist_.LevelOf(f);
      if (chosen == netlist::kInvalidNode ||
          (want_easiest ? lvl < best_level : lvl > best_level)) {
        chosen = f;
        best_level = lvl;
      }
    }
    if (chosen == netlist::kInvalidNode) return std::nullopt;
    if (type == GateType::Xor || type == GateType::Xnor) {
      // XOR heuristic: pick the value that yields the desired output parity
      // assuming the remaining X inputs settle at 0; backtracking corrects
      // wrong guesses.
      Value3 parity = type == GateType::Xnor ? Value3::One : Value3::Zero;
      for (NodeId f : netlist_.FaninsOf(cur)) {
        if (f == chosen) continue;
        if (good_[f] == Value3::One) parity = Not3(parity);
      }
      v = Xor3(v, parity);
    } else {
      v = v_in;
    }
    cur = chosen;
  }
}

bool Podem::XPathExists() {
  // A fault effect can still reach an observation point if some node that
  // carries D (planes differ) or X faulty value has a forward path of
  // X-valued nodes to a core output. Conservative check: DFS from
  // D-carrying nodes (all inside the cone) through X nodes; the answer is
  // plain reachability, whatever order the search takes.
  stack_.clear();
  for (NodeId id : cone_) {
    if (good_[id] != Value3::X && faulty_[id] != Value3::X &&
        good_[id] != faulty_[id]) {
      stack_.push_back(id);
    }
  }
  if (stack_.empty()) {
    const NodeId site_net =
        fault_.IsStem() ? fault_.node
                        : netlist_.FaninsOf(fault_.node)[fault_.fanin_index];
    if (good_[site_net] == Value3::X) return true;  // activation still open
    if (good_[site_net] == FromBool(fault_.stuck_value)) return false;
    // Branch fault activated at the pin but not yet visible at the site
    // gate's output: propagation is possible iff that output is still
    // undetermined in some plane.
    if (!fault_.IsStem() && netlist_.TypeOf(fault_.node) != GateType::Dff &&
        (good_[fault_.node] == Value3::X ||
         faulty_[fault_.node] == Value3::X)) {
      stack_.push_back(fault_.node);
    }
    if (stack_.empty()) return false;
  }

  NextStamp();
  while (!stack_.empty()) {
    const NodeId id = stack_.back();
    stack_.pop_back();
    if (is_output_[id]) return true;
    for (NodeId out : netlist_.FanoutsOf(id)) {
      if (netlist_.TypeOf(out) == GateType::Dff) continue;
      if (visited_[out] == stamp_) continue;
      visited_[out] = stamp_;
      // Propagation is possible through nodes whose value is not yet fixed
      // identically in both planes.
      if (good_[out] == Value3::X || faulty_[out] == Value3::X ||
          good_[out] != faulty_[out]) {
        stack_.push_back(out);
      }
    }
  }
  return false;
}

PodemResult Podem::Generate(const sim::StuckAtFault& fault,
                            const TestCube* hint) {
  fault_ = fault;
  BuildCone();
  if (hint && hint->bits.size() == netlist_.CoreInputs().size()) {
    PodemResult hinted = GenerateImpl(hint);
    // A hinted Untestable is still a complete-search proof (hint decisions
    // are flippable); only an abort warrants a fresh unhinted attempt.
    if (hinted.outcome != PodemOutcome::Aborted) return hinted;
  }
  return GenerateImpl(nullptr);
}

PodemResult Podem::GenerateImpl(const TestCube* hint) {
  assignment_.assign(netlist_.CoreInputs().size(), Value3::X);
  decisions_.clear();
  trail_.clear();
  PodemResult result;

  InitPlanes();
  auto decide = [this](std::uint32_t idx, Value3 value) {
    decisions_.push_back(
        {idx, value, false, static_cast<std::uint32_t>(trail_.size())});
    AssignAndPropagate(idx, value);
  };
  if (hint) {
    // Seed the hint's care bits as ordinary decisions: usually they carry
    // the region's shared activation/propagation conditions and the search
    // finishes immediately; when they conflict, normal backtracking flips
    // them like any other decision.
    for (std::size_t i = 0; i < hint->bits.size(); ++i) {
      if (Detected()) break;
      if (hint->bits[i] == Value3::X || assignment_[i] != Value3::X) continue;
      decide(static_cast<std::uint32_t>(i), hint->bits[i]);
    }
  }
  for (;;) {
    if (Detected()) {
      result.outcome = PodemOutcome::Detected;
      result.cube.bits = assignment_;
      return result;
    }

    bool dead_end = false;
    std::optional<std::pair<std::uint32_t, Value3>> next;
    if (!XPathExists()) {
      dead_end = true;
    } else if (auto obj = Objective()) {
      next = Backtrace(obj->first, obj->second);
      dead_end = !next.has_value();
    } else {
      dead_end = true;
    }

    if (!dead_end) {
      decide(next->first, next->second);
      continue;
    }

    // Backtrack: undo to the most recent unflipped decision and flip it.
    for (;;) {
      if (decisions_.empty()) {
        result.outcome = PodemOutcome::Untestable;
        return result;
      }
      Decision& d = decisions_.back();
      UndoTo(d.trail_mark);
      if (!d.flipped) {
        d.flipped = true;
        d.value = Not3(d.value);
        ++result.backtracks;
        break;
      }
      assignment_[d.input_index] = Value3::X;
      decisions_.pop_back();
    }
    if (result.backtracks > backtrack_limit_) {
      result.outcome = PodemOutcome::Aborted;
      return result;
    }
    AssignAndPropagate(decisions_.back().input_index, decisions_.back().value);
  }
}

}  // namespace bistdse::atpg
