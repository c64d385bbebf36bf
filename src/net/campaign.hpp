// Adversarial session campaigns: randomized fault schedules through the
// deterministic frame-level injector.
//
// The corpus sweep (arch::SweepCorpus) and the `corpus` CLI leg do not run
// one session execution but a *campaign*: a seeded sequence of fault
// schedules — a clean baseline round followed by randomized loss/corruption/
// reordering mixes — each replayed through net::SessionExecutor, with the
// three PERF.md invariants asserted per round:
//
//   1. Eq.-1 lower bound: no simulated transfer beats the analytical
//      sustained rate q (downloads strictly; uploads start mid-stream and
//      may land one slot period early). At zero loss downloads additionally
//      stay within the discretization band above q: 1.05 q plus a fixed
//      slack per flow-control block (see zero_loss_block_slack_ms).
//   2. WCRT domination: the observed worst response of every frame stays at
//      or below the analytical worst case.
//   3. Non-intrusiveness: slots that are not mirrored diagnosis carriers
//      (the certified functional schedule) are never pushed past their
//      analytical bound by diagnosis traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/implementation.hpp"
#include "model/specification.hpp"
#include "net/session_executor.hpp"

namespace bistdse::net {

/// Shape of one randomized campaign. Rates are *caps*: each adversarial
/// round draws its drop/corrupt/reorder mix uniformly below them from the
/// campaign seed, so a campaign is reproducible bit-for-bit.
struct CampaignScheduleSpec {
  std::size_t rounds = 4;  ///< Adversarial rounds after the clean baseline.
  double max_drop_rate = 0.04;
  double max_corrupt_rate = 0.02;
  double max_reorder_rate = 0.02;
  /// When false the functional background traffic stays lossless and only
  /// transport frames are judged.
  bool affect_functional = true;
  std::uint64_t seed = 1;
  /// Absolute slack per flow-control block added to the baseline round's
  /// 1.05 q upper band on downloads. Eq. 1 is a sustained-rate bound; each
  /// `block_size`-frame block additionally pays the FC round trip (grant
  /// latency, gateway store-and-forward each way, FC frame time, slot
  /// re-entry), a per-block cost that a purely relative band cannot absorb
  /// on short transfers. The Eq.-1 *lower* bound stays exact.
  double zero_loss_block_slack_ms = 2.5;
};

/// The concrete injector configs of a campaign: element 0 is always the
/// fault-free baseline (the only round where the 1.05 q upper band is a
/// valid assertion), followed by `spec.rounds` randomized schedules.
std::vector<FaultInjectorConfig> MakeCampaignSchedule(
    const CampaignScheduleSpec& spec);

struct CampaignRound {
  FaultInjectorConfig faults;
  SessionExecutionReport report;
  bool baseline = false;     ///< Round 0: fault-free, 5 % band asserted.
  bool completed = true;     ///< Every session finished within its stall cap.
  bool q_bounded = true;     ///< Invariant 1.
  bool wcrt_dominated = true;  ///< Invariant 2.
  bool non_intrusive = true;   ///< Invariant 3.
  std::string failure;       ///< First violated check, for diagnostics.

  bool Passed() const {
    return completed && q_bounded && wcrt_dominated && non_intrusive;
  }
};

struct CampaignReport {
  std::vector<CampaignRound> rounds;
  bool all_completed = true;
  bool all_q_bounded = true;
  bool all_wcrt_dominated = true;
  bool all_non_intrusive = true;
  std::uint64_t total_frames_dropped = 0;
  std::uint64_t total_frames_corrupted = 0;
  std::uint64_t total_retransmissions = 0;

  bool Passed() const {
    return all_completed && all_q_bounded && all_wcrt_dominated &&
           all_non_intrusive;
  }
};

/// Checks the three invariants of one executed report. `zero_loss` arms the
/// baseline-only upper band on downloads: 1.05 q plus `block_slack_ms` per
/// started `frames_per_block`-frame flow-control block.
CampaignRound JudgeExecution(SessionExecutionReport report,
                             const FaultInjectorConfig& faults,
                             bool zero_loss, double block_slack_ms = 2.5,
                             std::uint32_t frames_per_block = 16);

/// Replays every selected BIST session of `impl` under each schedule round
/// and judges the invariants. `base` supplies transport/plan options and
/// `threads`; its fault config is overridden per round. All rounds run as
/// one SessionExecutor::ExecuteRounds grid.
CampaignReport RunAdversarialCampaign(
    const model::Specification& spec,
    const model::BistAugmentation& augmentation,
    const model::Implementation& impl, const SessionExecutorOptions& base,
    const CampaignScheduleSpec& schedule);

}  // namespace bistdse::net
