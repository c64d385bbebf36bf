// Workload `corpus`: arch::SweepCorpus over topologies sampled from the
// default envelope — DSE per topology, representative pick, and an
// adversarial frame-level campaign (clean baseline plus randomized
// loss/corruption/reordering rounds) with the PERF.md invariants judged on
// every round. The network engine (net) takes nearly all the time, and
// nearly all of its frames are functional filler.
//
// The topologies and the sweep's DSE seed are fixed (the first four members
// of corpus seed 3): sampled topologies differ up to 30x in campaign time,
// so a seeded topology set would make runs incomparable. The workload seed
// draws the adversarial campaign schedules.
//
// The traced pass drives the sweep stage by stage through the public calls
// SweepCorpus makes and must reproduce its representatives and its rounds:
// verdicts, simulated time and frame counts.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "arch/corpus.hpp"
#include "bench.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/report.hpp"
#include "model/specification.hpp"
#include "net/campaign.hpp"

namespace perfbench {
namespace {

using namespace bistdse;

constexpr std::size_t kTopologies = 4;
constexpr std::uint64_t kCorpusSeed = 3;

arch::CorpusSpec Corpus() {
  arch::CorpusSpec corpus;
  corpus.count = kTopologies;
  corpus.seed = kCorpusSeed;
  corpus.profile_pool = casestudy::ScaledTableI(1.0 / 256, 4);
  return corpus;
}

arch::CorpusSweepOptions Options(std::uint64_t seed) {
  arch::CorpusSweepOptions options;
  options.exploration.evaluations = 300;
  options.exploration.population_size = 24;
  // Pinned, as the CLI's `corpus --seed 3` pins it. Drawing it from the
  // workload seed hits a known program defect on some seeds (a zero-loss
  // download outside the 5 % band); see perfbench/README.md.
  options.exploration.seed = kCorpusSeed;
  options.campaign.rounds = 3;
  options.campaign.seed = Mix(seed);
  return options;
}

/// Simulated time of every executed session of every round, in seconds:
/// the amount of bus traffic the sweep simulates, fixed by the inputs.
double SimulatedSeconds(const net::CampaignReport& campaign) {
  double ms = 0.0;
  for (const auto& round : campaign.rounds) {
    for (const auto& session : round.report.sessions) {
      ms += session.simulated_total_ms;
    }
  }
  return ms * 1e-3;
}

std::string Verdict(const net::CampaignRound& r) {
  return std::string(r.completed ? "c" : "-") + (r.q_bounded ? "q" : "-") +
         (r.wcrt_dominated ? "w" : "-") + (r.non_intrusive ? "n" : "-") +
         r.failure;
}

/// Fingerprint of what a round executed: its verdict and, per session, the
/// simulated time and the transfers' frame counts. It differs when another
/// representative or another fault schedule ran.
std::uint64_t RoundHash(const net::CampaignRound& r) {
  Fnv h;
  h.Add(Verdict(r));
  for (const auto& s : r.report.sessions) {
    h.Add(s.simulated_total_ms);
    for (const net::TransferStats* t : {&s.download, &s.upload}) {
      h.Add(t->frames_sent);
      h.Add(t->delivered);
      h.Add(t->retransmissions);
    }
  }
  return h.Value();
}

std::uint64_t ObjectivesHash(const dse::Objectives& o) {
  Fnv h;
  h.Add(o.test_quality_percent);
  h.Add(o.shutoff_time_ms);
  h.Add(o.monetary_cost);
  h.Add(o.gateway_memory_bytes);
  h.Add(o.distributed_memory_bytes);
  return h.Value();
}

struct NetCounts {
  double sim_s = 0.0;
  std::uint64_t frames_sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmissions = 0;
};

/// SweepCorpus, stage by stage, with a span around each public call; checks
/// the representative and every round (verdict, simulated time, frame
/// counts) against `expected`.
void TracedSweep(const arch::CorpusSpec& corpus,
                 const arch::CorpusSweepOptions& options,
                 const arch::CorpusSweepReport& expected, Tracer& tracer,
                 Report& report, NetCounts& net_counts, double& decode_s) {
  for (std::size_t i = 0; i < corpus.count; ++i) {
    std::unique_ptr<arch::Topology> topo;
    std::size_t fd_buses = 0;
    {
      Tracer::Scope span(&tracer, "arch.generate");
      const arch::TopologySpec spec = arch::SampleTopologySpec(corpus, i);
      for (const auto& bus : spec.buses) fd_buses += bus.fd ? 1 : 0;
      topo = std::make_unique<arch::Topology>(
          arch::GenerateTopology(spec, arch::TopologySeed(corpus, i)));
    }
    dse::ExplorationConfig config = options.exploration;
    config.evaluation.use_can_fd |= fd_buses > 0;
    dse::ExplorationResult front;
    {
      Tracer::Scope span(&tracer, "dse.corpus_explore");
      dse::Explorer explorer(topo->spec, topo->augmentation, config);
      front = explorer.Run();
    }
    decode_s += front.decoder_stats.decode_seconds;
    const auto& want = expected.topologies[i];
    if (front.pareto.empty()) {
      report.Check(!want.passed, "traced sweep: empty front");
      continue;
    }
    const auto picks =
        dse::RankCheapestMeetingQuality(front, options.min_quality_percent);
    const dse::ExplorationEntry* pick =
        !picks.empty() ? picks.front()
                       : &*std::max_element(
                             front.pareto.begin(), front.pareto.end(),
                             [](const auto& a, const auto& b) {
                               return a.objectives.test_quality_percent <
                                      b.objectives.test_quality_percent;
                             });
    report.Check(ObjectivesHash(pick->objectives) ==
                     ObjectivesHash(want.representative),
                 "traced sweep: representative of " + want.name +
                     " differs from SweepCorpus");

    net::CampaignScheduleSpec schedule = options.campaign;
    schedule.seed ^= 0x94d049bb133111ebULL * (i + 1);
    const auto rounds = net::MakeCampaignSchedule(schedule);
    report.Check(rounds.size() == want.campaign.rounds.size(),
                 "traced sweep: round count differs");
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      net::SessionExecutorOptions executor_options = options.executor;
      executor_options.faults = rounds[r];
      const net::SessionExecutor executor(topo->spec, topo->augmentation,
                                          executor_options);
      net::SessionExecutionReport executed;
      {
        Tracer::Scope span(&tracer, "net.execute");
        executed = executor.Execute(pick->implementation);
      }
      net::CampaignRound round;
      {
        Tracer::Scope span(&tracer, "net.judge");
        round = net::JudgeExecution(std::move(executed), rounds[r], r == 0,
                                    schedule.zero_loss_block_slack_ms,
                                    options.executor.transport.block_size);
      }
      for (const auto& s : round.report.sessions) {
        net_counts.sim_s += s.simulated_total_ms * 1e-3;
        net_counts.frames_sent += s.download.frames_sent + s.upload.frames_sent;
        net_counts.delivered += s.download.delivered + s.upload.delivered;
        net_counts.retransmissions +=
            s.download.retransmissions + s.upload.retransmissions;
      }
      report.Check(r < want.campaign.rounds.size() &&
                       RoundHash(round) == RoundHash(want.campaign.rounds[r]),
                   "traced sweep: " + want.name + " round " +
                       std::to_string(r) + " differs from SweepCorpus");
    }
  }
}

}  // namespace

void RunCorpus(const Args& args, Report& report) {
  const arch::CorpusSpec corpus = Corpus();
  const arch::CorpusSweepOptions options = Options(args.seed);
  std::vector<arch::Topology> topologies;
  report.Set("setup_s", TimeSetup([&] {
               topologies.clear();
               for (std::size_t i = 0; i < corpus.count; ++i) {
                 topologies.push_back(arch::GenerateTopology(
                     arch::SampleTopologySpec(corpus, i),
                     arch::TopologySeed(corpus, i)));
               }
             }),
             "s");

  arch::CorpusSweepReport sweep;
  std::string round_hashes;
  bool stable = true;
  const std::vector<double> passes = TimePasses(
      args.trace ? 0.0 : args.seconds, args.trace ? 2 : 1, [&](int i) {
        arch::CorpusSweepReport r = arch::SweepCorpus(corpus, options);
        std::string v;
        for (const auto& t : r.topologies) {
          for (const auto& round : t.campaign.rounds) {
            v += std::to_string(RoundHash(round)) + ";";
          }
        }
        if (i == 0) {
          round_hashes = v;
          sweep = std::move(r);
        }
        stable &= v == round_hashes;
      });
  report.Check(stable, "corpus rounds differ between passes");
  report.Check(sweep.all_passed, "a corpus invariant failed");
  double sim_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t failed_rounds = 0;
  for (std::size_t i = 0; i < sweep.topologies.size(); ++i) {
    const auto& t = sweep.topologies[i];
    report.Check(t.content_hash == model::ContentHash(topologies[i].spec),
                 "sweep topology differs from the set-up topology");
    sim_s += SimulatedSeconds(t.campaign);
    for (std::size_t r = 0; r < t.campaign.rounds.size(); ++r) {
      const net::CampaignRound& round = t.campaign.rounds[r];
      ++rounds;
      failed_rounds += round.Passed() ? 0 : 1;
      report.Check(round.Passed(), t.name + " round " + std::to_string(r) +
                                       ": " + round.failure);
    }
    report.Info("topology." + t.name,
                std::to_string(t.num_ecus) + " ecus, " +
                    std::to_string(t.num_buses) + " buses (" +
                    std::to_string(t.fd_buses) + " fd), " +
                    std::to_string(t.generations) + " generations, " +
                    std::to_string(t.campaign_seconds) + " s campaign");
  }
  const double pass_s = Median(passes);
  report.Set("pass_s", pass_s, "s");
  report.Info("pass_times_s", Join(passes));
  report.attempted = rounds;
  report.failed = failed_rounds;
  report.Info("corpus_s", std::to_string(pass_s) + " s (median of " +
                              std::to_string(passes.size()) + " passes)");
  report.Info("simulated_s", std::to_string(sim_s) + " sim-s");
  if (!args.trace) return;

  Tracer tracer;
  NetCounts net_counts;
  double decode_s = 0.0;
  const double t0 = tracer.Now();
  TracedSweep(corpus, options, sweep, tracer, report, net_counts, decode_s);
  const double t1 = tracer.Now();
  auto pct = ReportTrace(args, report, tracer, t0, t1, passes.back());
  const double execute_s = pct["net.execute"] * (t1 - t0) / 100.0;
  report.Set("arch.generate_pct", pct["arch.generate"], "%");
  report.Set("dse.corpus_explore_pct", pct["dse.corpus_explore"], "%");
  report.Set("sat.decode_pct", 100.0 * decode_s / (t1 - t0), "%");
  report.Set("net.execute_pct", pct["net.execute"], "%");
  report.Set("net.judge_pct", pct["net.judge"], "%");
  report.Set("net.sim_s", net_counts.sim_s, "sim-s");
  report.Set("net.host_per_sim",
             net_counts.sim_s > 0 ? execute_s / net_counts.sim_s : 0.0,
             "ratio");
  report.Set("net.test_frames", static_cast<double>(net_counts.frames_sent),
             "count");
  report.Set("net.delivery_ratio",
             net_counts.frames_sent
                 ? static_cast<double>(net_counts.delivered) /
                       static_cast<double>(net_counts.frames_sent)
                 : 0.0,
             "ratio");
  report.Set("net.retransmissions",
             static_cast<double>(net_counts.retransmissions), "count");
}

}  // namespace perfbench
