// Workload `profiles`: the mixed-mode BIST profile table of the scaled
// paper CUT (bist::ProfileGenerator::GenerateAll). PODEM top-up (atpg)
// dominates; drop-mode fault-simulation campaigns (sim) and reseeding
// encoding (bist) do the rest.
//
// The CUT is the canonical scaled paper CUT (casestudy::ScaledCutSpec()):
// its cost is set by how many random-resistant faults PODEM aborts on, which
// swings the table's time by +-25 % from one generated CUT to the next. The
// workload seed draws the PRPG seed and the PODEM fill seed instead.
//
// The traced pass drives the same pipeline stage by stage through the
// public calls GenerateAll makes — random-phase campaign, per-variant
// PODEM, top-up campaign, reseeding encoding, cost model — and must
// reproduce GenerateAll's table hash exactly.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "atpg/tpg.hpp"
#include "bench.hpp"
#include "bist/campaign_sources.hpp"
#include "bist/profile_generator.hpp"
#include "bist/reseeding.hpp"
#include "bist/stumps.hpp"
#include "casestudy/casestudy.hpp"
#include "netlist/random_circuit.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_memo.hpp"
#include "sim/fault.hpp"

namespace perfbench {
namespace {

using namespace bistdse;

/// Both regimes of the table: PODEM-heavy short random phases and a long
/// phase whose survivors are few and random-resistant; one maximum-coverage
/// variant per count.
bist::ProfileGeneratorConfig Config(std::uint64_t seed) {
  bist::ProfileGeneratorConfig config;
  config.prp_counts = {128, 512, 20000};
  config.coverage_targets_percent = {100.0};
  config.fill_seeds = {Mix(seed) % 1000000};
  config.stumps = casestudy::PaperStumpsConfig();
  config.stumps.prpg_seed = (Mix(seed ^ 0x9b1d) & 0xffffffffULL) | 1;
  return config;
}

std::uint64_t TableHash(const std::vector<bist::BistProfile>& table) {
  Fnv h;
  for (const bist::BistProfile& p : table) {
    h.Add(p.profile_number);
    h.Add(p.num_random_patterns);
    h.Add(p.fault_coverage_percent);
    h.Add(p.runtime_ms);
    h.Add(p.data_bytes);
    h.Add(p.num_deterministic_patterns);
    h.Add(p.care_bits);
  }
  return h.Value();
}

/// Counts behind atpg/bist time, summed over every variant that ran PODEM.
struct TracedCounts {
  std::uint64_t targets = 0;
  std::uint64_t detected = 0;
  std::uint64_t aborted = 0;
  std::uint64_t untestable = 0;
  std::uint64_t unencodable = 0;
  double random_patterns_per_s = 0.0;
};

/// Per-pattern coverage gains of a top-up stream, stopping once the target
/// is reached — the same sink GenerateAll installs.
class TopUpSink final : public sim::CampaignSink {
 public:
  TopUpSink(std::vector<std::size_t>& gains, std::size_t covered,
            std::size_t total, double target)
      : gains_(gains), covered_(covered), total_(total), target_(target) {}

  bool OnBlock(sim::CampaignBlock& block) override {
    for (std::size_t i = 0; i < block.TrackedCount(); ++i) {
      const int first = block.TrackedFirstDetect(i);
      if (first >= 0) {
        ++gains_[static_cast<std::size_t>(block.BaseIndex()) +
                 static_cast<std::size_t>(first)];
        ++covered_;
      }
    }
    return 100.0 * static_cast<double>(covered_) /
               static_cast<double>(total_) <
           target_;
  }

 private:
  std::vector<std::size_t>& gains_;
  std::size_t covered_;
  std::size_t total_;
  double target_;
};

/// GenerateAll, stage by stage, with a span around each public call.
std::vector<bist::BistProfile> TracedGenerateAll(
    const netlist::Netlist& cut, const bist::ProfileGeneratorConfig& config,
    Tracer& tracer, TracedCounts& counts) {
  const auto faults = sim::CollapsedFaults(cut);
  const std::size_t total = faults.size();
  const std::size_t width = cut.CoreInputs().size();
  sim::CampaignRunner runner(
      cut, sim::CampaignConfig{
               .block_width = config.block_width,
               .threads = config.threads,
               .narrow_warmup_patterns = config.narrow_warmup_patterns,
               .structural_shortcuts = config.structural_shortcuts});

  std::vector<std::uint64_t> first_detect(faults.size(), UINT64_MAX);
  {
    Tracer::Scope span(&tracer, "sim.random_phase");
    bist::PrpgSource source(config.stumps, width);
    const sim::CampaignStats stats = sim::RunFirstDetectMemoized(
        runner, source, bist::PrpgStreamKey(config.stumps, width), faults,
        first_detect, config.prp_counts.back(), /*warmup=*/true, nullptr);
    counts.random_patterns_per_s = stats.PatternsPerSecond();
  }

  bist::ReseedingEncoder encoder(static_cast<std::uint32_t>(width));
  std::vector<bist::BistProfile> table;
  std::uint32_t number = 1;
  for (std::uint64_t prps : config.prp_counts) {
    std::vector<sim::StuckAtFault> undetected;
    std::size_t random_detected = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (first_detect[i] < prps) {
        ++random_detected;
      } else {
        undetected.push_back(faults[i]);
      }
    }
    for (std::size_t v = 0; v < config.coverage_targets_percent.size(); ++v) {
      const double target = config.coverage_targets_percent[v];
      const bool already_met = 100.0 * static_cast<double>(random_detected) /
                                   static_cast<double>(total) >=
                               target;
      atpg::DeterministicTpgResult tpg;
      if (!already_met) {
        atpg::DeterministicTpgOptions opts;
        opts.seed = config.fill_seeds[v] * 1000003 + prps;
        opts.backtrack_limit = config.podem_backtrack_limit;
        opts.reverse_compaction = true;
        Tracer::Scope span(&tracer, "atpg.tpg");
        tpg = atpg::GenerateDeterministicPatterns(cut, undetected, opts);
        counts.targets += undetected.size();
        counts.detected += tpg.detected;
        counts.aborted += tpg.aborted;
        counts.untestable += tpg.untestable;
      }
      std::vector<std::size_t> gains(tpg.patterns.size(), 0);
      if (!already_met && !tpg.patterns.empty()) {
        Tracer::Scope span(&tracer, "sim.topup");
        sim::StoredPatternSource source(tpg.patterns);
        TopUpSink sink(gains, random_detected, total, target);
        runner.Run(source, sink, {.track = undetected, .drop_detected = true});
      }
      std::size_t covered = random_detected;
      std::size_t prefix = 0;
      for (std::size_t p = 0; !already_met && p < tpg.patterns.size(); ++p) {
        covered += gains[p];
        prefix = p + 1;
        if (100.0 * static_cast<double>(covered) / static_cast<double>(total) >=
            target) {
          break;
        }
      }
      std::size_t achieved = random_detected;
      for (std::size_t p = 0; p < prefix; ++p) achieved += gains[p];

      bist::BistProfile prof;
      prof.profile_number = number++;
      prof.num_random_patterns = prps;
      prof.num_deterministic_patterns = prefix;
      prof.fault_coverage_percent =
          100.0 * static_cast<double>(achieved) / static_cast<double>(total);
      prof.runtime_ms = config.stumps.PatternTimeMs(prps + prefix) +
                        config.state_restore_ms;
      std::uint64_t encoded_bytes = 0;
      {
        Tracer::Scope span(&tracer, "bist.encode");
        for (std::size_t p = 0; p < prefix; ++p) {
          prof.care_bits += tpg.cubes[p].CareBitCount();
          if (auto enc = encoder.Encode(tpg.cubes[p])) {
            encoded_bytes += enc->StorageBytes();
          } else {
            encoded_bytes += (width + 7) / 8;
            ++counts.unencodable;
          }
        }
      }
      const std::uint64_t response_bytes =
          bist::StumpsSession(cut, config.stumps)
              .ResponseDataBytes(prps + prefix);
      prof.data_bytes = static_cast<std::uint64_t>(
          static_cast<double>(encoded_bytes + response_bytes) *
          config.byte_scale);
      table.push_back(prof);
    }
  }
  return table;
}

}  // namespace

void RunProfiles(const Args& args, Report& report) {
  const auto spec = casestudy::ScaledCutSpec();
  std::unique_ptr<netlist::Netlist> cut;
  const double setup_s = TimeSetup([&] {
    cut = std::make_unique<netlist::Netlist>(
        netlist::GenerateRandomCircuit(spec));
  });
  report.Set("setup_s", setup_s, "s");
  const auto config = Config(args.seed);

  std::uint64_t hash = 0;
  bist::ProfileGenerationStats stats;
  bool stable = true;
  const std::vector<double> passes = TimePasses(
      args.trace ? 0.0 : args.seconds, args.trace ? 2 : 1, [&](int i) {
        bist::ProfileGenerator generator(*cut, config);
        const std::uint64_t h = TableHash(generator.GenerateAll());
        if (i == 0) {
          hash = h;
          stats = generator.Stats();
        }
        stable &= h == hash;
      });
  report.Check(stable, "profile table hash differs between passes");
  const double pass_s = Median(passes);
  report.Set("pass_s", pass_s, "s");
  report.Info("pass_times_s", Join(passes));
  report.attempted = stats.total_collapsed_faults;
  report.failed = stats.aborted;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(hash));
  report.Info("table_hash", buf);
  report.Info("profiles_s", std::to_string(pass_s) + " s (median of " +
                                std::to_string(passes.size()) + " passes)");
  if (!args.trace) return;

  Tracer tracer;
  TracedCounts counts;
  const double t0 = tracer.Now();
  const std::uint64_t traced_hash =
      TableHash(TracedGenerateAll(*cut, config, tracer, counts));
  const double t1 = tracer.Now();
  report.Check(traced_hash == hash,
               "traced stage-by-stage table hash differs from GenerateAll");
  auto pct = ReportTrace(args, report, tracer, t0, t1, passes.back());
  // The set-up is the CUT generation alone.
  report.Set("netlist.generate_s", setup_s, "s");
  report.Set("sim.random_phase_pct", pct["sim.random_phase"], "%");
  report.Set("sim.random_patterns_per_s", counts.random_patterns_per_s, "1/s");
  report.Set("sim.topup_pct", pct["sim.topup"], "%");
  report.Set("atpg.tpg_pct", pct["atpg.tpg"], "%");
  report.Set("atpg.targets", static_cast<double>(counts.targets), "count");
  report.Set("atpg.detect_ratio",
             counts.targets ? static_cast<double>(counts.detected) /
                                  static_cast<double>(counts.targets)
                            : 0.0,
             "ratio");
  report.Set("atpg.aborted", static_cast<double>(counts.aborted), "count");
  report.Set("atpg.untestable", static_cast<double>(counts.untestable),
             "count");
  report.Set("bist.encode_pct", pct["bist.encode"], "%");
  report.Set("bist.unencodable", static_cast<double>(counts.unencodable),
             "count");
  report.attempted = counts.targets;
  report.failed = counts.aborted;
}

}  // namespace perfbench
