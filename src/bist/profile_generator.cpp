#include "bist/profile_generator.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

#include "bist/campaign_sources.hpp"
#include "bist/pattern_source.hpp"
#include "sim/pattern_set.hpp"
#include "sim/transition_fault.hpp"
#include "util/thread_pool.hpp"

namespace bistdse::bist {

using atpg::DeterministicTpgOptions;
using atpg::GenerateDeterministicPatterns;
using netlist::Netlist;
using sim::BitPattern;
using sim::PatternWord;
using sim::StuckAtFault;

std::string ToString(const BistProfile& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "profile %2u: %8llu PRPs  c=%6.2f%%  l=%9.2f ms  s=%12llu B",
                p.profile_number,
                static_cast<unsigned long long>(p.num_random_patterns),
                p.fault_coverage_percent, p.runtime_ms,
                static_cast<unsigned long long>(p.data_bytes));
  return buf;
}

std::string FormatProfileTable(const std::vector<BistProfile>& profiles) {
  bool has_tdf = false;
  for (const BistProfile& p : profiles) {
    has_tdf |= p.transition_coverage_percent > 0.0;
  }
  std::string out =
      has_tdf
          ? "profile |   #PRPs   |  c(b) [%] | tdf [%] |  l(b) [ms] |  s(b) "
            "[Bytes]\n"
            "--------+-----------+-----------+---------+------------+-------"
            "-------\n"
          : "profile |   #PRPs   |  c(b) [%] |  l(b) [ms] |  s(b) [Bytes]\n"
            "--------+-----------+-----------+------------+--------------\n";
  for (const BistProfile& p : profiles) {
    char buf[160];
    if (has_tdf) {
      std::snprintf(buf, sizeof(buf),
                    "%7u | %9llu | %9.2f | %7.2f | %10.2f | %13llu\n",
                    p.profile_number,
                    static_cast<unsigned long long>(p.num_random_patterns),
                    p.fault_coverage_percent, p.transition_coverage_percent,
                    p.runtime_ms,
                    static_cast<unsigned long long>(p.data_bytes));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%7u | %9llu | %9.2f | %10.2f | %13llu\n",
                    p.profile_number,
                    static_cast<unsigned long long>(p.num_random_patterns),
                    p.fault_coverage_percent, p.runtime_ms,
                    static_cast<unsigned long long>(p.data_bytes));
    }
    out += buf;
  }
  return out;
}

ProfileGenerator::ProfileGenerator(const Netlist& netlist,
                                   ProfileGeneratorConfig config)
    : netlist_(netlist),
      config_(std::move(config)),
      runner_(netlist,
              sim::CampaignConfig{
                  .block_width = config_.block_width,
                  .threads = config_.threads,
                  .narrow_warmup_patterns = config_.narrow_warmup_patterns,
                  .structural_shortcuts = config_.structural_shortcuts}) {
  if (config_.coverage_targets_percent.size() != config_.fill_seeds.size())
    throw std::invalid_argument("one fill seed per coverage target required");
  if (config_.prp_counts.empty() || config_.coverage_targets_percent.empty())
    throw std::invalid_argument("empty profile matrix");
  if (!std::is_sorted(config_.prp_counts.begin(), config_.prp_counts.end()))
    throw std::invalid_argument("prp_counts must be ascending");
  faults_ = sim::CollapsedFaults(netlist_);
  stats_.total_collapsed_faults = faults_.size();
}

void ProfileGenerator::RunRandomPhase() {
  if (random_phase_done_) return;
  const std::uint64_t max_prps = config_.prp_counts.back();
  first_detect_.assign(faults_.size(), UINT64_MAX);

  // Drop campaign over the PRPG stream. The runner handles the narrow
  // warm-up head (drop-heavy start runs at W = 1, sparse survivor tail runs
  // wide — see docs/PERF.md) and the serial fault-order drop merge, so
  // first_detect_ is bit-identical for every width x thread combination —
  // which is also what makes the result memoizable across generators.
  const std::size_t width = netlist_.CoreInputs().size();
  PrpgSource source(config_.stumps, width);
  const sim::CampaignStats stats = sim::RunFirstDetectMemoized(
      runner_, source, PrpgStreamKey(config_.stumps, width), faults_,
      first_detect_, max_prps, /*warmup=*/true, config_.memo);
  stats_.random_detected_at_max_prps =
      static_cast<std::size_t>(stats.dropped);
  random_phase_done_ = true;
}

void ProfileGenerator::SurvivorsAt(std::uint64_t prps,
                                   std::vector<StuckAtFault>* undetected,
                                   std::size_t* random_detected) const {
  undetected->clear();
  *random_detected = 0;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (first_detect_[i] < prps) {
      ++*random_detected;
    } else {
      undetected->push_back(faults_[i]);
    }
  }
}

GeneratedProfile ProfileGenerator::GenerateOne(std::uint64_t prps,
                                               double target_percent,
                                               std::uint64_t fill_seed) {
  if (prps > config_.prp_counts.back()) {
    // The cached random phase stops at the configured maximum; a longer
    // session needs a fresh phase over the longer PRPG stream.
    ProfileGeneratorConfig config = config_;
    config.prp_counts = {prps};
    config.coverage_targets_percent = {target_percent};
    config.fill_seeds = {fill_seed};
    ProfileGenerator generator(netlist_, config);
    return generator.GenerateOne(prps, target_percent, fill_seed);
  }

  RunRandomPhase();
  std::vector<StuckAtFault> undetected;
  std::size_t random_detected = 0;
  SurvivorsAt(prps, &undetected, &random_detected);
  atpg::DeterministicTpgResult tpg;
  const bool run_tpg = !TargetMet(random_detected, target_percent);
  if (run_tpg) tpg = TopUp(prps, fill_seed, undetected);

  const std::size_t width = netlist_.CoreInputs().size();
  const ReseedingEncoder encoder(static_cast<std::uint32_t>(width));

  GeneratedProfile out;
  out.profile = GenerateVariant(prps, target_percent, 1, undetected,
                                random_detected, run_tpg ? &tpg : nullptr,
                                encoder, &out.encoded_patterns);
  return out;
}

bool ProfileGenerator::TargetMet(std::size_t random_detected,
                                 double target_percent) const {
  return 100.0 * static_cast<double>(random_detected) /
             static_cast<double>(faults_.size()) >=
         target_percent;
}

atpg::DeterministicTpgResult ProfileGenerator::TopUp(
    std::uint64_t prps, std::uint64_t fill_seed,
    const std::vector<StuckAtFault>& undetected) const {
  DeterministicTpgOptions opts;
  opts.seed = fill_seed * 1000003 + prps;
  opts.backtrack_limit = config_.podem_backtrack_limit;
  opts.reverse_compaction = true;
  return GenerateDeterministicPatterns(netlist_, undetected, opts);
}

std::vector<BistProfile> ProfileGenerator::GenerateAll() {
  RunRandomPhase();

  // Faults surviving the random phase of each length.
  const std::size_t counts = config_.prp_counts.size();
  const std::size_t variants = config_.coverage_targets_percent.size();
  std::vector<std::vector<StuckAtFault>> undetected(counts);
  std::vector<std::size_t> random_detected(counts, 0);
  for (std::size_t c = 0; c < counts; ++c) {
    SurvivorsAt(config_.prp_counts[c], &undetected[c], &random_detected[c]);
  }

  // Top-up generation depends on (PRP count, fill seed) only, not on the
  // coverage target: one task per distinct pair some variant needs. The
  // tasks are independent, so they run on the pool, each writing its own
  // slot. Table order hands out the largest target lists first: a longer
  // random phase leaves a subset of the survivors of a shorter one.
  struct Task {
    std::size_t count;
    std::uint64_t fill_seed;
  };
  std::vector<Task> tasks;
  std::vector<std::size_t> task_of(counts * variants, SIZE_MAX);
  for (std::size_t c = 0; c < counts; ++c) {
    for (std::size_t v = 0; v < variants; ++v) {
      if (TargetMet(random_detected[c], config_.coverage_targets_percent[v]))
        continue;
      const Task task{c, config_.fill_seeds[v]};
      const auto it =
          std::find_if(tasks.begin(), tasks.end(), [&](const Task& t) {
            return t.count == task.count && t.fill_seed == task.fill_seed;
          });
      task_of[c * variants + v] = static_cast<std::size_t>(it - tasks.begin());
      if (it == tasks.end()) tasks.push_back(task);
    }
  }
  std::vector<atpg::DeterministicTpgResult> tpg(tasks.size());
  util::ThreadPool::Global().ParallelFor(
      0, tasks.size(), config_.threads == 0 ? tasks.size() : config_.threads,
      [&](std::size_t begin, std::size_t end, std::size_t /*slot*/) {
        for (std::size_t t = begin; t < end; ++t) {
          tpg[t] = TopUp(config_.prp_counts[tasks[t].count],
                         tasks[t].fill_seed, undetected[tasks[t].count]);
        }
      });

  // Top-up sweeps, encoding and the cost model, serially in table order.
  const std::size_t width = netlist_.CoreInputs().size();
  const ReseedingEncoder encoder(static_cast<std::uint32_t>(width));
  std::vector<BistProfile> profiles;
  std::uint32_t number = 1;
  for (std::size_t c = 0; c < counts; ++c) {
    for (std::size_t v = 0; v < variants; ++v) {
      const std::size_t t = task_of[c * variants + v];
      profiles.push_back(GenerateVariant(
          config_.prp_counts[c], config_.coverage_targets_percent[v],
          number++, undetected[c], random_detected[c],
          t == SIZE_MAX ? nullptr : &tpg[t], encoder, nullptr));
    }
  }
  return profiles;
}

namespace {

/// Per-pattern detection gains of the deterministic top-up stream: each
/// tracked fault contributes to the pattern that first detects it, and the
/// campaign stops once the running coverage reaches the target (at block
/// granularity — gains past the chosen prefix are never read).
class TopUpSink final : public sim::CampaignSink {
 public:
  TopUpSink(std::vector<std::size_t>& gain_per_pattern, std::size_t covered,
            std::size_t total, double target_percent)
      : gain_per_pattern_(gain_per_pattern),
        covered_(covered),
        total_(total),
        target_percent_(target_percent) {}

  bool OnBlock(sim::CampaignBlock& block) override {
    for (std::size_t i = 0; i < block.TrackedCount(); ++i) {
      const int first = block.TrackedFirstDetect(i);
      if (first >= 0) {
        ++gain_per_pattern_[static_cast<std::size_t>(block.BaseIndex()) +
                            static_cast<std::size_t>(first)];
        ++covered_;
      }
    }
    return 100.0 * static_cast<double>(covered_) /
               static_cast<double>(total_) <
           target_percent_;
  }

 private:
  std::vector<std::size_t>& gain_per_pattern_;
  std::size_t covered_;
  std::size_t total_;
  double target_percent_;
};

}  // namespace

BistProfile ProfileGenerator::GenerateVariant(
    std::uint64_t prps, double target_percent, std::uint32_t number,
    const std::vector<StuckAtFault>& undetected, std::size_t random_detected,
    const atpg::DeterministicTpgResult* topup, const ReseedingEncoder& encoder,
    std::vector<EncodedPattern>* encoded_sink) {
  const std::size_t total = faults_.size();
  const std::size_t width = netlist_.CoreInputs().size();
  const atpg::DeterministicTpgResult none;
  const atpg::DeterministicTpgResult& tpg = topup ? *topup : none;
  if (topup) {
    stats_.untestable = std::max(stats_.untestable, tpg.untestable);
    stats_.aborted = std::max(stats_.aborted, tpg.aborted);
  }

  // Order of `tpg.patterns` is generation order; walk it with fault
  // dropping to find the shortest prefix reaching the target coverage. A
  // fault's gain lands on its first-detecting pattern, so the drop campaign
  // reproduces the per-pattern drop walk exactly.
  std::vector<std::size_t> gain_per_pattern(tpg.patterns.size(), 0);
  if (!tpg.patterns.empty()) {
    sim::StoredPatternSource source(tpg.patterns);
    TopUpSink sink(gain_per_pattern, random_detected, total, target_percent);
    runner_.Run(source, sink,
                {.track = undetected, .drop_detected = true});
  }
  std::size_t covered = random_detected;
  std::size_t prefix = 0;
  for (std::size_t p = 0; p < tpg.patterns.size(); ++p) {
    covered += gain_per_pattern[p];
    prefix = p + 1;
    if (100.0 * static_cast<double>(covered) / static_cast<double>(total) >=
        target_percent) {
      break;
    }
  }

  // Recompute achieved coverage for the chosen prefix.
  std::size_t achieved = random_detected;
  for (std::size_t p = 0; p < prefix; ++p) achieved += gain_per_pattern[p];

  BistProfile prof;
  prof.profile_number = number;
  prof.num_random_patterns = prps;
  prof.num_deterministic_patterns = prefix;
  prof.fault_coverage_percent =
      100.0 * static_cast<double>(achieved) / static_cast<double>(total);
  prof.runtime_ms =
      config_.stumps.PatternTimeMs(prps + prefix) + config_.state_restore_ms;

  std::uint64_t encoded_bytes = 0;
  std::uint64_t care = 0;
  for (std::size_t p = 0; p < prefix; ++p) {
    care += tpg.cubes[p].CareBitCount();
    if (auto enc = encoder.Encode(tpg.cubes[p])) {
      encoded_bytes += enc->StorageBytes();
      if (encoded_sink) encoded_sink->push_back(std::move(*enc));
    } else {
      // Unencodable cube (practically unreachable): store it verbatim.
      encoded_bytes += (width + 7) / 8;
    }
  }
  prof.care_bits = care;
  if (config_.measure_transition_coverage) {
    // Assemble the session's applied patterns (random prefix capped,
    // then the deterministic top-up) and measure LOC TDF coverage.
    std::vector<BitPattern> applied;
    const std::uint64_t random_take =
        std::min<std::uint64_t>(prps, config_.transition_pairs_cap);
    PatternSource source(config_.stumps, width);
    for (std::uint64_t i = 0; i < random_take; ++i) {
      applied.push_back(source.Next());
    }
    for (std::size_t p = 0; p < prefix; ++p) {
      applied.push_back(tpg.patterns[p]);
    }
    prof.transition_coverage_percent =
        100.0 * sim::MeasureLocTransitionCoverage(netlist_, applied);
  }
  const std::uint64_t response_bytes =
      StumpsSession(netlist_, config_.stumps)
          .ResponseDataBytes(prps + prefix);
  prof.data_bytes = static_cast<std::uint64_t>(
      static_cast<double>(encoded_bytes + response_bytes) *
      config_.byte_scale);
  return prof;
}

}  // namespace bistdse::bist
