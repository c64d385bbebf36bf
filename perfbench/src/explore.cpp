// Workload `explore`: NSGA-II over the paper's case study through
// dse::ExploreParallel, 4 islands sharing one evaluation engine. SAT
// decoding (sat), objective evaluation (dse) and selection (moea) dominate;
// no netlist, fault-simulation or network code runs.
//
// The traced pass wraps every default objective stage in a forwarding
// stage that times it (passed through ExplorationConfig::stages), reads the
// decode time from DecoderStats, and attributes the rest of the islands'
// time to moea.
#include <atomic>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/evaluation_engine.hpp"
#include "dse/parallel.hpp"
#include "model/implementation.hpp"
#include "moea/indicators.hpp"

namespace perfbench {
namespace {

using namespace bistdse;

constexpr std::size_t kIslands = 4;
/// Evaluations of one pass, all islands together: a quarter of the paper's
/// budget, so that a run holds several passes to take the median of.
constexpr std::size_t kTotalEvaluations = 25000;

/// bench_convergence's hypervolume reference: quality 0 %, shut-off 10^7 ms
/// (points are clipped into the box), cost 2000.
const moea::ObjectiveVector kReference = {0.0, 1e7, 2000.0};

/// Forwards to a default stage and adds its Evaluate() time to a shared
/// counter (islands evaluate concurrently).
class TimedStage final : public dse::ObjectiveStage {
 public:
  TimedStage(std::shared_ptr<const dse::ObjectiveStage> inner,
             std::atomic<std::int64_t>* nanos)
      : inner_(std::move(inner)), nanos_(nanos) {}

  std::string_view Name() const override { return inner_->Name(); }
  std::size_t Dimensions() const override { return inner_->Dimensions(); }
  void Evaluate(const dse::EvaluationContext& context,
                dse::Objectives& out) const override {
    const auto t0 = Clock::now();
    inner_->Evaluate(context, out);
    nanos_->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count(),
                      std::memory_order_relaxed);
  }
  void AppendMinimization(const dse::Objectives& objectives,
                          moea::ObjectiveVector& out) const override {
    inner_->AppendMinimization(objectives, out);
  }

 private:
  std::shared_ptr<const dse::ObjectiveStage> inner_;
  std::atomic<std::int64_t>* nanos_;
};

struct FrontSummary {
  std::uint64_t hash = 0;
  double hypervolume = 0.0;
};

FrontSummary Summarize(const dse::ParallelResult& result,
                       const dse::StageList& stages) {
  Fnv h;
  std::vector<moea::ObjectiveVector> points;
  for (const auto& entry : result.pareto) {
    moea::ObjectiveVector v = entry.objectives.ToMinimizationVector(stages);
    for (double x : v) h.Add(x);
    v[1] = std::min(v[1], kReference[1]);
    points.push_back(std::move(v));
  }
  return {h.Value(), moea::Hypervolume(points, kReference)};
}

}  // namespace

void RunExplore(const Args& args, Report& report) {
  std::unique_ptr<casestudy::CaseStudy> cs;
  report.Set("setup_s", TimeSetup([&] {
               cs = std::make_unique<casestudy::CaseStudy>(
                   casestudy::BuildCaseStudy());
             }),
             "s");

  dse::ExplorationConfig config;
  config.evaluations = kTotalEvaluations / kIslands;
  config.population_size = 100;
  config.seed = args.seed;
  const dse::StageList stages = dse::DefaultStages();

  dse::ParallelResult first;
  bool stable = true;
  std::uint64_t front_hash = 0;
  const std::vector<double> passes = TimePasses(
      args.trace ? 0.0 : args.seconds, args.trace ? 2 : 1, [&](int i) {
        dse::ParallelResult result = dse::ExploreParallel(
            cs->spec, cs->augmentation, config, kIslands);
        const std::uint64_t h = Summarize(result, stages).hash;
        if (i == 0) {
          front_hash = h;
          first = std::move(result);
        }
        stable &= h == front_hash;
      });
  report.Check(stable, "front hash differs between passes");
  const double pass_s = Median(passes);
  report.Set("pass_s", pass_s, "s");
  report.Info("pass_times_s", Join(passes));
  report.attempted = first.decoder_stats.decodes;
  report.failed = first.decoder_stats.infeasible;

  // Every front point must re-validate against the specification and
  // re-evaluate to the objectives the exploration reported.
  for (const auto& entry : first.pareto) {
    const auto violations =
        model::ValidateImplementation(cs->spec, entry.implementation);
    report.Check(violations.empty(),
                 "front point violates the specification: " +
                     (violations.empty() ? std::string() : violations[0]));
    const dse::Objectives again = dse::EvaluateWithStages(
        cs->spec, cs->augmentation, entry.implementation, {}, stages);
    report.Check(again.ToMinimizationVector(stages) ==
                     entry.objectives.ToMinimizationVector(stages),
                 "front point re-evaluates to different objectives");
  }
  const FrontSummary front = Summarize(first, stages);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(front.hash));
  report.Info("front_hash", buf);
  report.Info("front_size", std::to_string(first.pareto.size()));
  report.Info("front_hv", std::to_string(front.hypervolume));
  report.Info("evals_per_s",
              std::to_string(static_cast<double>(first.evaluations) / pass_s) +
                  " 1/s (" + std::to_string(first.evaluations) +
                  " evaluations, median of " + std::to_string(passes.size()) +
                  " passes)");
  if (!args.trace) return;

  std::atomic<std::int64_t> evaluate_ns{0};
  dse::ExplorationConfig traced = config;
  for (const auto& stage : stages) {
    traced.stages.push_back(std::make_shared<TimedStage>(stage, &evaluate_ns));
  }
  Tracer tracer;
  const double t0 = tracer.Now();
  dse::ParallelResult result;
  {
    Tracer::Scope span(&tracer, "dse.explore_parallel");
    result = dse::ExploreParallel(cs->spec, cs->augmentation, traced, kIslands);
  }
  const double t1 = tracer.Now();
  report.Check(Summarize(result, stages).hash == front.hash,
               "traced front hash differs from the untraced front");

  // Islands run concurrently, one per worker: their summed busy time is
  // islands x wall. Decode and evaluate time are summed over islands.
  const double island_s = static_cast<double>(kIslands) * (t1 - t0);
  const double decode_s = result.decoder_stats.decode_seconds;
  const double evaluate_s = static_cast<double>(evaluate_ns.load()) * 1e-9;
  const auto& ds = result.decoder_stats;
  const double decodes = static_cast<double>(std::max<std::uint64_t>(
      ds.decodes, 1));
  report.Set("sat.decode_pct", 100.0 * decode_s / island_s, "%");
  report.Set("sat.decodes_per_s",
             decode_s > 0 ? static_cast<double>(ds.decodes) / decode_s : 0.0,
             "1/s");
  report.Set("sat.propagations_per_decode",
             static_cast<double>(ds.solver.propagations) / decodes, "count");
  report.Set("sat.conflicts_per_decode",
             static_cast<double>(ds.solver.conflicts) / decodes, "count");
  report.Set("dse.evaluate_pct", 100.0 * evaluate_s / island_s, "%");
  report.Set("dse.memo_hit_ratio",
             static_cast<double>(result.eval_cache_hits) /
                 static_cast<double>(std::max<std::size_t>(
                     result.evaluations, 1)),
             "ratio");
  report.Set("moea.residual_pct",
             100.0 * (island_s - decode_s - evaluate_s) / island_s, "%");
  report.Set("moea.front_hv", front.hypervolume, "hv");
  ReportTrace(args, report, tracer, t0, t1, passes.back());
  report.Info("sat.decode_s", std::to_string(decode_s) + " s (all islands)");
  report.Info("dse.evaluate_s",
              std::to_string(evaluate_s) + " s (all islands)");
}

}  // namespace perfbench
