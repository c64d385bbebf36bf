// The EvaluationEngine refactor's determinism contract:
//   (a) the engine-based Explorer reproduces the front of the legacy
//       composition (per-genotype decode + EvaluateImplementation + local
//       memo) bit-exactly for a fixed seed,
//   (b) the front is invariant across the engine's `threads` setting,
//   (c) explorations sharing one engine score strictly more memo hits than
//       the same explorations on fresh engines — without changing a front.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <unordered_map>

#include "can/canfd.hpp"
#include "can/mirroring.hpp"
#include "casestudy/casestudy.hpp"
#include "dse/evaluation_engine.hpp"
#include "dse/exploration.hpp"
#include "dse/parallel.hpp"
#include "moea/nsga2.hpp"
#include "moea/spea2.hpp"
#include "net/session_objective.hpp"

namespace bistdse::dse {
namespace {

casestudy::CaseStudy SmallCaseStudy() {
  auto profiles = casestudy::PaperTableI();
  profiles.resize(6);
  return casestudy::BuildCaseStudy(profiles, 42);
}

/// The pre-refactor Explorer::Run composition: a per-genotype evaluator over
/// a local unordered_map memo and the free EvaluateImplementation, driven
/// through the MOEA's single-evaluator (non-batched) path.
std::vector<ExplorationEntry> LegacyFront(const casestudy::CaseStudy& cs,
                                          MoeaAlgorithm algorithm,
                                          const ExplorationConfig& config) {
  SatDecoder decoder(cs.spec, cs.augmentation, config.validate_each_decode);
  moea::ParetoArchive archive;
  std::vector<ExplorationEntry> store;
  std::unordered_map<std::uint64_t, Objectives> memo;

  const moea::Evaluator evaluator =
      [&](const moea::Genotype& genotype)
      -> std::optional<moea::ObjectiveVector> {
    auto impl = decoder.Decode(genotype);
    if (!impl) return std::nullopt;
    const std::uint64_t signature = ImplementationSignature(*impl);
    const auto hit = memo.find(signature);
    const Objectives objectives =
        hit != memo.end()
            ? hit->second
            : memo
                  .emplace(signature,
                           EvaluateImplementation(cs.spec, cs.augmentation,
                                                  *impl, config.evaluation))
                  .first->second;
    auto vec = objectives.ToMinimizationVector(false);
    if (archive.Offer(vec, store.size())) {
      store.push_back({objectives, std::move(*impl)});
    }
    return vec;
  };

  if (algorithm == MoeaAlgorithm::Spea2) {
    moea::Spea2Config moea_config;
    moea_config.population_size = config.population_size;
    moea_config.archive_size = config.population_size;
    moea_config.genotype_size = decoder.GenotypeSize();
    moea_config.mutation_rate = config.mutation_rate;
    moea_config.seed = config.seed;
    moea::Spea2 spea2(moea_config);
    spea2.Run(evaluator, config.evaluations);
  } else {
    moea::Nsga2Config moea_config;
    moea_config.population_size = config.population_size;
    moea_config.genotype_size = decoder.GenotypeSize();
    moea_config.mutation_rate = config.mutation_rate;
    moea_config.seed = config.seed;
    moea::Nsga2 nsga2(moea_config);
    nsga2.Run(evaluator, config.evaluations);
  }

  std::vector<ExplorationEntry> front;
  for (const auto& entry : archive.Entries()) {
    front.push_back(store[entry.payload]);
  }
  return front;
}

void ExpectSameFront(const std::vector<ExplorationEntry>& a,
                     const std::vector<ExplorationEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives.ToMinimizationVector(),
              b[i].objectives.ToMinimizationVector())
        << "entry " << i;
    EXPECT_EQ(a[i].implementation.binding, b[i].implementation.binding)
        << "entry " << i;
  }
}

TEST(EvaluationEngine, ReproducesLegacyFrontNsga2) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 400;
  cfg.population_size = 16;
  cfg.seed = 1;
  cfg.seed_corners = false;  // the legacy reference seeds no corners
  cfg.threads = 1;

  const auto legacy = LegacyFront(cs, MoeaAlgorithm::Nsga2, cfg);
  Explorer explorer(cs.spec, cs.augmentation, cfg);
  const auto result = explorer.Run();
  ASSERT_GT(legacy.size(), 2u);
  ExpectSameFront(legacy, result.pareto);
}

TEST(EvaluationEngine, ReproducesLegacyFrontSpea2) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.algorithm = MoeaAlgorithm::Spea2;
  cfg.evaluations = 400;
  cfg.population_size = 16;
  cfg.seed = 1;
  cfg.seed_corners = false;
  cfg.threads = 1;

  const auto legacy = LegacyFront(cs, MoeaAlgorithm::Spea2, cfg);
  Explorer explorer(cs.spec, cs.augmentation, cfg);
  const auto result = explorer.Run();
  ASSERT_GT(legacy.size(), 2u);
  ExpectSameFront(legacy, result.pareto);
}

TEST(EvaluationEngine, FrontInvariantAcrossThreadCounts) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 400;
  cfg.population_size = 16;
  cfg.seed = 3;

  cfg.threads = 1;
  Explorer reference(cs.spec, cs.augmentation, cfg);
  const auto expected = reference.Run();
  ASSERT_GT(expected.pareto.size(), 2u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8},
                                    std::size_t{0}}) {
    cfg.threads = threads;
    Explorer explorer(cs.spec, cs.augmentation, cfg);
    const auto result = explorer.Run();
    EXPECT_EQ(result.evaluations, expected.evaluations) << threads;
    EXPECT_EQ(result.eval_cache_hits, expected.eval_cache_hits) << threads;
    ExpectSameFront(expected.pareto, result.pareto);
  }
}

TEST(EvaluationEngine, MergedIslandFrontInvariantAcrossThreadCounts) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 16;
  cfg.seed = 1;

  cfg.threads = 1;
  const auto expected = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  ASSERT_GT(expected.pareto.size(), 2u);
  EXPECT_EQ(expected.island_front_sizes.size(), 2u);

  cfg.threads = 8;
  const auto result = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  EXPECT_EQ(result.evaluations, expected.evaluations);
  ExpectSameFront(expected.pareto, result.pareto);
}

TEST(EvaluationEngine, SharedEngineScoresCrossExplorationCacheHits) {
  auto cs = SmallCaseStudy();
  ExplorationConfig first;
  first.evaluations = 300;
  first.population_size = 16;
  first.seed = 1;
  ExplorationConfig second = first;
  second.seed = 2;

  // Baseline: each exploration on its own engine.
  Explorer fresh_a(cs.spec, cs.augmentation, first);
  const auto result_a = fresh_a.Run();
  Explorer fresh_b(cs.spec, cs.augmentation, second);
  const auto result_b = fresh_b.Run();
  const std::size_t fresh_hits =
      result_a.eval_cache_hits + result_b.eval_cache_hits;

  // Shared engine, sequentially (deterministic hit counts): the corner
  // seeds alone guarantee overlapping implementations across seeds.
  EvaluationEngine engine(cs.spec, cs.augmentation);
  Explorer shared_a(engine, first);
  const auto shared_result_a = shared_a.Run();
  Explorer shared_b(engine, second);
  const auto shared_result_b = shared_b.Run();
  const std::size_t shared_hits =
      shared_result_a.eval_cache_hits + shared_result_b.eval_cache_hits;

  EXPECT_GT(shared_hits, fresh_hits);
  EXPECT_EQ(engine.CacheHits(), shared_hits);
  EXPECT_GT(engine.CacheSize(), 0u);
  // Sharing the memo must not change any front.
  ExpectSameFront(result_a.pareto, shared_result_a.pareto);
  ExpectSameFront(result_b.pareto, shared_result_b.pareto);
}

TEST(EvaluationEngine, ParallelIslandsShareTheMemo) {
  auto cs = SmallCaseStudy();
  ExplorationConfig cfg;
  cfg.evaluations = 300;
  cfg.population_size = 16;
  cfg.seed = 1;

  // Island-alone hit counts (fresh engine per run, seeds as the islands use
  // them).
  std::size_t fresh_hits = 0;
  for (std::uint64_t i = 0; i < 2; ++i) {
    ExplorationConfig island = cfg;
    island.seed = cfg.seed + i;
    Explorer explorer(cs.spec, cs.augmentation, island);
    fresh_hits += explorer.Run().eval_cache_hits;
  }

  // The shared memo is a superset of every island-local one at all times,
  // so the summed hits can only grow (strict growth is timing-dependent
  // under concurrency; the sequential-sharing test above pins that).
  const auto merged = ExploreParallel(cs.spec, cs.augmentation, cfg, 2);
  EXPECT_GE(merged.eval_cache_hits, fresh_hits);
  EXPECT_GT(merged.decoder_stats.decodes, 0u);
}

TEST(Stages, DefaultLayoutsMatchBoolApi) {
  auto cs = SmallCaseStudy();
  EvaluationEngine engine(cs.spec, cs.augmentation);
  auto session = engine.NewSession();
  moea::Genotype genotype;
  genotype.priorities.assign(session.GenotypeSize(), 0.5);
  genotype.phases.assign(session.GenotypeSize(), 1);
  const auto evaluated = session.Evaluate(genotype);
  ASSERT_TRUE(evaluated.has_value());

  const Objectives& obj = evaluated->objectives;
  EXPECT_EQ(obj.ToMinimizationVector(DefaultStages(false)),
            obj.ToMinimizationVector(false));
  EXPECT_EQ(obj.ToMinimizationVector(DefaultStages(true)),
            obj.ToMinimizationVector(true));
  EXPECT_EQ(DefaultStages(false).size(), 3u);
  EXPECT_EQ(DefaultStages(true).size(), 4u);

  // The free-function wrapper and the engine agree.
  const auto direct = EvaluateImplementation(cs.spec, cs.augmentation,
                                             evaluated->implementation);
  EXPECT_EQ(direct.ToMinimizationVector(), evaluated->vector);
}

TEST(Stages, EngineDerivesDimensionalityFromStageList) {
  auto cs = SmallCaseStudy();
  EvaluationEngineConfig cfg;
  cfg.stages = DefaultStages(true);
  EvaluationEngine engine(cs.spec, cs.augmentation, cfg);
  EXPECT_EQ(engine.ObjectiveDimensions(), 4u);

  auto session = engine.NewSession();
  moea::Genotype genotype;
  genotype.priorities.assign(session.GenotypeSize(), 0.5);
  genotype.phases.assign(session.GenotypeSize(), 0);
  const auto evaluated = session.Evaluate(genotype);
  ASSERT_TRUE(evaluated.has_value());
  EXPECT_EQ(evaluated->vector.size(), 4u);
}

TEST(Stages, SessionVerdictStagePlugsIn) {
  auto cs = SmallCaseStudy();
  EvaluationEngineConfig cfg;
  cfg.stages = DefaultStages(false);
  cfg.stages.push_back(net::MakeSessionVerdictStage());
  EvaluationEngine engine(cs.spec, cs.augmentation, cfg);
  EXPECT_EQ(engine.ObjectiveDimensions(), 4u);

  auto session = engine.NewSession();
  // No BIST selected -> no sessions -> none can fail.
  moea::Genotype genotype;
  genotype.priorities.assign(session.GenotypeSize(), 0.5);
  genotype.phases.assign(session.GenotypeSize(), 0);
  const auto evaluated = session.Evaluate(genotype);
  ASSERT_TRUE(evaluated.has_value());
  EXPECT_EQ(evaluated->objectives.failed_sessions, 0u);
  ASSERT_EQ(evaluated->vector.size(), 4u);
  EXPECT_EQ(evaluated->vector.back(), 0.0);
}

/// The map-based context this repo used before the task-indexed one: the
/// last binding of a task wins, and each ECU's Eq.-1 set is a vector of
/// CanMessage copies in message-id order.
struct OracleContext {
  std::vector<EvaluationContext::ProgramPlacement> programs;
  std::uint32_t ecus_allocated = 0;
};

OracleContext BuildOracleContext(const model::Specification& spec,
                                 const model::BistAugmentation& augmentation,
                                 const model::Implementation& impl,
                                 const EvaluationOptions& options) {
  const auto& app = spec.Application();
  const auto& arch = spec.Architecture();
  std::map<model::TaskId, model::ResourceId> bound_at;
  for (std::size_t m : impl.binding) {
    bound_at[spec.Mappings()[m].task] = spec.Mappings()[m].resource;
  }
  std::map<model::ResourceId, std::vector<can::CanMessage>> tx_messages;
  for (model::MessageId c = 0; c < app.MessageCount(); ++c) {
    const model::Message& msg = app.GetMessage(c);
    if (msg.diagnostic) continue;
    const auto it = bound_at.find(msg.sender);
    if (it == bound_at.end()) continue;
    can::CanMessage cm;
    cm.name = msg.name;
    cm.payload_bytes = msg.payload_bytes;
    cm.period_ms = msg.period_ms;
    tx_messages[it->second].push_back(cm);
  }
  OracleContext out;
  for (const auto& [ecu, ecu_programs] : augmentation.programs_by_ecu) {
    for (const auto& prog : ecu_programs) {
      EvaluationContext::ProgramPlacement placement;
      placement.program = &prog;
      placement.ecu = ecu;
      const auto test_it = bound_at.find(prog.test_task);
      placement.test_bound = test_it != bound_at.end();
      const auto data_it = bound_at.find(prog.data_task);
      placement.data_bound = data_it != bound_at.end();
      if (placement.data_bound) placement.data_at = data_it->second;
      if (placement.test_bound) {
        const model::Task& test = app.GetTask(prog.test_task);
        const model::Task& data = app.GetTask(prog.data_task);
        placement.session_ms = test.runtime_ms;
        if (placement.data_bound && placement.data_at != ecu) {
          const auto tx_it = tx_messages.find(ecu);
          const std::span<const can::CanMessage> tx =
              tx_it == tx_messages.end()
                  ? std::span<const can::CanMessage>{}
                  : std::span<const can::CanMessage>(tx_it->second);
          double transfer_ms = 0.0;
          if (options.use_can_fd && !tx.empty()) {
            double bytes_per_ms = 0.0;
            for (const can::CanMessage& m : tx) {
              bytes_per_ms += static_cast<double>(can::RoundUpFdPayload(
                                  options.fd_payload_bytes)) /
                              m.period_ms;
            }
            transfer_ms = static_cast<double>(data.data_bytes) / bytes_per_ms;
          } else {
            transfer_ms = can::MirroredTransferTimeMs(data.data_bytes, tx);
          }
          placement.transfer_ms = transfer_ms;
          placement.session_ms += transfer_ms;
        }
      }
      out.programs.push_back(placement);
    }
  }
  for (model::ResourceId r = 0; r < arch.ResourceCount(); ++r) {
    if (r >= impl.allocation.size() || !impl.allocation[r]) continue;
    if (arch.GetResource(r).kind == model::ResourceKind::Ecu) {
      ++out.ecus_allocated;
    }
  }
  return out;
}

/// Implementations of the full case study: decoded random genotypes, every
/// second one with an extra option of a bound task appended (a task bound
/// twice: the context keeps the last binding, routing the first).
std::vector<model::Implementation> ContextInputs(const casestudy::CaseStudy& cs,
                                                 std::size_t count) {
  SatDecoder decoder(cs.spec, cs.augmentation);
  util::SplitMix64 rng(29);
  std::vector<model::Implementation> out;
  while (out.size() < count) {
    const auto genotype = moea::RandomGenotypeBiased(decoder.GenotypeSize(),
                                                     rng.UnitReal(), rng);
    auto impl = decoder.Decode(genotype);
    if (!impl) continue;
    if (out.size() % 2 == 1) {
      const std::size_t pick = impl->binding[rng.Below(impl->binding.size())];
      for (std::size_t m : cs.spec.MappingsOfTask(cs.spec.Mappings()[pick].task)) {
        if (m != pick) {
          impl->binding.push_back(m);
          break;
        }
      }
      if (!model::CompleteRoutingAndAllocation(cs.spec, *impl)) continue;
    }
    out.push_back(std::move(*impl));
  }
  return out;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(EvaluationContext, PlacementsMatchMapOracleBitForBit) {
  const auto cs = casestudy::BuildCaseStudy();
  const auto inputs = ContextInputs(cs, 200);
  EvaluationOptions fd;
  fd.use_can_fd = true;
  std::size_t remote = 0;
  for (const EvaluationOptions& options : {EvaluationOptions{}, fd}) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "input " << i << " fd "
                                        << options.use_can_fd);
      const EvaluationContext context(cs.spec, cs.augmentation, inputs[i],
                                      options);
      const OracleContext oracle =
          BuildOracleContext(cs.spec, cs.augmentation, inputs[i], options);
      EXPECT_EQ(context.ecus_allocated, oracle.ecus_allocated);
      ASSERT_EQ(context.programs.size(), oracle.programs.size());
      for (std::size_t p = 0; p < oracle.programs.size(); ++p) {
        const auto& got = context.programs[p];
        const auto& want = oracle.programs[p];
        EXPECT_EQ(got.program, want.program);
        EXPECT_EQ(got.ecu, want.ecu);
        EXPECT_EQ(got.test_bound, want.test_bound);
        EXPECT_EQ(got.data_bound, want.data_bound);
        EXPECT_EQ(got.data_at, want.data_at);
        EXPECT_EQ(Bits(got.transfer_ms), Bits(want.transfer_ms));
        EXPECT_EQ(Bits(got.session_ms), Bits(want.session_ms));
        remote += want.transfer_ms != 0.0;
      }
    }
  }
  EXPECT_GT(remote, 0u);
}

TEST(EvaluationContext, StageObjectivesPinned) {
  // FNV-1a over every Objectives field of the transition-quality stage
  // list, classic and CAN FD Eq. 1, recorded before the context became
  // task-indexed.
  const auto cs = casestudy::BuildCaseStudy();
  const auto inputs = ContextInputs(cs, 200);
  const StageList stages = DefaultStages(true);
  EvaluationOptions fd;
  fd.use_can_fd = true;
  std::uint64_t h = 1469598103934665603ULL;
  const auto u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const EvaluationOptions& options : {EvaluationOptions{}, fd}) {
    for (const auto& impl : inputs) {
      const Objectives o =
          EvaluateWithStages(cs.spec, cs.augmentation, impl, options, stages);
      for (double d : o.ToMinimizationVector(stages)) u64(Bits(d));
      u64(Bits(o.pattern_memory_cost));
      u64(o.gateway_memory_bytes);
      u64(o.distributed_memory_bytes);
      u64(o.ecus_with_bist);
      u64(o.ecus_allocated);
      u64(o.sessions_without_bandwidth);
    }
  }
  EXPECT_EQ(h, 0xd08d71cff9e56998ULL);
}

}  // namespace
}  // namespace bistdse::dse
