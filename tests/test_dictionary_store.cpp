// DictionaryStore batch serving and campaign memoization:
//  - DiagnoseBatch is bit-identical to serial per-query Diagnose for every
//    thread count (the determinism contract of the serving layer; the TSan
//    leg runs this suite to certify the fan-out is race-free),
//  - CampaignMemo first-detect reuse is exact, including prefix hits.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bist/campaign_sources.hpp"
#include "bist/dictionary_store.hpp"
#include "bist/profile_generator.hpp"
#include "sim/campaign_memo.hpp"
#include "test_helpers.hpp"

namespace bistdse::bist {
namespace {

StumpsConfig StoreConfig() {
  StumpsConfig config;
  config.signature_window = 16;
  config.prpg_seed = 0x51;
  return config;
}

class DictionaryStoreTest : public ::testing::Test {
 protected:
  DictionaryStoreTest()
      : netlist_(bistdse::testing::MakeSmallRandom(71, 220)),
        faults_(sim::CollapsedFaults(netlist_)),
        dictionary_(netlist_, StoreConfig(), kPatterns, {}, faults_) {
    // Queries: fail data of sampled injected faults, alternating between
    // two shard keys.
    StumpsSession session(netlist_, StoreConfig());
    for (std::size_t fi = 0; fi < faults_.size(); fi += 67) {
      auto result = session.Run(kPatterns, {}, faults_[fi]);
      if (result.fail_data.empty()) continue;
      queries_.push_back({ShardKey(queries_.size() % 2),
                          std::move(result.fail_data)});
    }
  }

  static DictShardKey ShardKey(std::size_t i) {
    return {"ecu-" + std::to_string(i), "p1"};
  }

  static constexpr std::uint64_t kPatterns = 256;
  netlist::Netlist netlist_;
  std::vector<sim::StuckAtFault> faults_;
  FaultDictionary dictionary_;
  std::vector<DictQuery> queries_;
};

TEST_F(DictionaryStoreTest, BatchIsBitIdenticalForEveryThreadCount) {
  const std::string path =
      bistdse::testing::UniqueTempPath("store_shard.fdict");
  dictionary_.Save(path);

  // Shard 0 owned, shard 1 mmap-backed: both paths serve under the fan-out.
  DictionaryStore store;
  store.Add(ShardKey(0), FaultDictionary::Load(path));
  store.AddFromFile(ShardKey(1), path, /*mapped=*/true);
  ASSERT_EQ(store.ShardCount(), 2u);
  ASSERT_GE(queries_.size(), 4u);

  // Serial reference: per-query Diagnose in order.
  std::vector<std::vector<DiagnosisCandidate>> reference;
  for (const DictQuery& q : queries_) {
    reference.push_back(store.Find(q.shard)->Diagnose(q.fail_data, 5));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{0}}) {
    const auto batch = store.DiagnoseBatch(queries_, 5, threads);
    ASSERT_EQ(batch.size(), reference.size()) << "threads " << threads;
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ASSERT_EQ(batch[q].size(), reference[q].size())
          << "threads " << threads << " query " << q;
      for (std::size_t i = 0; i < batch[q].size(); ++i) {
        EXPECT_EQ(batch[q][i].fault, reference[q][i].fault)
            << "threads " << threads << " query " << q << " rank " << i;
        EXPECT_EQ(batch[q][i].score, reference[q][i].score)
            << "threads " << threads << " query " << q << " rank " << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(DictionaryStoreTest, UnknownShardYieldsEmptyRanking) {
  DictionaryStore store;
  store.Add(ShardKey(0), std::move(dictionary_));
  EXPECT_EQ(store.Find(ShardKey(7)), nullptr);

  std::vector<DictQuery> queries = {{ShardKey(7), queries_.front().fail_data},
                                    {ShardKey(0), queries_.front().fail_data}};
  const auto results = store.DiagnoseBatch(queries, 5, 1);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].empty());
  EXPECT_FALSE(results[1].empty());
}

// --- campaign memoization -------------------------------------------------

class CampaignMemoTest : public ::testing::Test {
 protected:
  CampaignMemoTest()
      : netlist_(bistdse::testing::MakeSmallRandom(71, 220)),
        faults_(sim::CollapsedFaults(netlist_)),
        runner_(netlist_, {.block_width = 4, .threads = 1}) {}

  std::vector<std::uint64_t> RunOnce(std::uint64_t max_patterns,
                                     sim::CampaignMemo* memo,
                                     sim::CampaignStats* stats_out = nullptr) {
    PrpgSource source(StoreConfig(), netlist_.CoreInputs().size());
    std::vector<std::uint64_t> first_detect(faults_.size(), 0);
    const auto stats = sim::RunFirstDetectMemoized(
        runner_, source,
        PrpgStreamKey(StoreConfig(), netlist_.CoreInputs().size()), faults_,
        first_detect, max_patterns, /*warmup=*/false, memo);
    if (stats_out != nullptr) *stats_out = stats;
    return first_detect;
  }

  netlist::Netlist netlist_;
  std::vector<sim::StuckAtFault> faults_;
  sim::CampaignRunner runner_;
};

TEST_F(CampaignMemoTest, RepeatedCampaignHitsAndMatches) {
  sim::CampaignMemo memo;
  const auto reference = RunOnce(512, nullptr);

  sim::CampaignStats first_stats, second_stats;
  const auto first = RunOnce(512, &memo, &first_stats);
  const auto second = RunOnce(512, &memo, &second_stats);
  EXPECT_EQ(memo.Hits(), 1u);
  EXPECT_EQ(memo.Misses(), 1u);
  EXPECT_GT(memo.HitRate(), 0.0);
  EXPECT_GT(first_stats.patterns, 0u);
  EXPECT_EQ(second_stats.patterns, 0u);  // nothing simulated on the hit
  EXPECT_EQ(first_stats.dropped, second_stats.dropped);
  EXPECT_EQ(first_stats.survivors, second_stats.survivors);
  EXPECT_EQ(first, reference);
  EXPECT_EQ(second, reference);
}

TEST_F(CampaignMemoTest, ShorterPrefixIsServedFromLongerCampaign) {
  sim::CampaignMemo memo;
  RunOnce(512, &memo);  // miss: fills the memo up to 512 patterns

  const auto reference = RunOnce(128, nullptr);
  sim::CampaignStats stats;
  const auto cached = RunOnce(128, &memo, &stats);
  EXPECT_EQ(memo.Hits(), 1u);
  EXPECT_EQ(stats.patterns, 0u);
  EXPECT_EQ(cached, reference);
}

TEST_F(CampaignMemoTest, LongerCampaignMissesThenReplaces) {
  sim::CampaignMemo memo;
  RunOnce(128, &memo);
  const auto longer = RunOnce(512, &memo);  // 128 < 512: must re-run
  EXPECT_EQ(memo.Hits(), 0u);
  EXPECT_EQ(memo.Misses(), 2u);
  EXPECT_EQ(longer, RunOnce(512, nullptr));
  // The longer result replaced the shorter entry: both lengths now hit.
  RunOnce(512, &memo);
  RunOnce(128, &memo);
  EXPECT_EQ(memo.Hits(), 2u);
}

// --- bounded memo: LRU eviction keeps the footprint capped ---------------

sim::FirstDetectKey SyntheticKey(std::uint64_t i) {
  return {0x1000 + i, 0x2000 + i, 0x3000 + i};
}

sim::FirstDetectResult SyntheticResult(std::uint64_t covered) {
  sim::FirstDetectResult result;
  result.first_detect = {covered / 2};
  result.covered_patterns = covered;
  return result;
}

TEST(CampaignMemoBoundedTest, CapacityOverflowEvictsLeastRecentlyUsed) {
  sim::CampaignMemo memo(2);
  EXPECT_EQ(memo.Capacity(), 2u);
  memo.Store(SyntheticKey(1), SyntheticResult(100));
  memo.Store(SyntheticKey(2), SyntheticResult(100));
  EXPECT_EQ(memo.Size(), 2u);
  EXPECT_EQ(memo.Evictions(), 0u);

  memo.Store(SyntheticKey(3), SyntheticResult(100));
  EXPECT_EQ(memo.Size(), 2u);  // Bounded: the third entry displaced one.
  EXPECT_EQ(memo.Evictions(), 1u);
  EXPECT_EQ(memo.Lookup(SyntheticKey(1), 50), nullptr);  // LRU victim.
  EXPECT_NE(memo.Lookup(SyntheticKey(2), 50), nullptr);
  EXPECT_NE(memo.Lookup(SyntheticKey(3), 50), nullptr);
  EXPECT_EQ(memo.Hits(), 2u);
  EXPECT_EQ(memo.Misses(), 1u);
}

TEST(CampaignMemoBoundedTest, CoveringHitRefreshesRecency) {
  sim::CampaignMemo memo(2);
  memo.Store(SyntheticKey(1), SyntheticResult(100));
  memo.Store(SyntheticKey(2), SyntheticResult(100));
  // Touch key 1: key 2 becomes the LRU entry and is the next victim.
  EXPECT_NE(memo.Lookup(SyntheticKey(1), 100), nullptr);
  memo.Store(SyntheticKey(3), SyntheticResult(100));
  EXPECT_NE(memo.Lookup(SyntheticKey(1), 100), nullptr);
  EXPECT_EQ(memo.Lookup(SyntheticKey(2), 100), nullptr);
}

TEST(CampaignMemoBoundedTest, LongerCoverageReplacesUnderBound) {
  sim::CampaignMemo memo(2);
  memo.Store(SyntheticKey(1), SyntheticResult(100));
  // A racing shorter campaign must not clobber the longer cached one...
  memo.Store(SyntheticKey(1), SyntheticResult(50));
  EXPECT_NE(memo.Lookup(SyntheticKey(1), 100), nullptr);
  // ...while a longer one replaces it, still within the same single slot.
  memo.Store(SyntheticKey(1), SyntheticResult(200));
  EXPECT_EQ(memo.Size(), 1u);
  const auto entry = memo.Lookup(SyntheticKey(1), 200);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->covered_patterns, 200u);
  EXPECT_EQ(memo.Evictions(), 0u);
}

TEST(CampaignMemoBoundedTest, ZeroCapacityMeansUnbounded) {
  sim::CampaignMemo memo;  // Default: the single-session shape, no eviction.
  for (std::uint64_t i = 0; i < 64; ++i) {
    memo.Store(SyntheticKey(i), SyntheticResult(100));
  }
  EXPECT_EQ(memo.Size(), 64u);
  EXPECT_EQ(memo.Evictions(), 0u);
  // An evicted-free memo still answers everything it ever stored.
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_NE(memo.Lookup(SyntheticKey(i), 100), nullptr) << i;
  }
}

TEST_F(CampaignMemoTest, BoundedMemoStillServesCampaigns) {
  // The RunFirstDetectMemoized path over a capacity-1 memo: same exactness
  // contract as the unbounded memo for the entry that stays resident.
  sim::CampaignMemo memo(1);
  const auto reference = RunOnce(512, nullptr);
  const auto first = RunOnce(512, &memo);
  sim::CampaignStats stats;
  const auto second = RunOnce(512, &memo, &stats);
  EXPECT_EQ(memo.Hits(), 1u);
  EXPECT_EQ(stats.patterns, 0u);
  EXPECT_EQ(first, reference);
  EXPECT_EQ(second, reference);
  EXPECT_EQ(memo.Size(), 1u);
}

TEST_F(CampaignMemoTest, ProfileGeneratorsShareTheRandomPhase) {
  sim::CampaignMemo memo;
  ProfileGeneratorConfig config;
  config.stumps = StoreConfig();
  config.prp_counts = {256};
  config.coverage_targets_percent = {10.0};  // met by the random phase alone
  config.fill_seeds = {11};
  config.threads = 1;
  config.memo = &memo;

  ProfileGenerator first(netlist_, config);
  const auto profiles_first = first.GenerateAll();
  EXPECT_EQ(memo.Hits(), 0u);
  ASSERT_EQ(memo.Misses(), 1u);

  // A second generator over the same (netlist, stream, faults) reuses the
  // cached random phase — the repeated-prefix fleet campaign scenario.
  ProfileGenerator second(netlist_, config);
  const auto profiles_second = second.GenerateAll();
  EXPECT_EQ(memo.Hits(), 1u);
  ASSERT_EQ(profiles_first.size(), profiles_second.size());
  for (std::size_t i = 0; i < profiles_first.size(); ++i) {
    EXPECT_EQ(profiles_first[i].fault_coverage_percent,
              profiles_second[i].fault_coverage_percent);
    EXPECT_EQ(profiles_first[i].num_deterministic_patterns,
              profiles_second[i].num_deterministic_patterns);
  }
}

}  // namespace
}  // namespace bistdse::bist
