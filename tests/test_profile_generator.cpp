#include <gtest/gtest.h>

#include "bist/profile_generator.hpp"
#include "casestudy/casestudy.hpp"
#include "test_helpers.hpp"

namespace bistdse::bist {
namespace {

ProfileGeneratorConfig SmallConfig() {
  ProfileGeneratorConfig cfg;
  cfg.prp_counts = {64, 256, 1024};
  cfg.coverage_targets_percent = {100.0, 90.0};
  cfg.fill_seeds = {7, 7};
  cfg.stumps.signature_window = 32;
  cfg.podem_backtrack_limit = 50;
  return cfg;
}

class ProfileGeneratorTest : public ::testing::Test {
 protected:
  ProfileGeneratorTest()
      : netlist_(bistdse::testing::MakeSmallRandom(71, 300)),
        generator_(netlist_, SmallConfig()),
        profiles_(generator_.GenerateAll()) {}

  netlist::Netlist netlist_;
  ProfileGenerator generator_;
  std::vector<BistProfile> profiles_;
};

TEST_F(ProfileGeneratorTest, ProducesFullMatrix) {
  EXPECT_EQ(profiles_.size(), 3u * 2u);
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    EXPECT_EQ(profiles_[i].profile_number, i + 1);
  }
}

TEST_F(ProfileGeneratorTest, RuntimeGrowsWithPatternCount) {
  // Within a variant, more PRPs -> longer session (deterministic top-up
  // shrinks, but PRP time dominates at these ratios).
  EXPECT_LT(profiles_[0].runtime_ms, profiles_[4].runtime_ms);
  EXPECT_LT(profiles_[1].runtime_ms, profiles_[5].runtime_ms);
}

TEST_F(ProfileGeneratorTest, MaxTargetGivesHighestCoverage) {
  // Variant 0 (target 100 %) must reach at least variant 1 (90 %) coverage
  // for every PRP count.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(profiles_[2 * i].fault_coverage_percent,
              profiles_[2 * i + 1].fault_coverage_percent);
  }
}

TEST_F(ProfileGeneratorTest, LowerTargetNeedsLessData) {
  for (int i = 0; i < 3; ++i) {
    EXPECT_LE(profiles_[2 * i + 1].data_bytes, profiles_[2 * i].data_bytes);
  }
}

TEST_F(ProfileGeneratorTest, MorePrpsNeedFewerDeterministicPatterns) {
  EXPECT_GE(profiles_[0].num_deterministic_patterns,
            profiles_[4].num_deterministic_patterns);
}

TEST_F(ProfileGeneratorTest, CoverageTargetRespected) {
  // The 90 % variant must reach 90 % (the circuit is random-pattern friendly
  // enough) without grossly overshooting the necessary pattern count.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(profiles_[2 * i + 1].fault_coverage_percent, 90.0);
  }
}

TEST_F(ProfileGeneratorTest, StatsAreFilled) {
  const auto& stats = generator_.Stats();
  EXPECT_GT(stats.total_collapsed_faults, 0u);
  EXPECT_GT(stats.random_detected_at_max_prps, 0u);
  EXPECT_LE(stats.random_detected_at_max_prps, stats.total_collapsed_faults);
}

TEST(ProfileGeneratorConfigTest, Validation) {
  auto nl = bistdse::testing::MakeSmallRandom(73, 100);
  ProfileGeneratorConfig bad = SmallConfig();
  bad.fill_seeds = {1};
  EXPECT_THROW(ProfileGenerator(nl, bad), std::invalid_argument);
  bad = SmallConfig();
  bad.prp_counts = {1000, 100};
  EXPECT_THROW(ProfileGenerator(nl, bad), std::invalid_argument);
  bad = SmallConfig();
  bad.prp_counts.clear();
  EXPECT_THROW(ProfileGenerator(nl, bad), std::invalid_argument);
}

TEST(ProfileGeneratorScaling, ByteScaleMultiplies) {
  auto nl = bistdse::testing::MakeSmallRandom(75, 200);
  ProfileGeneratorConfig cfg = SmallConfig();
  cfg.prp_counts = {64};
  cfg.coverage_targets_percent = {100.0};
  cfg.fill_seeds = {3};
  ProfileGenerator g1(nl, cfg);
  const auto p1 = g1.GenerateAll();
  cfg.byte_scale = 10.0;
  ProfileGenerator g10(nl, cfg);
  const auto p10 = g10.GenerateAll();
  ASSERT_EQ(p1.size(), 1u);
  ASSERT_EQ(p10.size(), 1u);
  EXPECT_NEAR(static_cast<double>(p10[0].data_bytes),
              10.0 * static_cast<double>(p1[0].data_bytes),
              10.0);
}

TEST(ProfileGeneratorTransition, MeasuresTdfCoverageWhenEnabled) {
  auto nl = bistdse::testing::MakeSmallRandom(77, 200);
  ProfileGeneratorConfig cfg = SmallConfig();
  cfg.prp_counts = {128};
  cfg.coverage_targets_percent = {100.0};
  cfg.fill_seeds = {5};
  cfg.measure_transition_coverage = true;
  cfg.transition_pairs_cap = 256;
  ProfileGenerator generator(nl, cfg);
  const auto profiles = generator.GenerateAll();
  ASSERT_EQ(profiles.size(), 1u);
  // TDF coverage measured, positive, and below the stuck-at coverage (the
  // classic LOC relation).
  EXPECT_GT(profiles[0].transition_coverage_percent, 20.0);
  EXPECT_LT(profiles[0].transition_coverage_percent,
            profiles[0].fault_coverage_percent);

  // Off by default.
  cfg.measure_transition_coverage = false;
  ProfileGenerator g2(nl, cfg);
  EXPECT_EQ(g2.GenerateAll()[0].transition_coverage_percent, 0.0);
}

void ExpectSameProfile(const BistProfile& a, const BistProfile& b) {
  EXPECT_EQ(a.profile_number, b.profile_number);
  EXPECT_EQ(a.num_random_patterns, b.num_random_patterns);
  EXPECT_EQ(a.fault_coverage_percent, b.fault_coverage_percent);
  EXPECT_EQ(a.transition_coverage_percent, b.transition_coverage_percent);
  EXPECT_EQ(a.runtime_ms, b.runtime_ms);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.num_deterministic_patterns, b.num_deterministic_patterns);
  EXPECT_EQ(a.care_bits, b.care_bits);
}

TEST(ProfileGeneratorThreads, TablesAndPatternsBitIdentical) {
  // Top-up generation runs one task per distinct (PRP count, fill seed) on
  // the pool (variants 0 and 2 share one); the table, the stats and every
  // encoded seed must not depend on the thread count.
  auto nl = bistdse::testing::MakeSmallRandom(71, 300);
  ProfileGeneratorConfig cfg = SmallConfig();
  cfg.coverage_targets_percent = {100.0, 100.0, 90.0};
  cfg.fill_seeds = {7, 19, 7};
  cfg.threads = 1;
  ProfileGenerator serial(nl, cfg);
  const auto reference = serial.GenerateAll();
  const GeneratedProfile reference_one = serial.GenerateOne(256, 100.0, 19);
  ASSERT_EQ(reference.size(), 9u);
  ASSERT_FALSE(reference_one.encoded_patterns.empty());
  for (std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    cfg.threads = threads;
    ProfileGenerator generator(nl, cfg);
    const auto table = generator.GenerateAll();
    ASSERT_EQ(table.size(), reference.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
      ExpectSameProfile(table[i], reference[i]);
    }
    EXPECT_EQ(generator.Stats().untestable, serial.Stats().untestable);
    EXPECT_EQ(generator.Stats().aborted, serial.Stats().aborted);
    const GeneratedProfile one = generator.GenerateOne(256, 100.0, 19);
    ExpectSameProfile(one.profile, reference_one.profile);
    EXPECT_EQ(HashEncodedPatterns(one.encoded_patterns),
              HashEncodedPatterns(reference_one.encoded_patterns));
  }
}

TEST(ProfileGeneratorPins, ScaledPaperCutEncodedPatterns) {
  // The scaled paper CUT at its Table-I settings: per PRP count, the number
  // of encoded top-up patterns and a hash of their seeds, recorded with the
  // original full-resimulation PODEM and concrete-LFSR encoder.
  const netlist::Netlist cut =
      netlist::GenerateRandomCircuit(casestudy::ScaledCutSpec());
  ProfileGeneratorConfig cfg;
  cfg.prp_counts = {128, 512, 20000};
  cfg.coverage_targets_percent = {100.0};
  cfg.fill_seeds = {11};
  cfg.stumps = casestudy::PaperStumpsConfig();
  ProfileGenerator generator(cut, cfg);
  const struct {
    std::uint64_t prps;
    std::size_t patterns;
    std::uint64_t hash;
  } pins[] = {{128, 175, 0xa18c47139d06db6eULL},
              {512, 141, 0x6b4ef29b501e06f2ULL},
              {20000, 42, 0x9234953b168102c4ULL}};
  for (const auto& pin : pins) {
    const GeneratedProfile one = generator.GenerateOne(pin.prps, 100.0, 11);
    EXPECT_EQ(one.encoded_patterns.size(), pin.patterns) << pin.prps;
    EXPECT_EQ(HashEncodedPatterns(one.encoded_patterns), pin.hash) << pin.prps;
  }
}

TEST(ProfileTable, FormatsAllRows) {
  std::vector<BistProfile> ps(3);
  for (int i = 0; i < 3; ++i) {
    ps[i].profile_number = i + 1;
    ps[i].num_random_patterns = 500 * (i + 1);
    ps[i].fault_coverage_percent = 99.0;
    ps[i].runtime_ms = 4.87;
    ps[i].data_bytes = 2399185;
  }
  const std::string table = FormatProfileTable(ps);
  EXPECT_NE(table.find("2399185"), std::string::npos);
  EXPECT_NE(table.find("#PRPs"), std::string::npos);
  // Header + separator + 3 rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 5);
}

}  // namespace
}  // namespace bistdse::bist
