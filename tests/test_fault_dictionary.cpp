#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bist/fault_dictionary.hpp"
#include "test_helpers.hpp"

namespace bistdse::bist {
namespace {

/// Per-fault payload equality: every row's window bitmask and sparse
/// signature list, plus the session identity — the full observable state.
void ExpectBitIdentical(const FaultDictionary& a, const FaultDictionary& b) {
  ASSERT_EQ(a.FaultCount(), b.FaultCount());
  ASSERT_EQ(a.WindowCount(), b.WindowCount());
  ASSERT_EQ(a.TotalPatterns(), b.TotalPatterns());
  ASSERT_EQ(a.NetlistHash(), b.NetlistHash());
  ASSERT_EQ(a.ConfigHash(), b.ConfigHash());
  for (std::size_t f = 0; f < a.FaultCount(); ++f) {
    ASSERT_EQ(a.Faults()[f], b.Faults()[f]) << "fault " << f;
    const auto wa = a.WindowsOf(f), wb = b.WindowsOf(f);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t w = 0; w < wa.size(); ++w) {
      ASSERT_EQ(wa[w], wb[w]) << "fault " << f << " word " << w;
    }
    const auto sa = a.SignaturesOf(f), sb = b.SignaturesOf(f);
    ASSERT_EQ(sa.size(), sb.size()) << "fault " << f;
    for (std::size_t s = 0; s < sa.size(); ++s) {
      ASSERT_EQ(sa[s], sb[s]) << "fault " << f << " sig " << s;
    }
  }
}

StumpsConfig DictConfig() {
  StumpsConfig config;
  config.signature_window = 16;
  config.prpg_seed = 0x51;
  return config;
}

class FaultDictionaryTest : public ::testing::Test {
 protected:
  FaultDictionaryTest()
      : netlist_(bistdse::testing::MakeSmallRandom(71, 220)),
        faults_(sim::CollapsedFaults(netlist_)),
        dictionary_(netlist_, DictConfig(), kPatterns, {}, faults_) {}

  static constexpr std::uint64_t kPatterns = 256;
  netlist::Netlist netlist_;
  std::vector<sim::StuckAtFault> faults_;
  FaultDictionary dictionary_;
};

TEST_F(FaultDictionaryTest, AgreesWithSessionFailData) {
  // For sampled injected faults, the dictionary's stored failing windows
  // must equal the windows the session engine actually reports as failing.
  StumpsSession session(netlist_, DictConfig());
  for (std::size_t fi = 0; fi < faults_.size(); fi += 211) {
    const auto result = session.Run(kPatterns, {}, faults_[fi]);
    const auto stored = dictionary_.WindowsOf(fi);
    std::vector<std::uint64_t> observed(stored.size(), 0);
    for (const auto& fd : result.fail_data) {
      observed[fd.window_index / 64] |= std::uint64_t{1} << (fd.window_index % 64);
    }
    for (std::size_t wword = 0; wword < stored.size(); ++wword) {
      EXPECT_EQ(stored[wword], observed[wword]) << "fault " << fi;
    }
  }
}

TEST_F(FaultDictionaryTest, DiagnosesInjectedFaults) {
  StumpsSession session(netlist_, DictConfig());
  std::size_t attempted = 0, hits = 0;
  for (std::size_t fi = 0; fi < faults_.size(); fi += 101) {
    const auto result = session.Run(kPatterns, {}, faults_[fi]);
    if (result.fail_data.empty()) continue;
    ++attempted;
    const auto ranked = dictionary_.Diagnose(result.fail_data, 5);
    for (const auto& c : ranked) hits += c.fault == faults_[fi] ? 1 : 0;
  }
  ASSERT_GT(attempted, 3u);
  EXPECT_GE(hits * 10, attempted * 8) << hits << "/" << attempted;
}

TEST_F(FaultDictionaryTest, WindowCountMatchesSession) {
  EXPECT_EQ(dictionary_.WindowCount(), kPatterns / 16);
  EXPECT_EQ(dictionary_.FaultCount(), faults_.size());
}

TEST_F(FaultDictionaryTest, DiagnoseEdgeCases) {
  StumpsSession session(netlist_, DictConfig());
  std::vector<FailDatum> fail_data;
  for (std::size_t fi = 0; fi < faults_.size() && fail_data.empty(); ++fi) {
    fail_data = session.Run(kPatterns, {}, faults_[fi]).fail_data;
  }
  ASSERT_FALSE(fail_data.empty());

  EXPECT_TRUE(dictionary_.Diagnose({}, 5).empty());
  EXPECT_TRUE(dictionary_.Diagnose(fail_data, 0).empty());
  // top_k past the candidate count returns every candidate, ranked.
  const auto all = dictionary_.Diagnose(fail_data, faults_.size() + 100);
  EXPECT_EQ(all.size(), faults_.size());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].score, all[i].score);
  }
}

TEST_F(FaultDictionaryTest, AccessorsRejectOutOfRangeFaultIndex) {
  EXPECT_THROW(dictionary_.WindowsOf(faults_.size()), std::out_of_range);
  EXPECT_THROW(dictionary_.SignaturesOf(faults_.size() + 7),
               std::out_of_range);
}

TEST_F(FaultDictionaryTest, SaveLoadRoundTripIsBitIdentical) {
  const std::string path =
      bistdse::testing::UniqueTempPath("dict_roundtrip.fdict");
  dictionary_.Save(path);
  const auto loaded = FaultDictionary::Load(path);
  EXPECT_FALSE(loaded.IsMapped());
  ExpectBitIdentical(dictionary_, loaded);

  // Diagnose through the loaded copy must rank identically, score-exact.
  StumpsSession session(netlist_, DictConfig());
  for (std::size_t fi = 0; fi < faults_.size(); fi += 173) {
    const auto fail_data = session.Run(kPatterns, {}, faults_[fi]).fail_data;
    const auto a = dictionary_.Diagnose(fail_data, 7);
    const auto b = loaded.Diagnose(fail_data, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].fault, b[i].fault);
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }
  std::remove(path.c_str());
}

TEST_F(FaultDictionaryTest, MappedOpenIsBitIdentical) {
  const std::string path =
      bistdse::testing::UniqueTempPath("dict_mapped.fdict");
  dictionary_.Save(path);
  const auto mapped = FaultDictionary::Map(path);
  EXPECT_TRUE(mapped.IsMapped());
  ExpectBitIdentical(dictionary_, mapped);

  StumpsSession session(netlist_, DictConfig());
  for (std::size_t fi = 0; fi < faults_.size(); fi += 173) {
    const auto fail_data = session.Run(kPatterns, {}, faults_[fi]).fail_data;
    const auto a = dictionary_.Diagnose(fail_data, 7);
    const auto b = mapped.Diagnose(fail_data, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].fault, b[i].fault);
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }
  std::remove(path.c_str());
}

TEST_F(FaultDictionaryTest, ExtendMatchesFullRebuildFromWindowBoundary) {
  // 192 = 12 complete windows: Extend only simulates the appended windows.
  FaultDictionary grown(netlist_, DictConfig(), 192, {}, faults_);
  grown.Extend(netlist_, DictConfig(), kPatterns, {});
  ExpectBitIdentical(dictionary_, grown);
}

TEST_F(FaultDictionaryTest, ExtendMatchesFullRebuildFromPartialWindow) {
  // 200 patterns end mid-window: the trailing partial window is re-simulated
  // from its first pattern, then the appended windows.
  FaultDictionary grown(netlist_, DictConfig(), 200, {}, faults_);
  ASSERT_EQ(grown.WindowCount(), 13u);
  grown.Extend(netlist_, DictConfig(), kPatterns, {});
  ExpectBitIdentical(dictionary_, grown);
}

TEST_F(FaultDictionaryTest, ExtendOfMappedDictionaryMaterializesFirst) {
  const std::string path =
      bistdse::testing::UniqueTempPath("dict_extend.fdict");
  FaultDictionary small(netlist_, DictConfig(), 192, {}, faults_);
  small.Save(path);
  auto mapped = FaultDictionary::Map(path);
  ASSERT_TRUE(mapped.IsMapped());
  mapped.Extend(netlist_, DictConfig(), kPatterns, {});
  EXPECT_FALSE(mapped.IsMapped());
  ExpectBitIdentical(dictionary_, mapped);
  std::remove(path.c_str());
}

TEST_F(FaultDictionaryTest, ExtendRejectsNonPrefixSessions) {
  FaultDictionary d(netlist_, DictConfig(), 192, {}, faults_);
  // Shrinking.
  EXPECT_THROW(d.Extend(netlist_, DictConfig(), 64, {}),
               std::invalid_argument);
  // Different PRPG stream.
  StumpsConfig other = DictConfig();
  other.prpg_seed = 0x99;
  EXPECT_THROW(d.Extend(netlist_, other, kPatterns, {}),
               std::invalid_argument);
  // Different netlist.
  const auto other_nl = bistdse::testing::MakeSmallRandom(99, 220);
  EXPECT_THROW(d.Extend(other_nl, DictConfig(), kPatterns, {}),
               std::invalid_argument);
}

TEST(FaultDictionaryIo, CorruptedAndTruncatedFilesAreRejected) {
  const auto nl = bistdse::testing::MakeSmallRandom(73, 100);
  auto faults = sim::CollapsedFaults(nl);
  faults.resize(16);
  FaultDictionary dict(nl, DictConfig(), 64, {}, faults);
  const std::string path =
      bistdse::testing::UniqueTempPath("dict_corrupt.fdict");
  dict.Save(path);

  const auto file_bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto write_file = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  };

  // Truncation: shorter than the header, and payload cut short.
  write_file(file_bytes.substr(0, 32));
  EXPECT_THROW(FaultDictionary::Load(path), std::runtime_error);
  write_file(file_bytes.substr(0, file_bytes.size() - 8));
  EXPECT_THROW(FaultDictionary::Load(path), std::runtime_error);

  // Wrong magic.
  {
    std::string bad = file_bytes;
    bad[0] = 'X';
    write_file(bad);
    EXPECT_THROW(FaultDictionary::Map(path), std::runtime_error);
  }
  // Header corruption is caught by the checksum.
  {
    std::string bad = file_bytes;
    bad[40] = static_cast<char>(bad[40] ^ 0x5a);
    write_file(bad);
    EXPECT_THROW(FaultDictionary::Load(path), std::runtime_error);
  }
  // The error message names the file and the defect.
  write_file(file_bytes.substr(0, 32));
  try {
    FaultDictionary::Load(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
  // Intact file still opens after the tampering round-trips.
  write_file(file_bytes);
  EXPECT_NO_THROW(FaultDictionary::Load(path));
  std::remove(path.c_str());

  EXPECT_THROW(FaultDictionary::Load(path + ".missing"), std::runtime_error);
}

TEST(FaultDictionaryConfig, RejectsPlainMisr) {
  auto nl = bistdse::testing::MakeSmallRandom(73, 100);
  StumpsConfig config = DictConfig();
  config.reset_misr_per_window = false;
  auto faults = sim::CollapsedFaults(nl);
  faults.resize(10);
  EXPECT_THROW(FaultDictionary(nl, config, 64, {}, faults),
               std::invalid_argument);
}

}  // namespace
}  // namespace bistdse::bist
