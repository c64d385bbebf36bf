#include <gtest/gtest.h>

#include <algorithm>

#include "bist/reseeding.hpp"
#include "util/rng.hpp"

namespace bistdse::bist {
namespace {

using atpg::TestCube;
using atpg::Value3;

TestCube RandomCube(std::uint32_t width, std::uint32_t care_bits,
                    util::SplitMix64& rng) {
  TestCube cube;
  cube.bits.assign(width, Value3::X);
  for (std::uint32_t placed = 0; placed < care_bits;) {
    const auto pos = static_cast<std::size_t>(rng.Below(width));
    if (cube.bits[pos] != Value3::X) continue;
    cube.bits[pos] = rng.Chance(0.5) ? Value3::One : Value3::Zero;
    ++placed;
  }
  return cube;
}

TEST(Reseeding, ExpansionHonorsCareBits) {
  util::SplitMix64 rng(1);
  ReseedingEncoder encoder(120);
  for (int trial = 0; trial < 50; ++trial) {
    const auto cube = RandomCube(120, 8 + trial, rng);
    const auto enc = encoder.Encode(cube);
    ASSERT_TRUE(enc.has_value()) << "trial " << trial;
    const auto expanded = encoder.Expand(*enc);
    ASSERT_EQ(expanded.size(), 120u);
    for (std::size_t i = 0; i < 120; ++i) {
      if (cube.bits[i] == Value3::X) continue;
      EXPECT_EQ(expanded[i], cube.bits[i] == Value3::One ? 1 : 0)
          << "trial " << trial << " position " << i;
    }
  }
}

TEST(Reseeding, SeedIsSmallerThanPattern) {
  // The whole point of reseeding: storage proportional to care bits, not to
  // scan-chain length.
  util::SplitMix64 rng(2);
  ReseedingEncoder encoder(2000);
  const auto cube = RandomCube(2000, 30, rng);
  const auto enc = encoder.Encode(cube);
  ASSERT_TRUE(enc.has_value());
  EXPECT_LT(enc->StorageBytes(), 2000u / 8);
  EXPECT_LE(enc->lfsr_degree, 30u + 20u + 64u);
}

TEST(Reseeding, FullySpecifiedCubeStillEncodable) {
  // Degenerate but legal: every bit is a care bit. The encoder must grow the
  // seed until the system solves (possibly degree > width).
  util::SplitMix64 rng(3);
  ReseedingEncoder encoder(48);
  const auto cube = RandomCube(48, 48, rng);
  const auto enc = encoder.Encode(cube);
  ASSERT_TRUE(enc.has_value());
  const auto expanded = encoder.Expand(*enc);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_EQ(expanded[i], cube.bits[i] == Value3::One ? 1 : 0);
  }
}

TEST(Reseeding, AllZeroCube) {
  ReseedingEncoder encoder(64);
  TestCube cube;
  cube.bits.assign(64, Value3::Zero);
  const auto enc = encoder.Encode(cube);
  ASSERT_TRUE(enc.has_value());
  const auto expanded = encoder.Expand(*enc);
  for (auto b : expanded) EXPECT_EQ(b, 0);
}

TEST(Reseeding, EmptyCubeEncodesTrivially) {
  ReseedingEncoder encoder(64);
  TestCube cube;
  cube.bits.assign(64, Value3::X);
  const auto enc = encoder.Encode(cube);
  ASSERT_TRUE(enc.has_value());
  EXPECT_EQ(encoder.Expand(*enc).size(), 64u);
}

TEST(Reseeding, RejectsWidthMismatch) {
  ReseedingEncoder encoder(64);
  TestCube cube;
  cube.bits.assign(32, Value3::X);
  EXPECT_THROW(encoder.Encode(cube), std::invalid_argument);
}

TEST(Reseeding, StorageBytesFormula) {
  EncodedPattern enc;
  enc.lfsr_degree = 33;
  enc.seed_bits.assign(33, 0);
  EXPECT_EQ(enc.StorageBytes(), 5u + 2u);  // ceil(33/8)=5 + header
}

TEST(Reseeding, SymbolicRowsMatchConcreteBasisStreams) {
  // The encoder's system comes from the symbolic LFSR run; expansion runs the
  // concrete Lfsr. Unit seed e_i must emit exactly bit i of every row, at
  // table degrees, fallback degrees and degrees straddling a word boundary,
  // over a stream longer than the largest degree.
  constexpr std::size_t kLength = 480;
  for (std::uint32_t degree :
       {8u, 16u, 24u, 32u, 48u, 64u, 65u, 127u, 128u, 200u, 400u}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    const auto taps = Lfsr::DefaultPolynomial(degree);
    const std::size_t words = (degree + 63) / 64;
    const std::vector<std::uint64_t> rows = Lfsr::SymbolicEmit(taps, kLength);
    ASSERT_EQ(rows.size(), kLength * words);
    for (std::uint32_t i = 0; i < degree; ++i) {
      std::vector<std::uint8_t> seed(degree, 0);
      seed[i] = 1;
      const std::vector<std::uint8_t> stream = Lfsr(taps, seed).Emit(kLength);
      std::size_t mismatches = 0;
      for (std::size_t p = 0; p < kLength; ++p) {
        const std::uint64_t bit = (rows[p * words + i / 64] >> (i % 64)) & 1;
        mismatches += bit != stream[p];
      }
      ASSERT_EQ(mismatches, 0u) << "seed bit " << i;
    }
  }
}

TEST(Reseeding, EncodedSeedsPinned) {
  // ~200 cubes at the scaled CUT's width with care counts from 0 to the full
  // width: the dense end exhausts the first degree and takes the
  // `degree += 16` retry path. The hash was recorded with the original
  // encoder, which built its system from concrete LFSR runs.
  constexpr std::uint32_t kWidth = 352;
  util::SplitMix64 rng(352);
  ReseedingEncoder encoder(kWidth);
  std::vector<EncodedPattern> encoded;
  std::size_t retried = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const std::uint32_t care = i * kWidth / 199;
    const auto enc = encoder.Encode(RandomCube(kWidth, care, rng));
    ASSERT_TRUE(enc.has_value()) << "care bits " << care;
    retried += enc->lfsr_degree > std::max<std::uint32_t>(8, care + 20);
    encoded.push_back(*enc);
  }
  EXPECT_GT(retried, 0u);
  EXPECT_EQ(HashEncodedPatterns(encoded), 0x69c0b44b85f619b7ULL);
}

}  // namespace
}  // namespace bistdse::bist
