#include "bist/reseeding.hpp"

#include <algorithm>
#include <bit>

namespace bistdse::bist {

using atpg::TestCube;
using atpg::Value3;
using sim::BitPattern;

ReseedingEncoder::ReseedingEncoder(std::uint32_t width, std::uint32_t margin)
    : width_(width), margin_(margin) {
  if (width == 0) throw std::invalid_argument("width must be > 0");
}

std::optional<EncodedPattern> ReseedingEncoder::Encode(
    const TestCube& cube) const {
  if (cube.bits.size() != width_)
    throw std::invalid_argument("cube width mismatch");

  std::vector<std::uint32_t> care_pos;
  for (std::uint32_t i = 0; i < width_; ++i) {
    if (cube.bits[i] != Value3::X) care_pos.push_back(i);
  }
  const std::uint32_t s = static_cast<std::uint32_t>(care_pos.size());
  const std::size_t stream_length = s == 0 ? 0 : care_pos.back() + 1;

  // The system: for each care position p,
  //   XOR_{i: seed_i = 1} stream_i[p] = cube bit at p,
  // where stream_i is the stream of unit seed e_i, i.e. bit i of row p of
  // the symbolic run. Columns = seed bits, packed 64 per word.
  //
  // Equations are inserted one at a time into an echelon basis: each is
  // reduced by the basis rows whose leading (lowest) column it contains
  // until it vanishes or leads with a new column. A vanished equation with
  // right-hand side 1 proves the system inconsistent, which ends the degree
  // early. Otherwise the seed is the solution whose non-pivot bits are 0.
  // The pivot columns (a column is one iff it is independent of the columns
  // before it) and that solution do not depend on how the system was
  // reduced, so this is the seed Gauss-Jordan elimination gives as well.
  std::vector<std::uint64_t> basis;  // `words` words per row
  std::vector<std::uint8_t> basis_rhs;
  std::vector<std::int32_t> row_of_pivot;  // column -> basis row, or -1
  std::vector<std::uint64_t> row;
  std::uint32_t degree = std::max<std::uint32_t>(8, s + margin_);
  while (degree <= width_ + margin_ + 64) {
    const std::uint32_t words = (degree + 63) / 64;
    const std::vector<std::uint64_t> stream =
        Lfsr::SymbolicEmit(Lfsr::DefaultPolynomial(degree), stream_length);
    basis.clear();
    basis_rhs.clear();
    row_of_pivot.assign(degree, -1);
    row.resize(words);
    bool consistent = true;
    for (std::uint32_t e = 0; e < s && consistent; ++e) {
      const std::uint32_t p = care_pos[e];
      std::copy_n(&stream[static_cast<std::size_t>(p) * words], words,
                  row.begin());
      std::uint8_t rhs = cube.bits[p] == Value3::One ? 1 : 0;
      std::uint32_t w = 0;
      for (;;) {
        while (w < words && row[w] == 0) ++w;
        if (w == words) {  // the equation reduced to 0 = rhs
          consistent = rhs == 0;
          break;
        }
        const std::uint32_t col =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(row[w]));
        const std::int32_t r = row_of_pivot[col];
        if (r < 0) {
          row_of_pivot[col] = static_cast<std::int32_t>(basis_rhs.size());
          basis.insert(basis.end(), row.begin(), row.end());
          basis_rhs.push_back(rhs);
          break;
        }
        const std::uint64_t* pivot =
            &basis[static_cast<std::size_t>(r) * words];
        for (std::uint32_t k = w; k < words; ++k) row[k] ^= pivot[k];
        rhs = static_cast<std::uint8_t>(rhs ^ basis_rhs[r]);
      }
    }

    if (consistent) {
      // Back-substitution, highest pivot first: a basis row has no bit below
      // its pivot, and every bit above it is already solved.
      std::vector<std::uint64_t> seed(words, 0);
      for (std::uint32_t col = degree; col-- > 0;) {
        const std::int32_t r = row_of_pivot[col];
        if (r < 0) continue;
        const std::uint64_t* pivot =
            &basis[static_cast<std::size_t>(r) * words];
        std::uint32_t parity = basis_rhs[r];
        for (std::uint32_t k = col / 64; k < words; ++k) {
          parity ^=
              static_cast<std::uint32_t>(std::popcount(pivot[k] & seed[k]));
        }
        if (parity & 1) seed[col / 64] |= std::uint64_t{1} << (col % 64);
      }
      EncodedPattern enc;
      enc.lfsr_degree = degree;
      enc.seed_bits.resize(degree);
      for (std::uint32_t i = 0; i < degree; ++i) {
        enc.seed_bits[i] =
            static_cast<std::uint8_t>((seed[i / 64] >> (i % 64)) & 1);
      }
      return enc;
    }
    degree += 16;  // inconsistent: retry with more stages
  }
  return std::nullopt;
}

BitPattern ReseedingEncoder::Expand(const EncodedPattern& encoded) const {
  Lfsr lfsr(Lfsr::DefaultPolynomial(encoded.lfsr_degree), encoded.seed_bits);
  return lfsr.Emit(width_);
}

std::uint64_t HashEncodedPatterns(std::span<const EncodedPattern> patterns) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(patterns.size());
  for (const EncodedPattern& enc : patterns) {
    mix(enc.lfsr_degree);
    for (std::uint8_t b : enc.seed_bits) mix(b);
  }
  return h;
}

}  // namespace bistdse::bist
