// Linear-feedback shift registers: the pseudo-random TPG of the STUMPS
// architecture, and the expansion engine for reseeding-encoded deterministic
// patterns.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace bistdse::bist {

/// Fibonacci LFSR over GF(2) with an arbitrary characteristic polynomial.
///
/// State is held in a bit vector (degree up to a few thousand for reseeding).
/// Step() emits the bit shifted out and feeds back the XOR of the tap bits.
class Lfsr {
 public:
  /// `taps` are the exponents of the characteristic polynomial excluding the
  /// leading term; degree = max tap. Example: x^16 + x^5 + x^3 + x^2 + 1 ->
  /// taps {16, 5, 3, 2, 0}.
  Lfsr(std::vector<std::uint32_t> taps, std::uint64_t seed);

  /// Full-width seed (bit i of `seed_bits[i]`); size must equal Degree().
  Lfsr(std::vector<std::uint32_t> taps, const std::vector<std::uint8_t>& seed_bits);

  std::uint32_t Degree() const { return degree_; }

  /// Advances one clock; returns the output bit.
  std::uint8_t Step();

  /// Emits `n` successive output bits.
  std::vector<std::uint8_t> Emit(std::size_t n);

  /// Current state in logical order (index 0 = next output bit).
  std::vector<std::uint8_t> State() const {
    std::vector<std::uint8_t> s(degree_);
    for (std::uint32_t i = 0; i < degree_; ++i) {
      std::uint32_t phys = head_ + i;
      if (phys >= degree_) phys -= degree_;
      s[i] = state_[phys];
    }
    return s;
  }

  /// Symbolic counterpart of Emit(n) for a seed of free variables: bit i of
  /// the seed is variable i, and each state slot holds the packed set of
  /// variables XORed into it. Returns n rows of (degree + 63) / 64 words;
  /// row p is the set of seed bits whose XOR the LFSR emits as output bit p
  /// (bit i of the row is word i / 64, bit i % 64). Applies Step()'s
  /// feedback to sets instead of bits, so for every seed the concrete stream
  /// is the rows' XOR over the seed's one bits.
  static std::vector<std::uint64_t> SymbolicEmit(
      std::vector<std::uint32_t> taps, std::size_t n);

  /// A primitive (or at least maximal-length in practice) polynomial of the
  /// requested degree from a built-in table; degrees 8..64 plus a generic
  /// trinomial fallback for larger degrees.
  static std::vector<std::uint32_t> DefaultPolynomial(std::uint32_t degree);

 private:
  std::vector<std::uint32_t> taps_;  // exponents, excluding degree itself
  std::uint32_t degree_ = 0;
  std::vector<std::uint8_t> state_;  // circular; head_ = next output bit
  std::uint32_t head_ = 0;
};

}  // namespace bistdse::bist
