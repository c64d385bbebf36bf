#include "bist/lfsr.hpp"

#include <algorithm>

namespace bistdse::bist {

Lfsr::Lfsr(std::vector<std::uint32_t> taps, std::uint64_t seed)
    : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("LFSR needs taps");
  degree_ = *std::max_element(taps_.begin(), taps_.end());
  if (degree_ == 0) throw std::invalid_argument("LFSR degree must be > 0");
  taps_.erase(std::remove(taps_.begin(), taps_.end(), degree_), taps_.end());
  state_.assign(degree_, 0);
  for (std::uint32_t i = 0; i < degree_; ++i) {
    state_[i] = static_cast<std::uint8_t>((seed >> (i % 64)) & 1);
  }
  // An all-zero state would lock the LFSR; force a one.
  if (std::all_of(state_.begin(), state_.end(),
                  [](std::uint8_t b) { return b == 0; })) {
    state_[0] = 1;
  }
}

Lfsr::Lfsr(std::vector<std::uint32_t> taps,
           const std::vector<std::uint8_t>& seed_bits)
    : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("LFSR needs taps");
  degree_ = *std::max_element(taps_.begin(), taps_.end());
  if (degree_ == 0) throw std::invalid_argument("LFSR degree must be > 0");
  taps_.erase(std::remove(taps_.begin(), taps_.end(), degree_), taps_.end());
  if (seed_bits.size() != degree_)
    throw std::invalid_argument("seed width must equal LFSR degree");
  state_ = seed_bits;
  for (auto& b : state_) b &= 1;
}

std::uint8_t Lfsr::Step() {
  // Circular buffer: logical index i lives at physical (head_ + i) % degree_.
  const std::uint8_t out = state_[head_];
  std::uint8_t fb = out;  // constant term: the outgoing bit always feeds back
  for (std::uint32_t t : taps_) {
    if (t == 0) continue;
    const std::uint32_t logical = degree_ - t;
    std::uint32_t phys = head_ + logical;
    if (phys >= degree_) phys -= degree_;
    fb = static_cast<std::uint8_t>(fb ^ state_[phys]);
  }
  state_[head_] = fb;  // incoming bit takes the vacated slot
  ++head_;
  if (head_ == degree_) head_ = 0;
  return out;
}

std::vector<std::uint8_t> Lfsr::Emit(std::size_t n) {
  std::vector<std::uint8_t> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = Step();
  return bits;
}

std::vector<std::uint64_t> Lfsr::SymbolicEmit(std::vector<std::uint32_t> taps,
                                              std::size_t n) {
  if (taps.empty()) throw std::invalid_argument("LFSR needs taps");
  const std::uint32_t degree = *std::max_element(taps.begin(), taps.end());
  if (degree == 0) throw std::invalid_argument("LFSR degree must be > 0");
  taps.erase(std::remove(taps.begin(), taps.end(), degree), taps.end());
  const std::size_t words = (degree + 63) / 64;

  // Same circular layout as Step(): slot (head + i) % degree holds logical
  // state bit i; initially slot i holds seed variable i alone.
  std::vector<std::uint64_t> state(degree * words, 0);
  for (std::uint32_t i = 0; i < degree; ++i) {
    state[i * words + i / 64] = std::uint64_t{1} << (i % 64);
  }
  std::vector<std::uint64_t> rows(n * words);
  std::uint32_t head = 0;
  for (std::size_t p = 0; p < n; ++p) {
    std::uint64_t* slot = &state[head * words];
    std::copy(slot, slot + words, &rows[p * words]);
    // The outgoing set stays in the vacated slot and the taps' sets are
    // XORed onto it: the incoming feedback set.
    for (std::uint32_t t : taps) {
      if (t == 0) continue;
      std::uint32_t phys = head + degree - t;
      if (phys >= degree) phys -= degree;
      const std::uint64_t* tap = &state[phys * words];
      for (std::size_t w = 0; w < words; ++w) slot[w] ^= tap[w];
    }
    ++head;
    if (head == degree) head = 0;
  }
  return rows;
}

std::vector<std::uint32_t> Lfsr::DefaultPolynomial(std::uint32_t degree) {
  // Primitive polynomials (Xilinx app-note / Alfke table excerpts).
  switch (degree) {
    case 8: return {8, 6, 5, 4, 0};
    case 16: return {16, 15, 13, 4, 0};
    case 24: return {24, 23, 22, 17, 0};
    case 32: return {32, 22, 2, 1, 0};
    case 48: return {48, 47, 21, 20, 0};
    case 64: return {64, 63, 61, 60, 0};
    default:
      if (degree == 0) throw std::invalid_argument("degree must be > 0");
      // Generic dense fallback; period is not guaranteed maximal but the
      // stream quality suffices for reseeding expansion.
      return {degree, degree > 2 ? degree - 1 : 1, 1, 0};
  }
}

}  // namespace bistdse::bist
