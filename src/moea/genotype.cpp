#include "moea/genotype.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace bistdse::moea {

namespace {

/// Image of a priority under which ascending unsigned order is descending
/// priority order: -0.0 becomes +0.0, negatives have every bit flipped and
/// the rest their sign bit (the order-preserving map of IEEE doubles onto
/// integers), then the result is complemented.
std::uint64_t DescendingKey(double priority) {
  const std::uint64_t bits =
      priority == 0.0 ? 0 : std::bit_cast<std::uint64_t>(priority);
  const std::uint64_t flip = (0 - (bits >> 63)) | (std::uint64_t{1} << 63);
  return ~(bits ^ flip);
}

/// Buckets up to this size are left to the final insertion sort.
constexpr std::uint32_t kInsertionSortMax = 16;

}  // namespace

// Most-significant-first bucket sort on the integer keys: a range of m keys
// is spread over m to 4m buckets of equal key width by (key - min) >> shift,
// scattered stably, and every bucket larger than kInsertionSortMax is
// bucketed again. That
// leaves the keys in order up to small runs, which one insertion sort over
// everything finishes in linear time. Equal keys stay in input (= ascending
// index) order throughout, so the result is exactly what a stable comparison
// sort on `>` gives for every non-NaN priority.
std::span<const std::uint32_t> Genotype::DecisionOrder(
    DecisionOrderScratch& scratch) const {
  const auto n = static_cast<std::uint32_t>(priorities.size());
  auto& keys = scratch.keys;
  auto& order = scratch.order;
  keys.resize(n);
  order.resize(n);
  scratch.spare_keys.resize(n);
  scratch.spare_order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    keys[i] = DescendingKey(priorities[i]);
    order[i] = i;
  }

  auto& pending = scratch.pending;
  pending.clear();
  if (n > kInsertionSortMax) pending.emplace_back(0, n);
  while (!pending.empty()) {
    const auto [begin, end] = pending.back();
    pending.pop_back();
    std::uint64_t lo = keys[begin], hi = keys[begin];
    for (std::uint32_t i = begin + 1; i < end; ++i) {
      lo = std::min(lo, keys[i]);
      hi = std::max(hi, keys[i]);
    }
    if (lo == hi) continue;  // all tied: already in index order

    const int width = static_cast<int>(std::bit_width(hi - lo));
    const int bucket_bits =
        std::min(width, static_cast<int>(std::bit_width(end - begin)) + 1);
    const int shift = width - bucket_bits;
    const std::size_t buckets = ((hi - lo) >> shift) + 1;
    auto& counts = scratch.counts;
    counts.assign(buckets + 1, 0);
    for (std::uint32_t i = begin; i < end; ++i) {
      ++counts[((keys[i] - lo) >> shift) + 1];
    }
    const std::uint32_t largest =
        *std::max_element(counts.begin(), counts.end());
    counts[0] = begin;
    for (std::size_t b = 1; b <= buckets; ++b) counts[b] += counts[b - 1];
    // counts[b] is now where bucket b starts; scatter advances it to its end.
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t to = counts[(keys[i] - lo) >> shift]++;
      scratch.spare_keys[to] = keys[i];
      scratch.spare_order[to] = order[i];
    }
    std::copy(scratch.spare_keys.begin() + begin,
              scratch.spare_keys.begin() + end, keys.begin() + begin);
    std::copy(scratch.spare_order.begin() + begin,
              scratch.spare_order.begin() + end, order.begin() + begin);
    if (largest <= kInsertionSortMax) continue;
    for (std::uint32_t b = 0, from = begin; b < buckets; from = counts[b++]) {
      if (counts[b] - from > kInsertionSortMax) {
        pending.emplace_back(from, counts[b]);
      }
    }
  }

  // Stable insertion sort; every key is at most kInsertionSortMax places
  // from where it belongs.
  for (std::uint32_t i = 1; i < n; ++i) {
    const std::uint64_t key = keys[i];
    const std::uint32_t gene = order[i];
    std::uint32_t j = i;
    for (; j > 0 && keys[j - 1] > key; --j) {
      keys[j] = keys[j - 1];
      order[j] = order[j - 1];
    }
    keys[j] = key;
    order[j] = gene;
  }
  return order;
}

std::vector<std::uint32_t> Genotype::DecisionOrder() const {
  DecisionOrderScratch scratch;
  const auto order = DecisionOrder(scratch);
  return {order.begin(), order.end()};
}

Genotype RandomGenotype(std::size_t n, util::SplitMix64& rng) {
  return RandomGenotypeBiased(n, 0.5, rng);
}

Genotype RandomGenotypeBiased(std::size_t n, double bias,
                              util::SplitMix64& rng) {
  Genotype g;
  g.priorities.resize(n);
  g.phases.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.priorities[i] = rng.UnitReal();
    g.phases[i] = rng.Chance(bias) ? 1 : 0;
  }
  return g;
}

Genotype UniformCrossover(const Genotype& a, const Genotype& b,
                          util::SplitMix64& rng) {
  if (a.Size() != b.Size())
    throw std::invalid_argument("genotype size mismatch");
  Genotype child;
  child.priorities.resize(a.Size());
  child.phases.resize(a.Size());
  for (std::size_t i = 0; i < a.Size(); ++i) {
    const bool from_a = rng.Chance(0.5);
    child.priorities[i] = from_a ? a.priorities[i] : b.priorities[i];
    child.phases[i] = from_a ? a.phases[i] : b.phases[i];
  }
  return child;
}

Genotype OnePointCrossover(const Genotype& a, const Genotype& b,
                           util::SplitMix64& rng) {
  if (a.Size() != b.Size())
    throw std::invalid_argument("genotype size mismatch");
  const std::size_t cut = a.Size() == 0 ? 0 : rng.Below(a.Size() + 1);
  Genotype child;
  child.priorities.resize(a.Size());
  child.phases.resize(a.Size());
  for (std::size_t i = 0; i < a.Size(); ++i) {
    const Genotype& source = i < cut ? a : b;
    child.priorities[i] = source.priorities[i];
    child.phases[i] = source.phases[i];
  }
  return child;
}

void Mutate(Genotype& genotype, double rate, util::SplitMix64& rng) {
  for (std::size_t i = 0; i < genotype.Size(); ++i) {
    if (!rng.Chance(rate)) continue;
    genotype.priorities[i] = rng.UnitReal();
    if (rng.Chance(0.5)) genotype.phases[i] ^= 1;
  }
}

}  // namespace bistdse::moea
