#include "dsmc/cell_order.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace dsmcpic::dsmc {

namespace {

// 11-bit digits: a typical cell's range (about 20 bits between two
// reindexes) takes two passes, and a 2048-bucket histogram is still small
// next to a cell of a few thousand particles.
constexpr int kDigitBits = 11;
constexpr int kRadix = 1 << kDigitBits;
constexpr int kMaxDigits = (64 + kDigitBits - 1) / kDigitBits;

// Stable insertion sort of one cell by id (strict comparison keeps ties in
// their incoming, ascending-slot order).
void insertion_sort(std::span<std::int32_t> slots,
                    std::span<const std::int64_t> ids) {
  for (std::size_t k = 1; k < slots.size(); ++k) {
    const std::int32_t s = slots[k];
    const std::int64_t id = ids[s];
    std::size_t j = k;
    for (; j > 0 && ids[slots[j - 1]] > id; --j) slots[j] = slots[j - 1];
    slots[j] = s;
  }
}

// Stable LSD radix of one cell on key = id - min_id, which fits `range`.
// All digit histograms come from one pass over the keys; a digit whose
// histogram puts every key in one bucket would be an identity pass and is
// skipped.
void radix_sort(std::span<std::int32_t> slots,
                std::span<const std::int64_t> ids, std::int64_t min_id,
                std::uint64_t range, CellOrderScratch& scratch) {
  using KeyedSlot = CellOrderScratch::KeyedSlot;
  const std::size_t n = slots.size();
  if (scratch.keyed.size() < n) {
    scratch.keyed.resize(n);
    scratch.keyed_tmp.resize(n);
  }
  KeyedSlot* src = scratch.keyed.data();
  KeyedSlot* dst = scratch.keyed_tmp.data();
  const int digits = (std::bit_width(range) + kDigitBits - 1) / kDigitBits;
  std::array<std::array<std::uint32_t, kRadix>, kMaxDigits> hist;
  for (int d = 0; d < digits; ++d) hist[d].fill(0);
  const std::uint64_t base = static_cast<std::uint64_t>(min_id);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t key = static_cast<std::uint64_t>(ids[slots[k]]) - base;
    src[k] = {key, slots[k]};
    for (int d = 0; d < digits; ++d)
      ++hist[d][(key >> (d * kDigitBits)) & (kRadix - 1)];
  }
  for (int d = 0; d < digits; ++d) {
    const int shift = d * kDigitBits;
    auto& h = hist[d];
    if (h[(src[0].key >> shift) & (kRadix - 1)] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& b : h) {
      const std::uint32_t c = b;
      b = sum;
      sum += c;
    }
    for (std::size_t k = 0; k < n; ++k)
      dst[h[(src[k].key >> shift) & (kRadix - 1)]++] = src[k];
    std::swap(src, dst);
  }
  for (std::size_t k = 0; k < n; ++k) slots[k] = src[k].slot;
}

}  // namespace

void sort_cells_by_id(std::span<const std::int64_t> start,
                      std::span<std::int32_t> items,
                      std::span<const std::int64_t> ids,
                      CellOrderScratch& scratch) {
  for (std::size_t c = 0; c + 1 < start.size(); ++c) {
    const std::span<std::int32_t> slots = items.subspan(
        static_cast<std::size_t>(start[c]),
        static_cast<std::size_t>(start[c + 1] - start[c]));
    if (slots.size() < 2) continue;
    std::int64_t lo = ids[slots[0]], hi = lo, prev = lo;
    bool ascending = true;
    for (std::size_t k = 1; k < slots.size(); ++k) {
      const std::int64_t id = ids[slots[k]];
      ascending &= prev <= id;
      prev = id;
      lo = std::min(lo, id);
      hi = std::max(hi, id);
    }
    if (ascending) continue;
    // hi - lo computed unsigned: exact, since hi >= lo.
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    if (static_cast<std::int64_t>(slots.size()) <= kCellOrderInsertionCutoff)
      insertion_sort(slots, ids);
    else
      radix_sort(slots, ids, lo, range, scratch);
  }
}

}  // namespace dsmcpic::dsmc
