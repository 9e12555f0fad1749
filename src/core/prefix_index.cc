#include "core/prefix_index.h"

#include <algorithm>
#include <array>
#include <bit>

namespace rloop::core {

void NonLoopedIndex::seal() {
  // Records were appended in time order, so entries with equal keys are
  // already ts-sorted; any STABLE sort by key alone therefore yields the
  // (key, ts) order the queries binary-search. Keys are Prefix::packed(),
  // 40 significant bits, so three LSD counting passes of 14 bits sort
  // them outright, in linear time and with sequential
  // scatter traffic, where a comparison sort pays n log n cache-missing
  // compares. Each pass is a counting sort (stable by construction).
  constexpr int kRadixBits = 14;
  constexpr std::size_t kBuckets = std::size_t{1} << kRadixBits;
  constexpr int kPasses = 3;  // 3 * 14 = 42 bits >= the 40-bit key space
  if (entries_.size() < 2) return;

  scratch_.resize(entries_.size());
  std::array<std::uint32_t, kBuckets> histogram;
  for (int pass = 0; pass < kPasses; ++pass) {
    const int shift = pass * kRadixBits;
    histogram.fill(0);
    for (const Entry& e : entries_) {
      ++histogram[(e.key >> shift) & (kBuckets - 1)];
    }
    // Skip a pass whose digit is constant (common: the low byte is the
    // prefix length, identical for every /24 entry).
    if (histogram[(entries_[0].key >> shift) & (kBuckets - 1)] ==
        entries_.size()) {
      continue;
    }
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t count = histogram[b];
      histogram[b] = offset;
      offset += count;
    }
    for (const Entry& e : entries_) {
      scratch_[histogram[(e.key >> shift) & (kBuckets - 1)]++] = e;
    }
    entries_.swap(scratch_);
  }
}

NonLoopedIndex::NonLoopedIndex(const std::vector<ParsedRecord>& records,
                               const std::vector<bool>& is_member) {
  for (const ParsedRecord& rec : records) {
    if (!rec.ok) continue;
    if (is_member[rec.index]) continue;
    entries_.push_back({rec.dst24.packed(), rec.ts});
  }
  seal();
}

void NonLoopedIndex::rebuild(const RecordStore& store,
                             const std::vector<bool>& is_member,
                             const std::vector<ReplicaStream>& streams) {
  // 64 scope bits per stream (rounded up to a power of two): a few KB that
  // stay in L1 while every record is screened, and a one-in-64-or-better
  // chance that a foreign prefix shares a bit.
  const std::size_t bits =
      std::bit_ceil(std::max<std::size_t>(streams.size(), 1)) * 64;
  const int shift = 64 - std::countr_zero(bits);
  scope_.assign(bits / 64, 0);
  const auto scope_bit = [shift](std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift);
  };
  for (const ReplicaStream& stream : streams) {
    const std::size_t b = scope_bit(stream.dst24.packed());
    scope_[b / 64] |= std::uint64_t{1} << (b % 64);
  }

  entries_.clear();
  const std::size_t n = store.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = store.dst24_key(i);
    const std::size_t b = scope_bit(key);
    if (((scope_[b / 64] >> (b % 64)) & 1) == 0) continue;
    if (!store.ok(i) || is_member[i]) continue;
    entries_.push_back({key, store.ts(i)});
  }
  seal();
}

bool NonLoopedIndex::any_in(const net::Prefix& prefix24, net::TimeNs from,
                            net::TimeNs to) const {
  return first_in(prefix24, from, to).has_value();
}

std::optional<net::TimeNs> NonLoopedIndex::first_in(const net::Prefix& prefix24,
                                                    net::TimeNs from,
                                                    net::TimeNs to) const {
  const Entry probe{prefix24.packed(), from};
  const auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), probe,
      [](const Entry& a, const Entry& b) {
        if (a.key != b.key) return a.key < b.key;
        return a.ts < b.ts;
      });
  if (lo == entries_.end() || lo->key != probe.key || lo->ts > to) {
    return std::nullopt;
  }
  return lo->ts;
}

std::size_t NonLoopedIndex::prefix_count() const {
  std::size_t count = 0;
  std::uint64_t prev = 0;
  bool first = true;
  for (const Entry& e : entries_) {
    if (first || e.key != prev) {
      ++count;
      prev = e.key;
      first = false;
    }
  }
  return count;
}

}  // namespace rloop::core
