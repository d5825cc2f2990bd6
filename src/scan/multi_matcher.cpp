#include "scan/multi_matcher.hpp"

#include <algorithm>
#include <cstring>

namespace keyguard::scan {

namespace {

/// Loads up to 8 bytes starting at p as a comparison image. Built with
/// memcpy on both the needle (at compile time) and the buffer (at scan
/// time), so the comparison is byte-order-agnostic.
inline std::uint64_t load_image(const unsigned char* p, std::size_t n) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, n);
  return v;
}

}  // namespace

MultiMatcher::MultiMatcher(std::span<const std::span<const std::byte>> needles,
                           std::size_t min_prefix_bytes)
    : min_prefix_(min_prefix_bytes) {
  entries_.reserve(needles.size());
  for (std::size_t pi = 0; pi < needles.size(); ++pi) {
    const auto needle = needles[pi];
    if (needle.empty()) continue;
    if (min_prefix_ > 0 && needle.size() < min_prefix_) continue;
    Entry e;
    e.bytes = needle.data();
    e.len = static_cast<std::uint32_t>(needle.size());
    e.match_len = static_cast<std::uint32_t>(
        min_prefix_ > 0 ? min_prefix_ : needle.size());
    e.pattern_index = static_cast<std::uint32_t>(pi);
    max_len_ = std::max<std::size_t>(max_len_, e.len);
    const std::size_t cmp = std::min<std::size_t>(8, e.match_len);
    e.prefix = load_image(reinterpret_cast<const unsigned char*>(needle.data()), cmp);
    unsigned char ones[8] = {};
    // keylint: allow(raw-memset) — builds the 0xFF compare mask, no secret
    std::memset(ones, 0xFF, cmp);
    e.mask = load_image(ones, 8);
    if (e.match_len >= 2) {
      e.second = static_cast<std::uint8_t>(std::to_integer<unsigned>(needle[1]));
    }
    entries_.push_back(e);
  }
  // Group by first byte. Inside a bucket, needles that require only one
  // byte sort first (key 0 — they match under any second byte), then the
  // rest by (second byte + 1, pattern order): at scan time only ONE
  // second-byte run can match a given position, so check_candidate
  // binary-searches to it and merges the two runs by pattern index — the
  // per-position emit order stays equal to the legacy loop's.
  const auto sub_key = [](const Entry& e) -> unsigned {
    return e.match_len >= 2 ? static_cast<unsigned>(e.second) + 1 : 0;
  };
  std::stable_sort(entries_.begin(), entries_.end(),
                   [&](const Entry& a, const Entry& b) {
                     const auto ab = std::to_integer<unsigned>(a.bytes[0]);
                     const auto bb = std::to_integer<unsigned>(b.bytes[0]);
                     if (ab != bb) return ab < bb;
                     const unsigned ak = sub_key(a);
                     const unsigned bk = sub_key(b);
                     return ak != bk ? ak < bk
                                     : a.pattern_index < b.pattern_index;
                   });
  std::size_t i = 0;
  for (unsigned b = 0; b < 256; ++b) {
    bucket_begin_[b] = static_cast<std::uint32_t>(i);
    while (i < entries_.size() &&
           std::to_integer<unsigned>(entries_[i].bytes[0]) == b &&
           entries_[i].match_len < 2) {
      ++i;
    }
    short_end_[b] = static_cast<std::uint32_t>(i);
    while (i < entries_.size() &&
           std::to_integer<unsigned>(entries_[i].bytes[0]) == b) {
      ++i;
    }
    bucket_end_[b] = static_cast<std::uint32_t>(i);
  }
  // Two-byte-prefix bitmap. A needle whose required length is >= 2 pins
  // its exact (b0, b1) pair; a required length of 1 admits any second
  // byte, so all 256 pairs for b0 are set — no false negatives either way.
  // The shufti tables are the bitmap's vector-friendly shadow: each
  // distinct first byte takes a bucket (order of appearance, mod 8 past
  // eight — collisions only cost false positives), the first-byte nibbles
  // set the bucket bit in lo0/hi0, and the second byte either pins its
  // nibbles in lo1/hi1 or (required length 1) admits every second byte.
  std::array<int, 256> first_bucket;
  first_bucket.fill(-1);
  unsigned next_bucket = 0;
  for (const Entry& e : entries_) {
    const unsigned b0 = std::to_integer<unsigned>(e.bytes[0]);
    int bucket = first_bucket[b0];
    if (bucket < 0) {
      bucket = static_cast<int>(next_bucket++ & 7u);
      first_bucket[b0] = bucket;
    }
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << bucket);
    shufti_.lo0[b0 & 15] |= bit;
    shufti_.hi0[b0 >> 4] |= bit;
    if (e.match_len >= 2) {
      const unsigned b1 = std::to_integer<unsigned>(e.bytes[1]);
      const unsigned idx = b0 | (b1 << 8);
      pair_bits_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      shufti_.lo1[b1 & 15] |= bit;
      shufti_.hi1[b1 >> 4] |= bit;
    } else {
      for (unsigned b1 = 0; b1 < 256; ++b1) {
        const unsigned idx = b0 | (b1 << 8);
        pair_bits_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      }
      for (unsigned n = 0; n < 16; ++n) {
        shufti_.lo1[n] |= bit;
        shufti_.hi1[n] |= bit;
      }
    }
  }
  // Profitability: evaluate the nibble classifier over every byte pair —
  // exactly what the vector kernel computes per position — and count how
  // many survive. The skim only pays when it rejects most positions; past
  // ~25% survivors (needle sets with hundreds of unstructured prefixes
  // saturate the 8 buckets) the candidate handling costs more than the
  // scalar walk it replaces, so scan() runs the scalar walk instead of
  // regressing. Real key-pattern sets (DER tags, PEM armor, shared
  // headers) cluster on few first bytes and land far below the cutoff.
  std::size_t survivors = 0;
  for (unsigned b0 = 0; b0 < 256; ++b0) {
    const std::uint8_t m0 = static_cast<std::uint8_t>(shufti_.lo0[b0 & 15] &
                                                      shufti_.hi0[b0 >> 4]);
    if (m0 == 0) continue;
    for (unsigned b1 = 0; b1 < 256; ++b1) {
      if ((m0 & shufti_.lo1[b1 & 15] & shufti_.hi1[b1 >> 4]) != 0) {
        ++survivors;
      }
    }
  }
  simd_profitable_ = survivors <= (256u * 256u) / 4u;
}

void MultiMatcher::check_candidate(const unsigned char* base,
                                   std::size_t buf_size, std::size_t pos,
                                   std::size_t window_end,
                                   std::vector<RawMatch>& out) const {
  const unsigned char b = base[pos];
  const std::uint32_t sb = bucket_begin_[b];
  const std::uint32_t se = short_end_[b];
  const std::uint32_t be = bucket_end_[b];
  if (sb == be) return;  // pair hit from a different first byte's needle
  // Binary-search the (second byte)-sorted tail of the bucket down to the
  // run that can match the buffer's actual second byte; everything else
  // in the bucket is a guaranteed SWAR reject and never gets touched.
  std::uint32_t pb = se;
  std::uint32_t pe = se;
  if (pos + 1 < buf_size) {
    const unsigned b1 = base[pos + 1];
    std::uint32_t lo = se;
    std::uint32_t hi = be;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (static_cast<unsigned>(entries_[mid].second) < b1) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pb = lo;
    hi = be;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (static_cast<unsigned>(entries_[mid].second) <= b1) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pe = lo;
  }
  if (sb == se && pb == pe) return;
  const std::uint64_t have8 = pos + 8 <= buf_size
                                  ? load_image(base + pos, 8)
                                  : load_image(base + pos, buf_size - pos);
  // Merge the length-1 run and the second-byte run by pattern index so
  // ties at the same offset come out in the legacy loop's order.
  std::uint32_t si = sb;
  std::uint32_t pi = pb;
  while (si < se || pi < pe) {
    std::uint32_t ei;
    if (si < se && (pi >= pe || entries_[si].pattern_index <
                                    entries_[pi].pattern_index)) {
      ei = si++;
    } else {
      ei = pi++;
    }
    const Entry& e = entries_[ei];
    // The whole compared span must fit inside the window — the same
    // rule find_all applies to the legacy walk, which is what makes a
    // shard's seam-overlap attribution bit-identical.
    if (pos + e.match_len > window_end) continue;
    if (((have8 ^ e.prefix) & e.mask) != 0) continue;
    const std::size_t cmp = std::min<std::size_t>(8, e.match_len);
    if (e.match_len > cmp &&
        std::memcmp(base + pos + cmp,
                    reinterpret_cast<const unsigned char*>(e.bytes) + cmp,
                    e.match_len - cmp) != 0) {
      continue;
    }
    if (min_prefix_ == 0) {
      out.push_back({pos, e.pattern_index, e.len, true});
    } else {
      // Extend while the needle keeps agreeing, bounded by the window
      // exactly like the legacy prefix path (only the true end of the
      // buffer can truncate extension — seam windows are sized so).
      std::size_t len = e.match_len;
      const auto* nb = reinterpret_cast<const unsigned char*>(e.bytes);
      while (len < e.len && pos + len < window_end &&
             base[pos + len] == nb[len]) {
        ++len;
      }
      out.push_back({pos, e.pattern_index, len, len == e.len});
    }
  }
}

void MultiMatcher::walk_scalar(const unsigned char* base, std::size_t buf_size,
                               std::size_t pos, std::size_t pair_limit,
                               std::size_t limit, std::size_t window_end,
                               std::vector<RawMatch>& out) const {
  // Hot loop: one 16-bit pair lookup per position. The second byte may
  // lie past the window (but inside the buffer) — a false positive there
  // is rejected by check_candidate's window test, never a false negative.
  while (pos < pair_limit) {
    const unsigned idx =
        static_cast<unsigned>(base[pos]) |
        (static_cast<unsigned>(base[pos + 1]) << 8);
    if ((pair_bits_[idx >> 6] & (std::uint64_t{1} << (idx & 63))) != 0) {
      check_candidate(base, buf_size, pos, window_end, out);
    }
    ++pos;
  }
  // Final buffer byte (no second byte to pair with): only needles with a
  // required length of 1 can still match; the bucket walk sorts it out.
  for (; pos < limit; ++pos) {
    check_candidate(base, buf_size, pos, window_end, out);
  }
}

void MultiMatcher::scan_scalar(std::span<const std::byte> buffer,
                               std::size_t begin, std::size_t end,
                               std::size_t window_end,
                               std::vector<RawMatch>& out) const {
  if (entries_.empty() || begin >= end) return;
  const auto* base = reinterpret_cast<const unsigned char*>(buffer.data());
  const std::size_t limit = std::min(end, window_end);
  const std::size_t pair_limit =
      std::min(limit, buffer.size() > 0 ? buffer.size() - 1 : 0);
  walk_scalar(base, buffer.size(), begin, pair_limit, limit, window_end, out);
}

void MultiMatcher::scan(std::span<const std::byte> buffer, std::size_t begin,
                        std::size_t end, std::size_t window_end,
                        std::vector<RawMatch>& out) const {
  const SimdKind kind = simd_kind();
  if (kind == SimdKind::kNone) {
    scan_scalar(buffer, begin, end, window_end, out);  // bit-identical
    return;
  }
  if (entries_.empty() || begin >= end) return;
  const auto* base = reinterpret_cast<const unsigned char*>(buffer.data());
  const std::size_t limit = std::min(end, window_end);
  const std::size_t pair_limit =
      std::min(limit, buffer.size() > 0 ? buffer.size() - 1 : 0);
  // Vector stage over whole 32/64-byte blocks of [begin, pair_limit).
  // Candidates are collected in 64 KiB stripes (the scratch vector stays
  // L2-resident even on match-dense inputs) and each survivor re-checks
  // the exact pair bitmap — the shufti mask is a superset — before the
  // ordinary bucket/SWAR/tail verify. Ascending stripe + ascending ctz
  // extraction keeps emit order identical to the scalar walk.
  static thread_local std::vector<std::size_t> candidates;
  constexpr std::size_t kStripe = 64 * 1024;
  std::size_t pos = begin;
  while (pos < pair_limit) {
    const std::size_t stripe_end = std::min(pair_limit, pos + kStripe);
    candidates.clear();
    const std::size_t resumed = simd_detail::collect_candidates(
        kind, base, pos, stripe_end, shufti_, candidates);
    for (const std::size_t p : candidates) {
      const unsigned idx =
          static_cast<unsigned>(base[p]) |
          (static_cast<unsigned>(base[p + 1]) << 8);
      if ((pair_bits_[idx >> 6] & (std::uint64_t{1} << (idx & 63))) != 0) {
        check_candidate(base, buffer.size(), p, window_end, out);
      }
    }
    if (resumed == pos) break;  // stripe shorter than one vector
    pos = resumed;
  }
  // Scalar tail: the sub-vector remainder of the pair loop plus the
  // final-byte walk — the same code the pure scalar path runs.
  walk_scalar(base, buffer.size(), pos, pair_limit, limit, window_end, out);
}

}  // namespace keyguard::scan
