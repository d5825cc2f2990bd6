#include "scan/cold_boot_reconstruct.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

namespace keyguard::scan {
namespace {

using Word = std::uint64_t;

// Fixed-width little-endian word vectors (arithmetic implicitly modulo
// 2^(64 * size)) — leaner than Bignum for the per-candidate hot loop.
using Fixed = std::vector<Word>;

void add_shifted(Fixed& acc, const Fixed& v, std::size_t shift_bits) {
  const std::size_t word_shift = shift_bits / 64;
  const unsigned bit_shift = shift_bits % 64;
  Word carry = 0;
  for (std::size_t i = 0; i + word_shift < acc.size(); ++i) {
    Word piece = i < v.size() ? v[i] << bit_shift : 0;
    if (bit_shift != 0 && i > 0 && i - 1 < v.size()) {
      piece |= v[i - 1] >> (64 - bit_shift);
    }
    const std::size_t idx = i + word_shift;
    const Word s1 = acc[idx] + piece;
    const Word c1 = s1 < acc[idx] ? 1 : 0;
    const Word s2 = s1 + carry;
    const Word c2 = s2 < s1 ? 1 : 0;
    acc[idx] = s2;
    carry = c1 | c2;
  }
}

void add_bit(Fixed& acc, std::size_t bit) {
  const std::size_t word = bit / 64;
  if (word >= acc.size()) return;
  Word carry = Word{1} << (bit % 64);
  for (std::size_t i = word; i < acc.size() && carry != 0; ++i) {
    const Word s = acc[i] + carry;
    carry = s < acc[i] ? 1 : 0;
    acc[i] = s;
  }
}

bool get_bit(const Fixed& v, std::size_t bit) {
  const std::size_t word = bit / 64;
  if (word >= v.size()) return false;
  return ((v[word] >> (bit % 64)) & 1) != 0;
}

// bit i of (n - prod) where the subtraction is carried out over the low
// i/64 + 1 words (enough, because n ≡ prod mod 2^i by the invariant).
bool constraint_bit(const Fixed& n, const Fixed& prod, std::size_t i) {
  const std::size_t words = i / 64 + 1;
  Word borrow = 0;
  Word diff_word = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const Word nw = w < n.size() ? n[w] : 0;
    const Word pw = w < prod.size() ? prod[w] : 0;
    const Word d1 = nw - pw;
    const Word b1 = nw < pw ? 1 : 0;
    diff_word = d1 - borrow;
    const Word b2 = d1 < borrow ? 1 : 0;
    borrow = b1 | b2;
  }
  return ((diff_word >> (i % 64)) & 1) != 0;
}

Fixed from_bignum(const bn::Bignum& v, std::size_t words) {
  Fixed out(words, 0);
  const auto limbs = v.limbs();
  for (std::size_t i = 0; i < limbs.size() && i < words; ++i) out[i] = limbs[i];
  return out;
}

bn::Bignum to_bignum(const Fixed& v) {
  std::vector<std::byte> bytes;
  bytes.reserve(v.size() * 8);
  for (const Word w : v) {
    for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<std::byte>(w >> (8 * b)));
  }
  return bn::Bignum::from_bytes_le(bytes);
}

// Observed (reliable) 1-bits from a decayed LE byte image.
Fixed observed_bits(std::span<const std::byte> image, std::size_t words) {
  Fixed out(words, 0);
  for (std::size_t i = 0; i < image.size() && i / 8 < words; ++i) {
    out[i / 8] |= std::to_integer<Word>(image[i]) << (8 * (i % 8));
  }
  return out;
}

struct Candidate {
  Fixed p, q, prod;
  // Statistical-pruning bookkeeping: bits this candidate set to 1, and how
  // many of those landed on observed-0 positions ("mismatches" = bits that
  // must have decayed if the candidate is the true value).
  std::uint32_t ones_p = 1, mism_p = 0;  // bit 0 is always set
  std::uint32_t ones_q = 1, mism_q = 0;
};

// Estimated decay rate from an image: exact-length random primes have
// 1-density ~1/2, so density d after unidirectional decay implies
// delta = 1 - 2d.
double estimate_decay(std::span<const std::byte> image, std::size_t expected_bits) {
  std::size_t ones = 0;
  for (const std::byte b : image) {
    ones += static_cast<std::size_t>(std::popcount(std::to_integer<unsigned>(b)));
  }
  if (expected_bits == 0) return 1.0;
  const double density = static_cast<double>(ones) / static_cast<double>(expected_bits);
  return std::clamp(1.0 - 2.0 * density, 0.01, 1.0);
}

// Hard statistical cutoff in standard deviations: a candidate dies
// outright when its count of (candidate-1, observed-0) positions exceeds
// decay_estimate * ones_set + kSlackSigmas * stddev + 2.
constexpr double kSlackSigmas = 5.0;

// Mismatch budget after setting `ones` 1-bits under decay rate `delta`.
std::uint32_t mismatch_budget(std::uint32_t ones, double delta) {
  const double n = static_cast<double>(ones);
  const double mean = delta * n;
  const double sd = std::sqrt(std::max(delta * (1.0 - delta) * n, 1.0));
  return static_cast<std::uint32_t>(mean + kSlackSigmas * sd + 2.0);
}

}  // namespace

ColdBootReconstructor::ColdBootReconstructor(crypto::RsaPublicKey public_key,
                                             ColdBootConfig cfg)
    : pub_(std::move(public_key)), cfg_(cfg) {}

std::optional<crypto::RsaPrivateKey> ColdBootReconstructor::reconstruct(
    std::span<const std::byte> p_image, std::span<const std::byte> q_image) const {
  const std::size_t prime_bits = pub_.modulus_bits() / 2;
  const std::size_t prime_words = prime_bits / 64;
  const std::size_t prod_words = prime_words * 2;

  const Fixed n = from_bignum(pub_.n, prod_words);
  const Fixed p_known = observed_bits(p_image, prime_words);
  const Fixed q_known = observed_bits(q_image, prime_words);
  const double delta_p = estimate_decay(p_image, prime_bits);
  const double delta_q = estimate_decay(q_image, prime_bits);

  // Primes are odd; bit 0 is fixed.
  std::vector<Candidate> frontier;
  {
    Candidate root;
    root.p.assign(prime_words, 0);
    root.q.assign(prime_words, 0);
    root.prod.assign(prod_words, 0);
    root.p[0] = 1;
    root.q[0] = 1;
    root.prod[0] = 1;
    frontier.push_back(std::move(root));
  }

  std::vector<Candidate> next;
  for (std::size_t i = 1; i < prime_bits; ++i) {
    next.clear();
    const bool p_must = get_bit(p_known, i);
    const bool q_must = get_bit(q_known, i);
    for (const auto& cand : frontier) {
      const bool c = constraint_bit(n, cand.prod, i);
      // The two bit pairs satisfying p_i XOR q_i == c.
      const std::pair<bool, bool> options[2] = {{false, c}, {true, !c}};
      for (const auto& [pi, qi] : options) {
        if (p_must && !pi) continue;  // a surviving 1-bit is trusted
        if (q_must && !qi) continue;
        Candidate child = cand;
        if (pi) {
          add_bit(child.p, i);
          add_shifted(child.prod, cand.q, i);
          ++child.ones_p;
          if (!p_must) ++child.mism_p;  // a 1 the image does not show
        }
        if (qi) {
          add_bit(child.q, i);
          add_shifted(child.prod, cand.p, i);
          ++child.ones_q;
          if (!q_must) ++child.mism_q;
        }
        if (pi && qi) add_bit(child.prod, 2 * i);
        // Soft statistical pruning: far too many "decayed" bits for the
        // estimated rate means this candidate cannot be the true value.
        if (child.mism_p > mismatch_budget(child.ones_p, delta_p) ||
            child.mism_q > mismatch_budget(child.ones_q, delta_q)) {
          continue;
        }
        next.push_back(std::move(child));
      }
    }
    // Beam trim: the true path accumulates mismatches at the decay rate,
    // wrong branches at ~1/2 per set bit, so ranking by the mismatch
    // z-score (normalised for how many bits each candidate set) keeps the
    // true candidate while bounding work (Heninger-Shacham's
    // width-limited search).
    if (next.size() > cfg_.max_candidates) {
      auto zscore = [](std::uint32_t mism, std::uint32_t ones, double delta) {
        const double n = static_cast<double>(ones);
        return (static_cast<double>(mism) - delta * n) /
               std::sqrt(std::max(delta * (1.0 - delta) * n, 1.0));
      };
      auto score = [&](const Candidate& c) {
        return zscore(c.mism_p, c.ones_p, delta_p) + zscore(c.mism_q, c.ones_q, delta_q);
      };
      std::nth_element(next.begin(),
                       next.begin() + static_cast<std::ptrdiff_t>(cfg_.max_candidates),
                       next.end(), [&](const Candidate& a, const Candidate& b) {
                         return score(a) < score(b);
                       });
      next.resize(cfg_.max_candidates);
    }
    frontier.swap(next);
    if (frontier.empty()) {
      last_frontier_ = 0;
      return std::nullopt;  // inconsistent images (not really P and Q)
    }
  }
  last_frontier_ = frontier.size();

  for (const auto& cand : frontier) {
    const bn::Bignum p = to_bignum(cand.p);
    const bn::Bignum q = to_bignum(cand.q);
    if (p.is_one() || q.is_one()) continue;
    if (p * q == pub_.n) {
      // Delegate CRT part derivation to the hunter-style reconstruction.
      const bn::Bignum one(1);
      crypto::RsaPrivateKey key;
      key.n = pub_.n;
      key.e = pub_.e;
      key.p = p;
      key.q = q;
      if (key.p < key.q) std::swap(key.p, key.q);
      const bn::Bignum p1 = key.p - one;
      const bn::Bignum q1 = key.q - one;
      const bn::Bignum g = bn::Bignum::gcd(p1, q1);
      const auto d = bn::Bignum::mod_inverse(key.e, (p1 / g) * q1);
      if (!d) continue;
      key.d = *d;
      key.dmp1 = key.d % p1;
      key.dmq1 = key.d % q1;
      const auto iqmp = bn::Bignum::mod_inverse(key.q, key.p);
      if (!iqmp) continue;
      key.iqmp = *iqmp;
      return key;
    }
  }
  return std::nullopt;
}

}  // namespace keyguard::scan
