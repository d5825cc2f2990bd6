#include "sim/coprocessor.hpp"

#include <algorithm>

#include "core/secure_zero.hpp"
#include "crypto/sha256.hpp"
#include "obs/event_bus.hpp"
#include "util/rng.hpp"

namespace keyguard::sim {

namespace {

void put_le64(std::byte* out, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

}  // namespace

CoprocessorDomain::CoprocessorDomain(std::uint64_t seed) {
  util::Rng rng(seed);
  rng.fill_bytes(secret_);
}

CoprocessorDomain::~CoprocessorDomain() { secure::secure_zero(secret_); }

bool CoprocessorDomain::available() const {
  std::lock_guard lk(mu_);
  return powered_;
}

void CoprocessorDomain::power_off() {
  std::lock_guard lk(mu_);
  secure::secure_zero(secret_);
  powered_ = false;
}

bool CoprocessorDomain::crypt(std::uint64_t nonce, std::span<std::byte> out,
                              bool xor_in) {
  std::lock_guard lk(mu_);
  if (!begin_locked(0)) return false;
  std::byte trailer[17];
  trailer[0] = std::byte{'C'};
  put_le64(trailer + 1, nonce);
  for (std::uint64_t block = 0; !out.empty(); ++block) {
    put_le64(trailer + 9, block);
    crypto::Sha256 h;
    h.update(secret_);
    h.update(trailer);
    auto ks = h.finish();
    const std::size_t n = std::min(kBlockBytes, out.size());
    for (std::size_t i = 0; i < n; ++i) out[i] = xor_in ? out[i] ^ ks[i] : ks[i];
    secure::secure_zero(ks);
    out = out.subspan(n);
  }
  return true;
}

bool CoprocessorDomain::keystream(std::uint64_t nonce, std::span<std::byte> out) {
  return crypt(nonce, out, /*xor_in=*/false);
}

bool CoprocessorDomain::keystream_xor(std::uint64_t nonce, std::span<std::byte> data) {
  return crypt(nonce, data, /*xor_in=*/true);
}

bool CoprocessorDomain::begin_locked(std::uint64_t code) {
  if (!powered_) {
    if (auto& bus = obs::EventBus::global(); bus.enabled()) {
      bus.publish(obs::ObsEventKind::kDomainRefusal, code);
    }
    return false;
  }
  ++round_trips_;
  return true;
}

std::optional<std::array<std::byte, CoprocessorDomain::kTagBytes>>
CoprocessorDomain::mac(std::uint64_t nonce, std::span<const std::byte> data) {
  std::lock_guard lk(mu_);
  if (!begin_locked(2)) return std::nullopt;
  std::byte trailer[17];
  trailer[0] = std::byte{'M'};
  put_le64(trailer + 1, nonce);
  put_le64(trailer + 9, data.size());
  crypto::Sha256 h;
  h.update(secret_);
  h.update(trailer);
  h.update(data);
  return h.finish();
}

std::uint64_t CoprocessorDomain::round_trips() const {
  std::lock_guard lk(mu_);
  return round_trips_;
}

}  // namespace keyguard::sim
