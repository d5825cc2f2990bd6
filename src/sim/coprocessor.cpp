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

void CoprocessorDomain::fill_locked(const KeystreamRequest& req, bool xor_in) {
  std::byte trailer[17];
  trailer[0] = std::byte{'C'};
  put_le64(trailer + 1, req.nonce);
  std::span<std::byte> out = req.out;
  for (std::uint64_t block = req.first_block; !out.empty(); ++block) {
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
  keystream_requests_ += 1;
  keystream_bytes_ += req.out.size();
}

bool CoprocessorDomain::keystream(std::uint64_t nonce, std::span<std::byte> out,
                                  std::uint64_t first_block) {
  KeystreamRequest req{nonce, first_block, out};
  return keystream_batch({&req, 1});
}

bool CoprocessorDomain::keystream_xor(std::uint64_t nonce, std::span<std::byte> data) {
  std::lock_guard lk(mu_);
  if (!begin_keystream_locked(0)) return false;
  fill_locked({nonce, 0, data}, /*xor_in=*/true);
  return true;
}

bool CoprocessorDomain::keystream_batch(std::span<KeystreamRequest> requests) {
  std::lock_guard lk(mu_);
  if (!begin_keystream_locked(requests.size() == 1 ? 0 : 1)) return false;
  for (const auto& req : requests) fill_locked(req);
  return true;
}

bool CoprocessorDomain::begin_keystream_locked(std::uint64_t refusal_code) {
  if (!powered_) {
    if (auto& bus = obs::EventBus::global(); bus.enabled()) {
      bus.publish(obs::ObsEventKind::kDomainRefusal, refusal_code);
    }
    return false;
  }
  ++round_trips_;
  ++keystream_round_trips_;
  return true;
}

std::optional<std::array<std::byte, CoprocessorDomain::kTagBytes>>
CoprocessorDomain::mac(std::uint64_t nonce, std::span<const std::byte> data) {
  std::lock_guard lk(mu_);
  if (!powered_) {
    if (auto& bus = obs::EventBus::global(); bus.enabled()) {
      bus.publish(obs::ObsEventKind::kDomainRefusal, 2);
    }
    return std::nullopt;
  }
  ++round_trips_;
  ++mac_round_trips_;
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

std::uint64_t CoprocessorDomain::keystream_round_trips() const {
  std::lock_guard lk(mu_);
  return keystream_round_trips_;
}

std::uint64_t CoprocessorDomain::keystream_requests() const {
  std::lock_guard lk(mu_);
  return keystream_requests_;
}

std::uint64_t CoprocessorDomain::keystream_bytes() const {
  std::lock_guard lk(mu_);
  return keystream_bytes_;
}

std::uint64_t CoprocessorDomain::mac_round_trips() const {
  std::lock_guard lk(mu_);
  return mac_round_trips_;
}

}  // namespace keyguard::sim
