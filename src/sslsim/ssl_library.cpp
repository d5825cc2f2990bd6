#include "sslsim/ssl_library.hpp"

#include <cassert>

#include "bignum/montgomery.hpp"
#include "crypto/pem.hpp"
#include "util/bytes.hpp"

namespace keyguard::sslsim {

using bn::Bignum;

std::vector<std::byte> SslLibrary::limb_image(const Bignum& v) {
  std::vector<std::byte> out;
  out.reserve(v.limb_count() * 8);
  for (const bn::Limb limb : v.limbs()) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::byte>(limb >> (8 * b)));
  }
  return out;
}

SimBignum SslLibrary::write_bignum_heap(sim::Process& p, const Bignum& v,
                                        std::string label, sim::TaintTag taint) {
  const auto image = limb_image(v);
  const sim::VirtAddr addr =
      kernel_.heap_alloc(p, image.empty() ? 8 : image.size(), std::move(label));
  assert(addr != 0 && "simulated heap exhausted");
  if (!image.empty()) kernel_.mem_write(p, addr, image, taint);
  return SimBignum{addr, v.limb_count(), /*static_data=*/false};
}

void SslLibrary::free_bignum(sim::Process& p, SimBignum& b, bool clear) {
  if (!b.present()) return;
  if (b.static_data) {
    // Lives on the aligned page; freed with the page, never via the heap.
    b = SimBignum{};
    return;
  }
  if (clear) {
    kernel_.heap_clear_free(p, b.data);
  } else {
    kernel_.heap_free(p, b.data);
  }
  b = SimBignum{};
}

Bignum SslLibrary::read_bignum(sim::Process& p, const SimBignum& b) const {
  if (!b.present() || b.limbs == 0) return Bignum{};
  std::vector<std::byte> bytes(b.bytes());
  kernel_.mem_read(p, b.data, bytes);
  return Bignum::from_bytes_le(bytes);
}

// keylint: allow(unscrubbed) — the context is owned by the caller; every
// exit path releases it through free_mont_ctx (clear-freed when the
// library's clear_temporaries discipline is on).
SimMontCtx SslLibrary::make_mont_ctx(sim::Process& p, const Bignum& modulus) {
  // BN_MONT_CTX_set copies the modulus and computes R^2 mod N; both copies
  // land in the process heap. The modulus copy IS a copy of P or Q — tag
  // it (and the derived R^2) so cached contexts show up in taint audits.
  const bn::MontgomeryContext host_ctx(modulus);
  SimMontCtx ctx;
  ctx.n = write_bignum_heap(p, modulus, "BN_MONT_CTX modulus copy",
                            sim::TaintTag::kMont);
  ctx.rr = write_bignum_heap(p, host_ctx.rr(), "BN_MONT_CTX R^2",
                             sim::TaintTag::kMont);
  return ctx;
}

void SslLibrary::free_mont_ctx(sim::Process& p, SimMontCtx& ctx, bool clear) {
  free_bignum(p, ctx.n, clear);
  free_bignum(p, ctx.rr, clear);
}

std::optional<SimRsaKey> SslLibrary::load_private_key(sim::Process& p,
                                                      const std::string& path) {
  const int flags = cfg_.open_keys_nocache ? sim::kOpenNoCache : sim::kOpenReadOnly;
  const auto pem_bytes = kernel_.read_file(p, path, flags);
  if (!pem_bytes) return std::nullopt;

  // The PEM text is read into a heap buffer (BIO_read)...
  const sim::VirtAddr pem_buf =
      kernel_.heap_alloc(p, pem_bytes->size(), "PEM read buffer");
  assert(pem_buf != 0);
  kernel_.mem_write(p, pem_buf, *pem_bytes, sim::TaintTag::kPem);

  const std::string pem_text(reinterpret_cast<const char*>(pem_bytes->data()),
                             pem_bytes->size());
  const auto host_key = crypto::pem_decode_private_key(pem_text);
  if (!host_key) {
    // keylint: allow(raw-free) — unpatched OpenSSL error path under test
    kernel_.heap_free(p, pem_buf);
    return std::nullopt;
  }

  // ...the base64 body is decoded into a DER scratch buffer...
  const auto der = crypto::der_encode_private_key(*host_key);
  const sim::VirtAddr der_buf = kernel_.heap_alloc(p, der.size(), "DER decode buffer");
  assert(der_buf != 0);
  kernel_.mem_write(p, der_buf, der, sim::TaintTag::kDer);

  // ...and d2i_RSAPrivateKey materialises the eight BIGNUMs. Only the
  // private parts carry taint; n and e are public.
  SimRsaKey key;
  key.n = write_bignum_heap(p, host_key->n, "RSA bignum n");
  key.e = write_bignum_heap(p, host_key->e, "RSA bignum e");
  key.d = write_bignum_heap(p, host_key->d, "RSA bignum d", sim::TaintTag::kKeyD);
  key.p = write_bignum_heap(p, host_key->p, "RSA bignum p", sim::TaintTag::kKeyP);
  key.q = write_bignum_heap(p, host_key->q, "RSA bignum q", sim::TaintTag::kKeyQ);
  key.dmp1 =
      write_bignum_heap(p, host_key->dmp1, "RSA bignum dmp1", sim::TaintTag::kKeyDmp1);
  key.dmq1 =
      write_bignum_heap(p, host_key->dmq1, "RSA bignum dmq1", sim::TaintTag::kKeyDmq1);
  key.iqmp =
      write_bignum_heap(p, host_key->iqmp, "RSA bignum iqmp", sim::TaintTag::kKeyIqmp);

  // Scratch buffers are released. The unpatched library leaves their
  // contents — including a full PEM copy of the key — in freed heap chunks.
  if (cfg_.clear_temporaries) {
    kernel_.heap_clear_free(p, der_buf);
    kernel_.heap_clear_free(p, pem_buf);
  } else {
    // keylint: allow(raw-free) — the unpatched library's leak, measured
    // by the figures; the clear_temporaries branch above is the patch
    kernel_.heap_free(p, der_buf);
    kernel_.heap_free(p, pem_buf);  // keylint: allow(raw-free) — same leak
  }

  if (cfg_.auto_align) {
    rsa_memory_align(p, key);
  }
  return key;
}

bool SslLibrary::rsa_memory_align(sim::Process& p, SimRsaKey& key) {
  if (key.aligned) return true;
  if (!key.d.present()) return true;  // public-only key: nothing to do

  struct Part {
    SimBignum* bn;
    sim::TaintTag tag;
  };
  const Part parts[6] = {{&key.d, sim::TaintTag::kKeyD},
                         {&key.p, sim::TaintTag::kKeyP},
                         {&key.q, sim::TaintTag::kKeyQ},
                         {&key.dmp1, sim::TaintTag::kKeyDmp1},
                         {&key.dmq1, sim::TaintTag::kKeyDmq1},
                         {&key.iqmp, sim::TaintTag::kKeyIqmp}};
  std::size_t total = 0;
  for (const auto& part : parts) total += part.bn->bytes();

  // posix_memalign + mlock: one dedicated, swap-pinned region.
  const sim::VirtAddr page =
      kernel_.mmap_anon(p, total, /*mlocked=*/true, "rsa_aligned");
  if (page == 0) return false;

  sim::VirtAddr cursor = page;
  for (const auto& part : parts) {
    SimBignum* bn = part.bn;
    if (!bn->present()) continue;
    std::vector<std::byte> image(bn->bytes());
    kernel_.mem_read(p, bn->data, image);
    kernel_.mem_write(p, cursor, image, part.tag);
    // memset(0) + free the original heap chunk (the patch's explicit scrub).
    kernel_.heap_clear_free(p, bn->data);
    bn->data = cursor;
    bn->static_data = true;  // BN_FLG_STATIC_DATA
    cursor += bn->bytes();
  }

  // Drop and scrub any cached Montgomery contexts, then disable caching
  // (~RSA_FLAG_CACHE_PRIVATE).
  if (key.mont_p) {
    free_mont_ctx(p, *key.mont_p, /*clear=*/true);
    key.mont_p.reset();
  }
  if (key.mont_q) {
    free_mont_ctx(p, *key.mont_q, /*clear=*/true);
    key.mont_q.reset();
  }
  key.cache_private = false;
  key.aligned = true;
  key.aligned_page = page;
  key.aligned_bytes = total;
  return true;
}

Bignum SslLibrary::rsa_private_op(sim::Process& p, SimRsaKey& key, const Bignum& c) {
  const Bignum P = read_bignum(p, key.p);
  const Bignum Q = read_bignum(p, key.q);
  const Bignum dmp1 = read_bignum(p, key.dmp1);
  const Bignum dmq1 = read_bignum(p, key.dmq1);
  const Bignum iqmp = read_bignum(p, key.iqmp);

  // Montgomery contexts: cached in the RSA struct, or per-op temporaries.
  SimMontCtx* ctx_p = nullptr;
  SimMontCtx* ctx_q = nullptr;
  SimMontCtx tmp_p, tmp_q;
  bool temporary = false;
  if (key.cache_private) {
    if (!key.mont_p) key.mont_p = make_mont_ctx(p, P);
    if (!key.mont_q) key.mont_q = make_mont_ctx(p, Q);
    ctx_p = &*key.mont_p;
    ctx_q = &*key.mont_q;
  } else {
    tmp_p = make_mont_ctx(p, P);
    tmp_q = make_mont_ctx(p, Q);
    ctx_p = &tmp_p;
    ctx_q = &tmp_q;
    temporary = true;
  }
  (void)ctx_p;
  (void)ctx_q;

  // CRT (Garner). The arithmetic itself runs host-side; the simulated
  // memory carries the inputs (read above) and the intermediates (below).
  const crypto::CrtResult crt = crypto::crt_private_op(c, P, Q, dmp1, dmq1, iqmp);

  // The intermediates pass through heap scratch (BN_CTX pool) and are
  // freed like any temporary.
  SimBignum s1 = write_bignum_heap(p, crt.m1, "CRT intermediate m1", sim::TaintTag::kCrt);
  SimBignum s2 = write_bignum_heap(p, crt.m2, "CRT intermediate m2", sim::TaintTag::kCrt);
  free_bignum(p, s1, cfg_.clear_temporaries);
  free_bignum(p, s2, cfg_.clear_temporaries);

  if (temporary) {
    free_mont_ctx(p, tmp_p, cfg_.clear_temporaries);
    free_mont_ctx(p, tmp_q, cfg_.clear_temporaries);
  }
  return crt.m;
}

void SslLibrary::rsa_free(sim::Process& p, SimRsaKey& key) {
  SimBignum* parts[8] = {&key.n, &key.e, &key.d, &key.p,
                         &key.q, &key.dmp1, &key.dmq1, &key.iqmp};
  // RSA_free clears private BIGNUMs (BN_clear_free).
  for (auto* part : parts) free_bignum(p, *part, /*clear=*/true);
  if (key.mont_p) {
    free_mont_ctx(p, *key.mont_p, true);
    key.mont_p.reset();
  }
  if (key.mont_q) {
    free_mont_ctx(p, *key.mont_q, true);
    key.mont_q.reset();
  }
  if (key.aligned && key.aligned_page != 0) {
    kernel_.mem_zero(p, key.aligned_page, key.aligned_bytes);
    kernel_.munmap(p, key.aligned_page, key.aligned_bytes);
    key.aligned = false;
    key.aligned_page = 0;
  }
}

crypto::RsaPrivateKey SslLibrary::read_key(sim::Process& p,
                                           const SimRsaKey& key) const {
  crypto::RsaPrivateKey out;
  out.n = read_bignum(p, key.n);
  out.e = read_bignum(p, key.e);
  out.d = read_bignum(p, key.d);
  out.p = read_bignum(p, key.p);
  out.q = read_bignum(p, key.q);
  out.dmp1 = read_bignum(p, key.dmp1);
  out.dmq1 = read_bignum(p, key.dmq1);
  out.iqmp = read_bignum(p, key.iqmp);
  return out;
}

}  // namespace keyguard::sslsim
