// Simulated OpenSSL: the key-handling behaviours of OpenSSL 0.9.7i that
// the paper measures and patches, re-created over the simulated kernel.
//
// Every byte of key material handled here lives in *simulated process
// memory* (heap chunks or mmap'd pages inside sim::PhysicalMemory), so the
// scanner and the disclosure attacks see exactly the copy population a
// real server would produce:
//
//  * load_private_key() == PEM_read + d2i_PrivateKey: the PEM text passes
//    through a heap buffer, the base64-decoded body through another, and
//    the parsed BIGNUMs (n, e, d, p, q, dmp1, dmq1, iqmp) are written into
//    heap chunks as little-endian limb arrays — the BN_ULONG images the
//    paper's scanmemory searches for. In the unpatched library the
//    temporary buffers are free()d WITHOUT clearing.
//  * rsa_private_op() == RSA_eay_mod_exp: CRT with Montgomery contexts.
//    With RSA_FLAG_CACHE_PRIVATE set (the default), the contexts for P and
//    Q are built once and cached in the RSA structure — each holding
//    ANOTHER heap copy of the prime. With the flag cleared (the defense),
//    per-operation contexts are built and freed (clear-freed under the
//    patched library). Either way the op reads each context's R^2 back
//    from simulated memory and exponentiates with it, so R^2 mod P and
//    R^2 mod Q are computed once per context, never per exponentiation.
//  * rsa_memory_align() is the paper's defense verbatim: copy all six
//    private parts onto one freshly mmap'd, mlock'd page; zero and free
//    the originals; mark them BN_FLG_STATIC_DATA; clear the cache flag.
//    Nothing ever writes to that page again, so copy-on-write keeps it
//    physically single across any number of forked children.
//
// SslConfig selects the paper's library-level patch set; the application
// level instead calls rsa_memory_align() explicitly after loading.
#pragma once

#include <optional>
#include <string>

#include "bignum/bignum.hpp"
#include "crypto/rsa.hpp"
#include "sim/kernel.hpp"

namespace keyguard::sslsim {

/// A BIGNUM whose limb array lives in simulated process memory.
struct SimBignum {
  sim::VirtAddr data = 0;   ///< little-endian limb image
  std::size_t limbs = 0;    ///< significant 64-bit limbs
  bool static_data = false; ///< BN_FLG_STATIC_DATA: not heap-owned

  std::size_t bytes() const noexcept { return limbs * 8; }
  bool present() const noexcept { return data != 0; }
};

/// BN_MONT_CTX: holds a copy of the modulus and R^2 mod N — the copy is
/// the point (it is how cached contexts leak P and Q).
struct SimMontCtx {
  SimBignum n;
  SimBignum rr;
};

/// The RSA structure (key parts + flags + caches).
struct SimRsaKey {
  SimBignum n, e, d, p, q, dmp1, dmq1, iqmp;
  /// RSA_FLAG_CACHE_PRIVATE: cache Montgomery contexts for P and Q.
  bool cache_private = true;
  std::optional<SimMontCtx> mont_p;
  std::optional<SimMontCtx> mont_q;
  /// Set by rsa_memory_align.
  bool aligned = false;
  sim::VirtAddr aligned_page = 0;
  std::size_t aligned_bytes = 0;
};

/// Which of the paper's library-level measures are compiled in.
struct SslConfig {
  /// d2i_PrivateKey calls RSA_memory_align automatically (library level).
  bool auto_align = false;
  /// Key-bearing temporaries are BN_clear_free'd instead of free'd.
  bool clear_temporaries = false;
  /// Key files are opened with O_NOCACHE (integrated level; needs kernel
  /// support to have any effect).
  bool open_keys_nocache = false;
};

class SslLibrary {
 public:
  SslLibrary(sim::Kernel& kernel, SslConfig cfg) : kernel_(kernel), cfg_(cfg) {}

  /// PEM load path (PEM_read_RSAPrivateKey + d2i). Returns nullopt when the
  /// file is missing or malformed. All parse temporaries flow through the
  /// process heap.
  std::optional<SimRsaKey> load_private_key(sim::Process& p, const std::string& path);

  /// The paper's RSA_memory_align(): one mlock'd page, originals zeroed and
  /// freed, caches disabled and scrubbed. Idempotent. Returns false on OOM.
  bool rsa_memory_align(sim::Process& p, SimRsaKey& key);

  /// CRT private operation (decrypt/sign). Montgomery contexts per the
  /// cache flag; CRT intermediates pass through the heap.
  bn::Bignum rsa_private_op(sim::Process& p, SimRsaKey& key, const bn::Bignum& c);

  /// RSA_free(): clears and releases all parts and caches.
  void rsa_free(sim::Process& p, SimRsaKey& key);

  /// Reconstructs the host-side key from simulated memory (tests, scanner
  /// pattern construction).
  crypto::RsaPrivateKey read_key(sim::Process& p, const SimRsaKey& key) const;

  /// Reads one simulated BIGNUM back.
  bn::Bignum read_bignum(sim::Process& p, const SimBignum& b) const;

  const SslConfig& config() const noexcept { return cfg_; }

  /// Little-endian limb image of a value — the exact byte pattern this
  /// library writes into simulated memory (and the scanner's needle).
  static std::vector<std::byte> limb_image(const bn::Bignum& v);

 private:
  SimBignum write_bignum_heap(sim::Process& p, const bn::Bignum& v,
                              std::string label = {},
                              sim::TaintTag taint = sim::TaintTag::kClean);
  void free_bignum(sim::Process& p, SimBignum& b, bool clear);
  SimMontCtx make_mont_ctx(sim::Process& p, const bn::Bignum& modulus);
  void free_mont_ctx(sim::Process& p, SimMontCtx& ctx, bool clear);

  sim::Kernel& kernel_;
  SslConfig cfg_;
};

}  // namespace keyguard::sslsim
