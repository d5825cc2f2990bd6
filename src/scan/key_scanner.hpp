// Reproduction of the paper's `scanmemory` loadable kernel module.
//
// scanmemory walked physical memory linearly looking for copies of the
// private key — the CRT parts d, P, Q as BN_ULONG (little-endian limb)
// arrays, plus the PEM-encoded key file text — and, for every hit, used
// the 2.6 reverse mapping to report which processes own the page and
// whether the frame is allocated at all. This class does the same over a
// sim::Kernel, and can also scan raw attack captures (the bytes the ext2
// or n_tty exploits disclosed).
//
// Like the LKM (first machine word compared, then the tail), the scan
// filters candidates before the full compare; the filter is the
// single-pass MultiMatcher's two-byte-prefix bitmap (vector-skimmed where
// the CPU allows) rather than one memchr pass per needle. Unlike the LKM's
// single linear walk ("about 5 seconds for 256 MB"), a sweep reads only
// the frames ever written (every other frame is still all zero, so no
// match lies there; scan/settle.hpp) and shards them across a thread pool
// (scan/scan_engine.hpp): whole-frame shards with seam-overlap windows
// make the parallel result byte-for-byte identical to the serial one. Match order is the documented contract: ascending
// phys_offset, with the pattern list order (d, P, Q, PEM) breaking ties.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "scan/dirty_journal.hpp"
#include "scan/scan_engine.hpp"
#include "sim/kernel.hpp"

namespace keyguard::scan {

class CaptureStream;

/// The byte patterns whose disclosure compromises the key (paper §2:
/// "we call any appearance of any of them a copy of the private key").
struct KeyPatterns {
  struct Pattern {
    std::string name;              ///< "d", "P", "Q", "PEM"
    std::vector<std::byte> bytes;  ///< exact needle
    std::size_t key = 0;           ///< index of the key it belongs to
  };
  std::vector<Pattern> patterns;

  /// Needle views over `patterns`, in declaration order (the tie-break).
  std::vector<std::span<const std::byte>> needles() const;

  /// Builds the four needles from a key: limb images of d, P, Q and the
  /// PEM text of the whole key.
  static KeyPatterns from_key(const crypto::RsaPrivateKey& key);

  /// Needles for a multi-tenant key population: the same four per key,
  /// with `key` = i and named "d#i" / "P#i" / "Q#i" / "PEM#i" for display.
  /// Pass DISTINCT keys — duplicates would report every hit once per
  /// duplicate.
  static KeyPatterns from_keys(std::span<const crypto::RsaPrivateKey> keys);
};

/// The pids of a frame_mappings() list, in order, each once (a
/// process's mappings are adjacent in that list).
std::vector<sim::Pid> mapping_owners(std::span<const sim::Kernel::FrameMapping> mappings);

/// Provenance of the byte at `phys_offset` on a frame of class `state`
/// whose reverse map is `mappings`: the class name for non-user frames,
/// else what the first mapping's process keeps at that address ("RSA
/// bignum p (live)", "rsa_aligned mapping [mlocked]"), else "user
/// memory". The scanner's matches and the taint auditor's regions both
/// read it.
std::string describe_copy(const sim::Kernel& kernel, sim::FrameState state,
                          std::span<const sim::Kernel::FrameMapping> mappings,
                          std::size_t phys_offset);

/// A hit in simulated physical memory.
struct MemoryMatch {
  std::size_t phys_offset = 0;   ///< byte address in physical memory
  std::string part;              ///< which pattern matched
  sim::FrameNumber frame = 0;    ///< frame containing the first byte
  sim::FrameState state{};       ///< allocated class at scan time
  std::vector<sim::Pid> owners;  ///< live processes mapping the frame
  /// EVERY (pid, vaddr) mapping of the frame. One physical hit on a
  /// dedup-merged frame is one disclosure per mapping — a scan that
  /// reported the canonical owner alone would under-count the blast
  /// radius by share_count()-1 tenants. Unshared frames have one entry
  /// per owning pid (owners and mappings then carry the same pids).
  std::vector<sim::Kernel::FrameMapping> mappings;
  /// What this copy IS — "RSA bignum p (live)", "BN_MONT_CTX modulus copy
  /// (freed)", "rsa_aligned mapping [mlocked]", "page cache", "unallocated
  /// residue" — the paper's §3 explanation of why copies flood memory.
  std::string provenance;

  bool allocated() const noexcept { return state != sim::FrameState::kFree; }
  /// Mappings sharing the frame (>1 ⟺ COW- or dedup-shared at scan time).
  std::size_t share_count() const noexcept { return mappings.size(); }
};

/// A hit inside an attack capture buffer.
struct CaptureMatch {
  std::size_t offset = 0;
  std::string part;
};

/// A prefix match (the LKM's partial-match path: first word equal, then as
/// many following words as compare equal, reported when >= MIN words).
/// Partial matches arise when a key image straddles two physically
/// non-adjacent pages — the scan sees only the first fragment.
struct PartialMatch {
  std::size_t offset = 0;
  std::string part;
  std::size_t matched_bytes = 0;
  bool full = false;
};

/// A hit inside one process's virtual address space (core-dump view).
struct ProcessMatch {
  sim::VirtAddr vaddr = 0;
  std::string part;
};

/// Allocated/unallocated split of a scan (the paper's light/dark bars).
struct Census {
  std::size_t allocated = 0;
  std::size_t unallocated = 0;
  std::size_t total() const noexcept { return allocated + unallocated; }
};

/// Carry-over state for incremental sweeps: the previous sweep's raw byte
/// hits. Owned by the caller (one cache per scanned kernel); an empty or
/// size-mismatched cache makes the next sweep a full prime.
struct SweepCache {
  std::vector<RawMatch> raw;    ///< previous sweep, (offset, pattern)-sorted
  std::size_t phys_bytes = 0;   ///< memory size the cache was built against
  bool primed = false;

  void invalidate() noexcept {
    raw.clear();
    phys_bytes = 0;
    primed = false;
  }
};

class KeyScanner {
 public:
  /// Compiles the exact-mode matcher once; every sweep, capture and
  /// process scan reuses it. Copies share it (and the patterns it points
  /// into) read-only.
  explicit KeyScanner(KeyPatterns patterns);

  /// Builds the scanner for a key directly.
  explicit KeyScanner(const crypto::RsaPrivateKey& key)
      : KeyScanner(KeyPatterns::from_key(key)) {}

  /// Shard count for the parallel walk. 0 (the default) auto-sizes to the
  /// shared thread pool (workers + the calling thread); 1 forces the
  /// serial walk. Any count above 1 cuts the scan into frame-aligned
  /// pieces of at most 1 MiB (scan::plan_shards) that the whole pool
  /// claims, so the count sets piece edges, not the thread count. Results
  /// are byte-for-byte identical at every setting — only ScanStats differs.
  void set_shards(std::size_t shards) noexcept { shards_ = shards; }
  std::size_t shards() const noexcept { return shards_; }

  /// Full physical-memory scan with frame classification and reverse-map
  /// owner attribution (scanmemory's procfile_read). Matches are in
  /// ascending (phys_offset, pattern) order and equal a dense walk of all
  /// of RAM, but only the windows around the frames the memory marked
  /// written are read: every other byte is zero (DESIGN.md §8). `stats`,
  /// when non-null, receives shard/throughput metrics for the byte-scan
  /// portion: bytes_scanned is the RAM size, bytes_read the windows.
  std::vector<MemoryMatch> scan_kernel(const sim::Kernel& kernel,
                                       ScanStats* stats = nullptr) const;

  /// Incremental sweep: byte-identical to scan_kernel but the byte scan
  /// covers only the frames `journal` recorded dirty since the last sweep
  /// (each extended by a max_needle_len-1 seam window on the left and
  /// rescanned with the same window on the right), splicing fresh hits
  /// into `cache`. An unprimed or size-mismatched cache triggers a full
  /// priming sweep (scan_kernel's sparse sweep). Frame metadata (state, owners, provenance) is
  /// re-resolved for EVERY match each call — it can change without a byte
  /// changing (fork, exit, free). For incremental sweeps `stats` reports
  /// the delta cost: bytes_scanned is rescanned window bytes, shards are
  /// the rescan windows, incremental/dirty_frames are set, match_count is
  /// the full current total. Equivalence with a fresh scan_kernel is
  /// enforced by tests/scan_incremental_test.cpp; DESIGN.md §8 has the
  /// exactness argument.
  std::vector<MemoryMatch> scan_kernel_incremental(const sim::Kernel& kernel,
                                                   DirtyFrameJournal& journal,
                                                   SweepCache& cache,
                                                   ScanStats* stats = nullptr) const;

  /// Scan of a disclosed byte buffer (what the attacker greps on the USB
  /// stick / dump file).
  std::vector<CaptureMatch> scan_capture(std::span<const std::byte> capture,
                                         ScanStats* stats = nullptr) const;

  /// Number of distinct key copies in a capture (== matches; the paper
  /// counts every appearance).
  std::size_t count_copies(std::span<const std::byte> capture) const {
    return scan_capture(capture).size();
  }

  /// Prefix matching like the LKM: report every location where at least
  /// `min_bytes` of a pattern's prefix appears (the appendix code used
  /// MIN = 5 32-bit words = 20 bytes). Full matches are flagged.
  std::vector<PartialMatch> scan_capture_prefix(std::span<const std::byte> capture,
                                                std::size_t min_bytes = 20,
                                                ScanStats* stats = nullptr) const;

  /// Streaming variants: walk a CaptureStream window by window (seam
  /// overlap = max_needle_len - 1, the shard-seam rule) and return
  /// matches bit-identical to scan_capture / scan_capture_prefix over the
  /// whole file loaded at once — with O(window) resident memory instead
  /// of O(file). `stats` aggregates across windows: bytes_scanned and
  /// bytes_streamed both report the file size and `shards` lists one
  /// entry per window. Check stream.ok() afterwards — a mid-walk read
  /// error ends the walk early with partial results.
  std::vector<CaptureMatch> scan_capture_stream(CaptureStream& stream,
                                                ScanStats* stats = nullptr) const;
  std::vector<PartialMatch> scan_capture_prefix_stream(
      CaptureStream& stream, std::size_t min_bytes = 20,
      ScanStats* stats = nullptr) const;

  /// Scans one process's resident virtual address space — what a core dump
  /// or /proc/<pid>/mem disclosure of that process would reveal.
  std::vector<ProcessMatch> scan_process(const sim::Kernel& kernel,
                                         const sim::Process& process) const;

  static Census census(const std::vector<MemoryMatch>& matches);

  const KeyPatterns& patterns() const noexcept;

 private:
  /// shards_ resolved against the machine/env for an actual scan.
  std::size_t effective_shards() const;
  /// The raw hits of a full sweep: the engine over the windows around the
  /// frames kernel.memory() marked written.
  std::vector<RawMatch> sweep_raw(const sim::Kernel& kernel, ScanStats* stats) const;
  /// Layers frame state / owners / provenance onto raw engine hits.
  /// `frame_maps` holds the reverse map of each distinct hit frame, in
  /// ascending frame order (Kernel::frame_mappings over hit_frames(raw)).
  std::vector<MemoryMatch> resolve_raw(
      const sim::Kernel& kernel, std::span<const RawMatch> raw,
      std::vector<std::vector<sim::Kernel::FrameMapping>> frame_maps) const;
  /// Shared body of the two streaming scans: windowed walk, offsets
  /// rebased to file offsets, per-window stats aggregated.
  std::vector<RawMatch> stream_raw(CaptureStream& stream,
                                   std::size_t min_prefix_bytes,
                                   ScanStats* stats) const;

  /// The patterns and the exact matcher over their bytes, immutable and
  /// shared by every copy of the scanner: the matcher holds pointers into
  /// the patterns, so the two live and move together.
  struct Compiled;
  std::shared_ptr<const Compiled> compiled_;
  std::size_t shards_ = 0;  // 0 = auto
};

}  // namespace keyguard::scan
