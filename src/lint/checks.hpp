// keylint2 check catalogue and per-file check driver.
//
//   KL101  secret allocation not scrubbed on EVERY exit path. A forward
//          dataflow pass over the CFG tracks each secret allocation per
//          path; early returns, branch joins and loop exits are checked
//          individually, so a scrub that covers only the happy path does
//          not pass. Secret allocations are secret-labelled sim allocations
//          and host-side owning copies of locked memory (below).
//   KL102  raw memset / raw heap_free funnel bypass (scope-aware: an allow
//          annotation binds to the statement, not a window of lines).
//   KL103  secret-to-sink flow: a value derived from a secret allocation
//          (or a span over locked memory) reaches a logging/JSON/trace/
//          printf sink through local assignments.
//   KL104  locked-memory audit: allocations of key-material pages (the
//          must-lock label set, SecureBuffer/SecureRsaKey funnels) must go
//          through an mlock-guaranteeing funnel; every audited site is
//          emitted into the machine-readable compliance report (the
//          KeepTower MEMORY_LOCKING_AUDIT idiom).
//
// Host-side secrets. The paper's rule is that nothing a key touches may
// reach unallocated memory uncleared; on the host the key lives in locked
// memory (a SecureBuffer, or a SecureRsaKey's image), so a local that
// copies it out is the allocation to watch. A declaration of an owning
// value — bn::Bignum, std::vector, std::string — initialized from a read
// of locked memory (`buf.data()` on a name declared SecureBuffer,
// `key.image()` on a SecureRsaKey, a bare `image()` inside a SecureRsaKey
// member) is a KL101 secret allocation and a KL103 taint source: it must
// be scrubbed, moved, or returned whole (`return x;`) on every exit path.
// A copy that is merely used in the returned expression (`return m2 + h *
// q;`) is not returned, and its storage goes back to the heap unscrubbed.
// A span, pointer or reference over locked memory owns nothing: it is a
// taint source only. The analysis is per file, so the names come from
// the file itself plus, for `x.cpp`, its companion `x.hpp`.
//
// Annotation grammar (bound to the statement, or to the function for
// `unscrubbed` — see analyzer.cpp):
//
//   // keylint: allow(raw-free|raw-memset|unscrubbed|sink-flow|unlocked[, ...]) — why
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/cfg.hpp"
#include "lint/parse.hpp"
#include "lint/token.hpp"

namespace keyguard::lint {

struct Finding {
  std::string check;  // "KL101".."KL104"
  std::string file;   // repo-relative path
  int line = 0;
  std::string message;
  bool waived = false;
  std::string waive_reason;
};

/// One audited allocation site in the locked-memory compliance report.
struct ComplianceSite {
  std::string file;
  int line = 0;
  std::string funnel;  // "mmap_anon" | "heap_alloc" | "SecureBuffer" | "SecureRsaKey"
  std::string label;   // allocation label when the funnel takes one
  bool locked = false;
  std::string status;  // "compliant" | "violation" | "allowed"
  std::string detail;
};

struct CheckInfo {
  const char* id;
  const char* summary;  // one line, shown by --list-checks and in SARIF rules
  const char* help;
};

const std::vector<CheckInfo>& check_catalogue();

/// Annotation oracle the checks consult (implemented over the comment
/// stream by analyzer.cpp).
class AllowOracle {
 public:
  virtual ~AllowOracle() = default;
  /// allow(kind) on any line of `s`, or on the own-line comment run
  /// immediately above its first line.
  virtual bool statement_allows(const Stmt& s, std::string_view kind) const = 0;
  /// allow(kind) above the signature; for "unscrubbed" also anywhere in the
  /// body (one annotation per deliberately-vulnerable function).
  virtual bool function_allows(const Function& fn,
                               std::string_view kind) const = 0;
};

/// True when a string literal labels an allocation as key material.
bool is_secret_label(std::string_view s);

/// Subset of secret labels that MUST live on mlocked pages (KL104).
bool is_must_lock_label(std::string_view s);

/// Names declared with a locked-memory type: `SecureBuffer` members,
/// locals and parameters, and `SecureRsaKey` ones.
struct LockedNames {
  std::set<std::string> buffers;
  std::set<std::string> keys;

  /// Adds the declarations in `ts`.
  void collect(const TokenStream& ts);
};

struct FileCheckResult {
  std::vector<Finding> findings;
  std::vector<ComplianceSite> sites;
};

/// Runs every check over one parsed file. Findings come back ordered by
/// line; waiving is applied later by the analyzer.
FileCheckResult run_checks(const std::string& repo_rel_path,
                           const TokenStream& ts,
                           const std::vector<Function>& fns,
                           const AllowOracle& allows,
                           const LockedNames& locked);

}  // namespace keyguard::lint
