// keylint2 driver: file IO, annotation binding, waivers.
//
// `Annotations` is the AllowOracle implementation — it binds
// `// keylint: allow(kind, ...)` comments to statements (any line of the
// statement, or the own-line comment run immediately above it), never to
// a fixed window of lines, which would silently attach an allow on one
// statement to an unrelated neighbour.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/checks.hpp"

namespace keyguard::lint {

/// Allow annotations of one file, bound by line.
class Annotations final : public AllowOracle {
 public:
  explicit Annotations(const TokenStream& ts);

  bool statement_allows(const Stmt& s, std::string_view kind) const override;
  bool function_allows(const Function& fn,
                       std::string_view kind) const override;

  /// allow(kind) on exactly this line (used by tests).
  bool line_allows(int line, std::string_view kind) const;

 private:
  struct Allow {
    int line = 0;
    bool own_line = false;
    std::vector<std::string> kinds;
  };
  bool run_above_allows(int first_line, std::string_view kind) const;
  const Allow* allow_on(int line) const;

  std::vector<Allow> allows_;      // sorted by line
  std::vector<bool> code_lines_;   // 1-based: line carries a code token
  std::vector<bool> comment_lines_;  // 1-based: line carries any comment
};

struct Waiver {
  std::string check;  // "KL101" or "*"
  std::string path;   // repo-relative path (suffix match at '/' boundary)
  std::string reason;
};

/// Parses a waiver file: one `CHECK path reason...` per line, `#` comments
/// and blank lines skipped. Missing file -> empty list (not an error).
std::vector<Waiver> load_waivers(const std::string& path);

/// Marks findings covered by a waiver (does not remove them — waived
/// findings still appear in the SARIF output, at level "none").
void apply_waivers(std::vector<Finding>& findings,
                   const std::vector<Waiver>& waivers);

struct AnalysisResult {
  std::vector<Finding> findings;
  std::vector<ComplianceSite> sites;
  std::size_t files_scanned = 0;
};

/// Lints one in-memory source (the fixture battery uses this directly).
/// `companion_header` is the text of the file's own header (x.hpp for
/// x.cpp), read only for its locked-memory declarations.
FileCheckResult analyze_source(const std::string& repo_rel_path,
                               std::string_view source,
                               std::string_view companion_header = {});

/// Lints files and directories (recursing into .cpp/.cc/.hpp/.h), in
/// sorted order for deterministic output. Each x.cpp is analyzed with its
/// x.hpp, when there is one, as companion header.
AnalysisResult analyze_paths(const std::vector<std::string>& paths);

}  // namespace keyguard::lint
