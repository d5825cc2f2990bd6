// Output backends for keylint2: human-readable text (`path:line: KLxxx
// message`, the compiler-diagnostic shape editors and grep understand),
// SARIF 2.1.0 for CI code-scanning upload, and the
// locked-memory compliance report (the KeepTower MEMORY_LOCKING_AUDIT
// idiom: one machine-readable JSON document per release enumerating every
// audited key-material allocation site and its mlock status).
#pragma once

#include <string>
#include <vector>

#include "lint/checks.hpp"

namespace keyguard::lint {

/// `path:line: KLxxx message` lines, waived findings annotated, followed by
/// a one-line summary.
std::string render_text(const std::vector<Finding>& findings);

/// SARIF 2.1.0 document: one run, one rule per catalogue entry, one result
/// per finding (waived findings get kind "informational"/level "none").
std::string render_sarif(const std::vector<Finding>& findings);

/// Locked-memory compliance report over every audited allocation site.
std::string render_compliance(const std::vector<ComplianceSite>& sites);

}  // namespace keyguard::lint
