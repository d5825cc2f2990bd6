#include "lint/analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

namespace keyguard::lint {
namespace {

namespace fs = std::filesystem;

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return std::string(s.substr(b, e - b));
}

// Parses "keylint: allow(kind1, kind2) — reason" out of a comment body.
// Returns the kinds, or empty when the comment is not an allow annotation.
std::vector<std::string> parse_allow(std::string_view comment) {
  const auto key = comment.find("keylint:");
  if (key == std::string_view::npos) return {};
  const auto allow = comment.find("allow(", key);
  if (allow == std::string_view::npos) return {};
  const auto open = allow + 6;
  const auto close = comment.find(')', open);
  if (close == std::string_view::npos) return {};
  std::vector<std::string> kinds;
  std::size_t start = open;
  for (std::size_t i = open; i <= close; ++i) {
    if (i == close || comment[i] == ',') {
      std::string kind = trim(comment.substr(start, i - start));
      if (!kind.empty()) kinds.push_back(std::move(kind));
      start = i + 1;
    }
  }
  return kinds;
}

bool has_kind(const std::vector<std::string>& kinds, std::string_view kind) {
  for (const auto& k : kinds) {
    if (k == kind) return true;
  }
  return false;
}

bool is_source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

std::string normalize(std::string p) {
  if (p.rfind("./", 0) == 0) p.erase(0, 2);
  return p;
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool path_suffix_match(std::string_view path, std::string_view entry) {
  if (path == entry) return true;
  return path.size() > entry.size() &&
         path.compare(path.size() - entry.size(), entry.size(), entry) == 0 &&
         path[path.size() - entry.size() - 1] == '/';
}

}  // namespace

Annotations::Annotations(const TokenStream& ts) {
  code_lines_.assign(static_cast<std::size_t>(ts.last_line) + 2, false);
  comment_lines_.assign(static_cast<std::size_t>(ts.last_line) + 2, false);
  for (const Token& t : ts.tokens) {
    if (t.line >= 1 && t.line <= ts.last_line) {
      code_lines_[static_cast<std::size_t>(t.line)] = true;
    }
  }
  for (const Comment& c : ts.comments) {
    if (c.line >= 1 && c.line <= ts.last_line) {
      comment_lines_[static_cast<std::size_t>(c.line)] = true;
    }
    auto kinds = parse_allow(c.text);
    if (!kinds.empty()) {
      allows_.push_back(Allow{c.line, c.own_line, std::move(kinds)});
    }
  }
  std::sort(allows_.begin(), allows_.end(),
            [](const Allow& a, const Allow& b) { return a.line < b.line; });
}

const Annotations::Allow* Annotations::allow_on(int line) const {
  for (const Allow& a : allows_) {
    if (a.line == line) return &a;
    if (a.line > line) break;
  }
  return nullptr;
}

bool Annotations::line_allows(int line, std::string_view kind) const {
  const Allow* a = allow_on(line);
  return a != nullptr && has_kind(a->kinds, kind);
}

// Walks upward from the line above `first_line` through the contiguous run
// of own-line comments and blank lines; stops at the first code line. This
// is what binds `// keylint: allow(...)` written above a statement to that
// statement and nothing else.
bool Annotations::run_above_allows(int first_line,
                                   std::string_view kind) const {
  for (int line = first_line - 1; line >= 1; --line) {
    const auto li = static_cast<std::size_t>(line);
    if (li < code_lines_.size() && code_lines_[li]) return false;
    const Allow* a = allow_on(line);
    if (a != nullptr && a->own_line && has_kind(a->kinds, kind)) return true;
    const bool blank_or_comment =
        li < comment_lines_.size() &&
        (comment_lines_[li] || !code_lines_[li]);
    if (!blank_or_comment) return false;
  }
  return false;
}

bool Annotations::statement_allows(const Stmt& s,
                                   std::string_view kind) const {
  for (int line = s.first_line; line <= s.last_line; ++line) {
    if (line_allows(line, kind)) return true;
  }
  return run_above_allows(s.first_line, kind);
}

bool Annotations::function_allows(const Function& fn,
                                  std::string_view kind) const {
  if (run_above_allows(fn.signature_line, kind)) return true;
  if (kind == "unscrubbed") {
    // A body-wide allow(unscrubbed) covers the whole function: the
    // deliberately-vulnerable paths annotate once, where the reason is
    // clearest, rather than at every allocation.
    for (const Allow& a : allows_) {
      if (a.line >= fn.signature_line && a.line <= fn.last_line &&
          has_kind(a.kinds, kind)) {
        return true;
      }
    }
  }
  return false;
}

std::vector<Waiver> load_waivers(const std::string& path) {
  std::vector<Waiver> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string s = trim(line);
    if (s.empty() || s[0] == '#') continue;
    std::istringstream fields(s);
    Waiver w;
    fields >> w.check >> w.path;
    std::getline(fields, w.reason);
    w.reason = trim(w.reason);
    if (w.reason.empty()) w.reason = "waived (no reason recorded)";
    if (!w.check.empty() && !w.path.empty()) out.push_back(std::move(w));
  }
  return out;
}

void apply_waivers(std::vector<Finding>& findings,
                   const std::vector<Waiver>& waivers) {
  for (Finding& f : findings) {
    for (const Waiver& w : waivers) {
      if ((w.check == "*" || w.check == f.check) &&
          path_suffix_match(f.file, w.path)) {
        f.waived = true;
        f.waive_reason = w.reason;
        break;
      }
    }
  }
}

FileCheckResult analyze_source(const std::string& repo_rel_path,
                               std::string_view source,
                               std::string_view companion_header) {
  const TokenStream ts = tokenize(source);
  const std::vector<Function> fns = parse_functions(ts);
  const Annotations allows(ts);
  LockedNames locked;
  locked.collect(ts);
  if (!companion_header.empty()) locked.collect(tokenize(companion_header));
  return run_checks(repo_rel_path, ts, fns, allows, locked);
}

AnalysisResult analyze_paths(const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file(ec) && is_source_file(it->path())) {
          files.push_back(normalize(it->path().generic_string()));
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(normalize(p));
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  AnalysisResult res;
  for (const std::string& file : files) {
    const auto source = slurp(file);
    if (!source) continue;
    const fs::path path(file);
    const std::string header =
        path.extension() == ".cpp"
            ? slurp(fs::path(path).replace_extension(".hpp").string())
                  .value_or(std::string{})
            : std::string{};
    FileCheckResult fr = analyze_source(file, *source, header);
    res.findings.insert(res.findings.end(),
                        std::make_move_iterator(fr.findings.begin()),
                        std::make_move_iterator(fr.findings.end()));
    res.sites.insert(res.sites.end(),
                     std::make_move_iterator(fr.sites.begin()),
                     std::make_move_iterator(fr.sites.end()));
    ++res.files_scanned;
  }
  return res;
}

}  // namespace keyguard::lint
