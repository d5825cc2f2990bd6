// keylint2 — secret-flow static analyzer for the keyguard tree.
//
//   keylint2 [paths...] [--sarif FILE] [--compliance FILE]
//            [--waivers FILE] [--list-checks]
//
// Text findings go to stdout as `path:line: KLxxx message`. Exit codes:
// 0 clean (or everything waived), 1 unwaived findings, 2 usage.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/report.hpp"

namespace {

int usage() {
  std::cerr << "usage: keylint2 <file-or-dir>... [--sarif FILE] "
               "[--compliance FILE] [--waivers FILE] [--list-checks]\n";
  return 2;
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "keylint2: cannot write " << path << "\n";
    return false;
  }
  out << body << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string sarif_path, compliance_path, waivers_path;
  bool list_checks = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--sarif") {
      const char* v = next();
      if (v == nullptr) return usage();
      sarif_path = v;
    } else if (arg == "--compliance") {
      const char* v = next();
      if (v == nullptr) return usage();
      compliance_path = v;
    } else if (arg == "--waivers") {
      const char* v = next();
      if (v == nullptr) return usage();
      waivers_path = v;
    } else if (arg == "--list-checks") {
      list_checks = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }

  if (list_checks) {
    for (const auto& c : keyguard::lint::check_catalogue()) {
      std::cout << c.id << "  " << c.summary << "\n        " << c.help
                << "\n";
    }
    return 0;
  }
  if (paths.empty()) return usage();

  keyguard::lint::AnalysisResult res = keyguard::lint::analyze_paths(paths);
  if (res.files_scanned == 0) {
    std::cerr << "keylint2: no source files under the given paths\n";
    return 2;
  }
  if (!waivers_path.empty()) {
    keyguard::lint::apply_waivers(res.findings,
                                  keyguard::lint::load_waivers(waivers_path));
  }

  std::cout << keyguard::lint::render_text(res.findings);

  if (!sarif_path.empty() &&
      !write_file(sarif_path, keyguard::lint::render_sarif(res.findings))) {
    return 2;
  }
  if (!compliance_path.empty() &&
      !write_file(compliance_path,
                  keyguard::lint::render_compliance(res.sites))) {
    return 2;
  }

  for (const auto& f : res.findings) {
    if (!f.waived) return 1;
  }
  return 0;
}
