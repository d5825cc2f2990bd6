// keyguard benchmark: one binary, four workloads.
//
//   perfbench --workload ssh_scp|sni_tenants|scan_audit|host_sign
//             --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--trace-dir DIR]
//
// Prints a self-description line, the workload's figures, and as its last
// line one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics for --trace 0, the per-layer metrics for --trace 1.
// Exits 1 when any correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.hpp"
#include "obs/build_info.hpp"
#include "scan/scan_engine.hpp"

namespace {

using namespace perfbench;

constexpr int kSchemaVersion = 1;

bool optimized_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return ndebug && (type == "Release" || type == "RelWithDebInfo");
}

void describe(const Options& opt) {
  std::printf(
      "DESCRIBE {\"schema_version\": %d, \"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"optimized\": %s, \"compiler\": \"%s\", \"simd_kind\": \"%s\", \"nproc\": %u, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      kSchemaVersion, opt.git_sha.c_str(), PERFBENCH_BUILD_TYPE,
      optimized_build() ? "true" : "false",
      keyguard::obs::build_info::compiler().c_str(),
      keyguard::scan::simd_kind_name(keyguard::scan::simd_available()),
      std::thread::hardware_concurrency(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  if (!optimized_build()) {
    std::printf("WARNING: unoptimized build (%s): figures are not comparable\n",
                PERFBENCH_BUILD_TYPE);
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ssh_scp|sni_tenants|scan_audit|host_sign --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--trace-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--git-sha") {
      opt.git_sha = v;
    } else if (flag == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  void (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "ssh_scp") run = run_ssh_scp;
  if (opt.workload == "sni_tenants") run = run_sni_tenants;
  if (opt.workload == "scan_audit") run = run_scan_audit;
  if (opt.workload == "host_sign") run = run_host_sign;
  if (run == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());

  describe(opt);
  Report report(opt.trace);
  run(opt, report);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const double fail_frac = report.attempted() == 0
                               ? 1.0
                               : static_cast<double>(report.failed()) /
                                     static_cast<double>(report.attempted());
  report.show("fail_frac", fail_frac, "ratio");
  report.check(report.attempted() > 0, "at least one operation attempted");
  report.check(report.failed() == 0, "fail_frac is 0");
  std::printf("trials: %llu rounds\n", static_cast<unsigned long long>(report.trials()));
  std::printf("%s\n", report.result_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
