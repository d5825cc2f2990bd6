// scanmemory as a standalone tool (the paper's Appendix 8.1 LKM).
//
// Boots a simulated machine, runs a configurable mixed workload, then
// prints every key-copy hit the way the LKM wrote to /proc/sshmem:
// location, matched part, page frame, frame class, owning pids.
//
// Usage:
//   ./scanmemory_tool [--server ssh|apache|sni]
//                                             workload to run (default ssh);
//                                             sni boots the multi-tenant SNI
//                                             frontend instead of a single-key
//                                             server and scans for EVERY
//                                             vhost key
//                     [--backend mlocked|encrypted]
//                                             keystore pool discipline for
//                                             --server sni: the N-page mlocked
//                                             pool or the encrypted-at-rest
//                                             pool with a W-page working set
//                                             (default mlocked)
//                     [--connections N]       connections/requests (default 16)
//                     [--level none|application|library|kernel|integrated]
//                                             protection profile (default none)
//                     [--threads N]           scan shard count; 1 reproduces the
//                                             LKM's serial walk, 0 = auto
//                     [--capture-file FILE]   stream-scan a disclosure dump
//                                             (cold-boot image, hibernation
//                                             file, exploit capture) for the
//                                             scenario key patterns instead of
//                                             scanning the simulated machine:
//                                             the file is walked in bounded
//                                             windows with seam overlap, so
//                                             multi-GB captures scan in
//                                             O(window) resident memory. The
//                                             workload flags --incremental /
//                                             --taint / --dedup / --alerts do
//                                             not apply and are rejected
//                     [--window-mb N]         streaming window size in MiB for
//                                             --capture-file (default 64)
//                     [--incremental]         attach a DirtyFrameJournal before
//                                             the workload, prime a sweep
//                                             cache after the main traffic,
//                                             run a follow-up burst, and
//                                             report the DELTA sweep (only
//                                             dirty frames are rescanned);
//                                             the scan stats carry the
//                                             incremental flag and the
//                                             dirty-frame count
//                     [--dedup]               run one KSM-like page-merging
//                                             pass (sim::DedupEngine) between
//                                             the workload and the scan; the
//                                             report gains a "dedup" object
//                                             (pages merged, savings, vetoes)
//                                             and merged frames show every
//                                             (pid, vaddr) mapping. With
//                                             --taint the engine gets the
//                                             shadow map as its secret
//                                             predicate, so canonical frames
//                                             keep exact taint
//                     [--taint]               attach a shadow-taint map before
//                                             the workload and append the
//                                             residue audit the LKM could never
//                                             produce: every surviving
//                                             key-derived byte (not just
//                                             full-needle matches) with
//                                             provenance, plus the scanner/taint
//                                             cross-check
//                     [--json [FILE]]         machine-readable results
//                                             (schema_version 2 envelope with
//                                             build info; matches, census, scan
//                                             stats incl. MB/s, the taint report
//                                             when --taint is given, metrics
//                                             when --metrics is given) to FILE,
//                                             or stdout when the value is
//                                             omitted/empty; replaces the text
//                                             report
//                     [--metrics [FILE]]      enable the MetricsRegistry for the
//                                             run; the snapshot is embedded in
//                                             the --json report and, when FILE
//                                             is given, also written there as a
//                                             standalone report
//                     [--trace [FILE]]        enable the Tracer and write span/
//                                             event JSONL to FILE (default
//                                             scanmemory_trace.jsonl) for
//                                             tools/trace2timeline.py; a .json
//                                             extension writes the
//                                             chrome://tracing document instead
//                     [--alerts [RULES.json]] attach the real-time AlertEngine
//                                             (event bus + shadow taint map are
//                                             enabled implicitly): rules come
//                                             from the JSON file, or the
//                                             default anomaly set when the
//                                             value is omitted; alerts print to
//                                             stderr as they fire
//                     [--flight-record DIR]   run a FlightRecorder alongside
//                                             --alerts: alerts append to
//                                             DIR/alerts.jsonl and the forensic
//                                             bundle (frozen at the first
//                                             critical alert, else the
//                                             shutdown state) is written to
//                                             DIR/bundle.json
//                     [--version]             print the build-info line and exit
//                     [--help]                print this usage block and exit
//
// Unknown flags are an error: usage goes to stderr and the exit code is 2.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "core/protection.hpp"
#include "core/scenario.hpp"
#include "obs/alert.hpp"
#include "obs/build_info.hpp"
#include "obs/event_bus.hpp"
#include "obs/exposure_monitor.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "scan/capture_stream.hpp"
#include "scan/dirty_journal.hpp"
#include "sim/dedup.hpp"
#include "servers/apache_server.hpp"
#include "servers/sni_frontend.hpp"
#include "servers/ssh_server.hpp"
#include "sim/taint.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

using namespace keyguard;

namespace {

constexpr std::array<std::string_view, 17> kKnownFlags = {
    "server",  "backend", "connections", "level",   "threads",
    "capture-file", "window-mb", "incremental", "taint", "dedup", "json",
    "metrics", "trace",   "alerts",  "flight-record", "version", "help"};

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: scanmemory_tool [--server ssh|apache|sni] [--connections N]\n"
      "                       [--backend mlocked|encrypted]\n"
      "                       [--level none|application|library|kernel|integrated]\n"
      "                       [--threads N]\n"
      "                       [--capture-file FILE] [--window-mb N]\n"
      "                       [--incremental] [--taint] [--dedup]\n"
      "                       [--json [FILE]] [--metrics [FILE]] [--trace [FILE]]\n"
      "                       [--alerts [RULES.json]] [--flight-record DIR]\n"
      "                       [--version] [--help]\n"
      "\n"
      "Boots a simulated machine, runs the workload, and scans physical\n"
      "memory for key copies the way the paper's scanmemory LKM did.\n"
      "  --backend      --server sni pool discipline: mlocked N-page pool or\n"
      "                 the encrypted-at-rest pool (W-page working set)\n"
      "  --capture-file stream-scan a disclosure dump for the scenario key\n"
      "                 patterns in bounded windows (multi-GB safe); the\n"
      "                 workload flags do not apply\n"
      "  --window-mb    streaming window size in MiB (default 64)\n"
      "  --incremental  prime a sweep cache, run follow-up traffic, report\n"
      "                 the delta sweep (dirty frames only)\n"
      "  --taint    shadow-taint residue audit + scanner cross-check\n"
      "  --dedup    one page-merging pass before the scan; merged frames\n"
      "             report every (pid, vaddr) mapping they stand for\n"
      "  --json     machine-readable report (schema_version %lld envelope)\n"
      "  --metrics  MetricsRegistry snapshot (embedded in --json output)\n"
      "  --trace    span/event JSONL for tools/trace2timeline.py\n"
      "  --alerts   real-time AlertEngine over the event bus; rules from the\n"
      "             JSON file or the default anomaly set when omitted\n"
      "  --flight-record  FlightRecorder ring + DIR/alerts.jsonl +\n"
      "             DIR/bundle.json forensic bundle (needs --alerts)\n"
      "  --version  build-info line (compiler, sanitizer) and exit\n",
      static_cast<long long>(obs::kSchemaVersion));
}

/// Needle length for a match, looked up in the ACTIVE pattern set (the
/// multi-key sni scan names parts "d#3"/"P#3"/..., so the old
/// scenario-key lookup would not resolve them).
std::size_t part_bytes(const scan::KeyPatterns& patterns, const std::string& part) {
  for (const auto& p : patterns.patterns) {
    if (p.name == part) return p.bytes.size();
  }
  return 0;
}

void print_text(const scan::KeyPatterns& patterns,
                const std::vector<scan::MemoryMatch>& matches,
                const scan::ScanStats& stats, const sim::PhysicalMemory& memory) {
  std::printf("Request recieved\n");  // the LKM's greeting, typo and all
  for (const auto& m : matches) {
    std::printf(
        "Full match found for %s of size %zu bytes at: %09zu, in page: %06u, "
        "state: %s, processes:",
        m.part.c_str(), part_bytes(patterns, m.part), m.phys_offset, m.frame,
        sim::frame_state_name(m.state));
    if (m.owners.empty()) {
      std::printf(" %s", m.allocated() ? "0" : "none");  // 0 == kernel
    } else {
      for (const auto pid : m.owners) std::printf(" %u", pid);
    }
    if (m.share_count() > 1) {
      std::printf(" [shared x%zu]", m.share_count());
    }
    std::printf("  <- %s\n", m.provenance.c_str());
  }
  const auto census = scan::KeyScanner::census(matches);
  std::printf("\n%zu matches total: %zu allocated, %zu unallocated\n",
              census.total(), census.allocated, census.unallocated);
  std::printf("scan: %s\n", stats.summary().c_str());
  // Simulated RAM is committed lazily: only written frames cost memory.
  std::printf("memory: %zu of %zu frames written (%.2f of %.1f MB resident at most)\n",
              memory.written_frames(), memory.page_count(),
              static_cast<double>(memory.written_frames() * sim::kPageSize) / (1 << 20),
              static_cast<double>(memory.size_bytes()) / (1 << 20));
}

void write_json(util::JsonWriter& w, const scan::KeyPatterns& patterns,
                const std::string& which, const std::string& backend,
                int connections, const std::string& level_name,
                const std::vector<scan::MemoryMatch>& matches,
                const scan::ScanStats& stats, const sim::PhysicalMemory& memory,
                const analysis::AuditReport* report,
                const analysis::CrossCheck* cross,
                const sim::DedupEngine* dedup, bool metrics) {
  obs::begin_report(w, "scanmemory");
  w.field("server", which)
      .field("backend", backend)
      .field("connections", static_cast<std::int64_t>(connections))
      .field("level", level_name);

  w.key("matches").begin_array();
  for (const auto& m : matches) {
    w.begin_object()
        .field("part", m.part)
        .field("bytes", static_cast<std::uint64_t>(part_bytes(patterns, m.part)))
        .field("phys_offset", static_cast<std::uint64_t>(m.phys_offset))
        .field("frame", static_cast<std::uint64_t>(m.frame))
        .field("state", sim::frame_state_name(m.state))
        .field("provenance", m.provenance);
    w.key("owners").begin_array();
    for (const auto pid : m.owners) w.value(static_cast<std::uint64_t>(pid));
    w.end_array();
    // One physical hit, share_count disclosures: every mapping of the
    // frame (COW- or dedup-shared) sees these bytes.
    w.field("share_count", static_cast<std::uint64_t>(m.share_count()));
    w.key("mappings").begin_array();
    for (const auto& mp : m.mappings) {
      w.begin_object()
          .field("pid", static_cast<std::uint64_t>(mp.pid))
          .field("vaddr", static_cast<std::uint64_t>(mp.vaddr))
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();

  const auto census = scan::KeyScanner::census(matches);
  w.key("census")
      .begin_object()
      .field("copies", static_cast<std::uint64_t>(census.total()))
      .field("allocated", static_cast<std::uint64_t>(census.allocated))
      .field("unallocated", static_cast<std::uint64_t>(census.unallocated))
      .end_object();

  w.key("scan");
  stats.write_json(w);
  w.key("memory")
      .begin_object()
      .field("frames", static_cast<std::uint64_t>(memory.page_count()))
      .field("written_frames", static_cast<std::uint64_t>(memory.written_frames()))
      .end_object();

  if (report) {
    w.key("taint").begin_object();
    const auto totals = [&w](const char* name, const analysis::LocationTotals& t) {
      w.key(name)
          .begin_object()
          .field("allocated", static_cast<std::uint64_t>(t.allocated))
          .field("mlocked", static_cast<std::uint64_t>(t.mlocked))
          .field("unallocated", static_cast<std::uint64_t>(t.unallocated))
          .field("page_cache", static_cast<std::uint64_t>(t.page_cache))
          .field("kernel", static_cast<std::uint64_t>(t.kernel))
          .field("swap", static_cast<std::uint64_t>(t.swap))
          .field("total", static_cast<std::uint64_t>(t.total()))
          .end_object();
    };
    totals("secret_bytes", report->secret);
    totals("sealed_bytes", report->sealed);
    w.field("regions", static_cast<std::uint64_t>(report->regions.size()))
        .field("tainted_frames", static_cast<std::uint64_t>(report->tainted_frames))
        .field("secret_tainted_frames",
               static_cast<std::uint64_t>(report->secret_tainted_frames))
        .field("secret_mlocked_frames",
               static_cast<std::uint64_t>(report->secret_mlocked_frames))
        .field("master_key_frames",
               static_cast<std::uint64_t>(report->master_key_frames))
        .field("single_locked_page_only", report->single_locked_page_only());
    w.key("cross_check")
        .begin_object()
        .field("scanner_hits", static_cast<std::uint64_t>(cross->scanner_hits))
        .field("covered_hits", static_cast<std::uint64_t>(cross->covered_hits))
        .field("needle_visible_bytes",
               static_cast<std::uint64_t>(cross->needle_visible_bytes))
        .field("taint_only_bytes",
               static_cast<std::uint64_t>(cross->taint_only_bytes))
        .field("all_hits_covered", cross->all_hits_covered())
        .end_object();
    w.end_object();
  }

  if (dedup) {
    const auto& ds = dedup->stats();
    w.key("dedup")
        .begin_object()
        .field("scans", ds.scans)
        .field("pages_considered", ds.pages_considered)
        .field("pages_merged", ds.pages_merged)
        .field("bytes_saved", ds.bytes_saved)
        .field("vetoed_secret", ds.vetoed_secret)
        .field("hash_collisions", ds.hash_collisions)
        .field("unmerges", ds.unmerges)
        .field("shared_frames", static_cast<std::uint64_t>(dedup->shared_frame_count()))
        .field("saved_pages", static_cast<std::uint64_t>(dedup->saved_pages()))
        .field("no_merge_secret", dedup->config().no_merge_secret)
        .end_object();
  }

  if (metrics) {
    obs::write_metrics_field(w, obs::MetricsRegistry::global());
  }
  w.end_object();
}

bool write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  if (text.empty() || text.back() != '\n') std::fputc('\n', f);
  std::fclose(f);
  std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const auto unknown = flags.first_unknown(kKnownFlags)) {
    std::fprintf(stderr, "scanmemory_tool: unknown flag --%s\n\n",
                 unknown->c_str());
    print_usage(stderr);
    return 2;
  }
  if (flags.has("help")) {
    print_usage(stdout);
    return 0;
  }
  if (flags.has("version")) {
    std::printf("%s\n", obs::build_info::one_line().c_str());
    return 0;
  }

  const std::string which = flags.get("server", "ssh");
  if (which != "ssh" && which != "apache" && which != "sni") {
    std::fprintf(stderr, "scanmemory_tool: bad --server value '%s'\n\n",
                 which.c_str());
    print_usage(stderr);
    return 2;
  }
  const std::string backend_name = flags.get("backend", "mlocked");
  if (backend_name != "mlocked" && backend_name != "encrypted") {
    std::fprintf(stderr, "scanmemory_tool: bad --backend value '%s'\n\n",
                 backend_name.c_str());
    print_usage(stderr);
    return 2;
  }
  const int connections = static_cast<int>(flags.get_int("connections", 16));
  const std::string level_name = flags.get("level", "none");
  const auto threads = flags.get_int("threads", 0);  // 0 = auto
  const std::string capture_path = flags.get("capture-file", "");
  const auto window_mb = flags.get_int("window-mb", 64);
  if (window_mb <= 0) {
    std::fprintf(stderr, "scanmemory_tool: bad --window-mb value\n\n");
    print_usage(stderr);
    return 2;
  }
  const bool incremental = flags.has("incremental");
  if (!capture_path.empty() &&
      (incremental || flags.has("taint") || flags.has("dedup") ||
       flags.has("alerts"))) {
    std::fprintf(stderr,
                 "scanmemory_tool: --capture-file scans a dump, not the live "
                 "machine; --incremental/--taint/--dedup/--alerts do not "
                 "apply\n\n");
    print_usage(stderr);
    return 2;
  }
  const bool json = flags.has("json");
  std::string json_path = json ? flags.get("json", "") : "";
  if (json_path == "1") json_path.clear();  // bare --json means stdout

  const bool metrics = flags.has("metrics");
  std::string metrics_path = metrics ? flags.get("metrics", "") : "";
  if (metrics_path == "1") metrics_path.clear();
  const bool trace = flags.has("trace");
  std::string trace_path = trace ? flags.get("trace", "") : "";
  if (trace_path == "1" || trace_path.empty()) {
    trace_path = "scanmemory_trace.jsonl";
  }
  if (metrics) obs::MetricsRegistry::global().set_enabled(true);
  if (trace) obs::Tracer::global().set_enabled(true);

  const bool alerts_on = flags.has("alerts");
  std::string rules_path = alerts_on ? flags.get("alerts", "") : "";
  if (rules_path == "1") rules_path.clear();  // bare --alerts = default rules
  const bool flight = flags.has("flight-record");
  std::string flight_dir = flight ? flags.get("flight-record", "") : "";
  if (flight_dir == "1" || flight_dir.empty()) flight_dir = "flight_record";
  if (flight && !alerts_on) {
    std::fprintf(stderr, "scanmemory_tool: --flight-record needs --alerts\n\n");
    print_usage(stderr);
    return 2;
  }
  std::vector<obs::AlertRule> rules;
  if (alerts_on) {
    if (rules_path.empty()) {
      rules = obs::default_rules();
    } else {
      std::ifstream in(rules_path);
      if (!in.good()) {
        std::fprintf(stderr, "scanmemory_tool: cannot read %s\n",
                     rules_path.c_str());
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      std::string error;
      auto parsed = obs::rules_from_json(text.str(), &error);
      if (!parsed) {
        std::fprintf(stderr, "scanmemory_tool: %s: %s\n", rules_path.c_str(),
                     error.c_str());
        return 1;
      }
      rules = std::move(*parsed);
    }
  }

  core::ProtectionLevel level = core::ProtectionLevel::kNone;
  for (const auto l : core::kAllProtectionLevels) {
    if (core::protection_name(l) == level_name) level = l;
  }

  core::ScenarioConfig cfg;
  cfg.level = level;
  cfg.mem_bytes = 64ull << 20;
  cfg.seed = 260;
  core::Scenario s(cfg);

  // The sni workload's key set (and so its pattern set) must exist before
  // the trackers attach: the AlertEngine's ExposureMonitor derives its
  // needles from the keys the scan will look for.
  std::vector<crypto::RsaPrivateKey> sni_distinct;
  std::vector<crypto::RsaPrivateKey> sni_vhosts;
  std::unique_ptr<scan::KeyScanner> sni_scanner;
  if (which == "sni") {
    util::Rng keygen(cfg.seed + 7);
    for (int i = 0; i < 6; ++i) {
      sni_distinct.push_back(crypto::generate_rsa_key(keygen, 512));
    }
    for (int i = 0; i < 12; ++i) {
      sni_vhosts.push_back(sni_distinct[i % sni_distinct.size()]);
    }
    sni_scanner = std::make_unique<scan::KeyScanner>(
        scan::KeyPatterns::from_keys(sni_distinct));
  }

  // --capture-file: the machine above only supplied the (deterministic)
  // key patterns; the bytes scanned come from the dump, streamed in
  // bounded windows so a capture far larger than RAM never loads whole.
  if (!capture_path.empty()) {
    scan::KeyScanner& scanner = sni_scanner ? *sni_scanner : s.scanner();
    if (threads > 0) scanner.set_shards(static_cast<std::size_t>(threads));
    scan::CaptureStream stream(
        capture_path, static_cast<std::size_t>(window_mb) * 1024 * 1024);
    if (!stream.ok()) {
      std::fprintf(stderr, "scanmemory_tool: %s\n", stream.error().c_str());
      return 1;
    }
    scan::ScanStats stats;
    const auto matches = scanner.scan_capture_stream(stream, &stats);
    if (!stream.ok()) {
      std::fprintf(stderr, "scanmemory_tool: %s\n", stream.error().c_str());
      return 1;
    }
    if (json) {
      util::JsonWriter w;
      obs::begin_report(w, "scanmemory.capture");
      w.field("capture_file", capture_path)
          .field("server", which)
          .field("window_bytes",
                 static_cast<std::uint64_t>(stream.window_bytes()))
          .field("mapped", stream.mapped());
      w.key("matches").begin_array();
      for (const auto& m : matches) {
        w.begin_object()
            .field("part", m.part)
            .field("bytes", static_cast<std::uint64_t>(
                                part_bytes(scanner.patterns(), m.part)))
            .field("offset", static_cast<std::uint64_t>(m.offset))
            .end_object();
      }
      w.end_array();
      w.key("scan");
      stats.write_json(w);
      if (metrics) obs::write_metrics_field(w, obs::MetricsRegistry::global());
      w.end_object();
      if (json_path.empty()) {
        std::printf("%s\n", w.str().c_str());
      } else if (!write_text_file(json_path, w.str(), "JSON")) {
        return 1;
      }
    } else {
      std::printf("%s\n", obs::build_info::one_line().c_str());
      std::printf("Request recieved\n");  // the LKM's greeting, typo and all
      for (const auto& m : matches) {
        std::printf("Full match found for %s of size %zu bytes at: %09zu\n",
                    m.part.c_str(), part_bytes(scanner.patterns(), m.part),
                    m.offset);
      }
      std::printf("\n%zu matches total in %zu-byte capture (%s)\n",
                  matches.size(), stream.size(),
                  stream.mapped() ? "mmap" : "read");
      std::printf("scan: %s\n", stats.summary().c_str());
    }
    return 0;
  }

  // Trackers must observe the whole workload, so attach them first. A
  // fanout multiplexes the kernel's single hook slot; add() order matters
  // for --alerts: the shadow map and the monitor must have absorbed an
  // event before the engine evaluates rules against them.
  std::unique_ptr<analysis::ShadowTaintMap> taint_map;
  std::unique_ptr<scan::DirtyFrameJournal> journal;
  std::unique_ptr<obs::ExposureMonitor> monitor;
  std::unique_ptr<obs::AlertEngine> engine;
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::JsonlAlertSink> jsonl_sink;
  std::unique_ptr<obs::MetricsAlertSink> metrics_sink;
  obs::StderrAlertSink stderr_sink;
  sim::TaintFanout fanout;
  if (flags.has("taint") || alerts_on) {
    taint_map = std::make_unique<analysis::ShadowTaintMap>(s.kernel());
    fanout.add(taint_map.get());
  }
  if (incremental) {
    journal = std::make_unique<scan::DirtyFrameJournal>(cfg.mem_bytes);
    fanout.add(journal.get());
  }
  if (alerts_on) {
    monitor = std::make_unique<obs::ExposureMonitor>(
        s.kernel().memory(),
        sni_scanner ? sni_scanner->patterns() : s.scanner().patterns());
    fanout.add(monitor.get());
    engine = std::make_unique<obs::AlertEngine>(s.kernel(), *taint_map,
                                                monitor.get());
    for (const auto& r : rules) engine->add_rule(r);
    engine->add_sink(&stderr_sink);
    if (metrics) {
      metrics_sink = std::make_unique<obs::MetricsAlertSink>(
          obs::MetricsRegistry::global());
      engine->add_sink(metrics_sink.get());
    }
    if (flight) {
      std::error_code ec;
      std::filesystem::create_directories(flight_dir, ec);
      if (ec) {
        std::fprintf(stderr, "scanmemory_tool: cannot create %s: %s\n",
                     flight_dir.c_str(), ec.message().c_str());
        return 1;
      }
      jsonl_sink =
          std::make_unique<obs::JsonlAlertSink>(flight_dir + "/alerts.jsonl");
      engine->add_sink(jsonl_sink.get());
      recorder = std::make_unique<obs::FlightRecorder>(&s.kernel(), taint_map.get(),
                                                       monitor.get());
      // Recorder subscribes first so the breaching event reaches the
      // ring before the engine's alert freezes it.
      obs::EventBus::global().subscribe(recorder.get());
      engine->add_sink(recorder.get());
    }
    obs::EventBus::global().subscribe(engine.get());
    obs::EventBus::global().set_enabled(true);
    fanout.add(engine.get());
  }
  if (fanout.size() > 0) s.kernel().attach_taint(&fanout);

  // Keep the server alive across the scan so --incremental can push a
  // follow-up burst between the priming sweep and the delta sweep.
  std::unique_ptr<servers::ApacheServer> apache;
  std::unique_ptr<servers::SshServer> ssh;
  std::unique_ptr<servers::SniFrontend> sni;
  const auto run_traffic = [&](int n) {
    if (apache) {
      for (int i = 0; i < n; ++i) apache->handle_request();
    } else if (sni) {
      for (int i = 0; i < n; ++i) sni->handle_request();
    } else {
      for (int i = 0; i < n / 2; ++i) ssh->handle_connection(8 << 10);
      for (int i = 0; i < (n + 1) / 2; ++i) ssh->open_connection();
    }
  };
  if (which == "apache") {
    apache = std::make_unique<servers::ApacheServer>(
        s.kernel(), s.apache_config(), s.make_rng());
    apache->start();
    apache->set_concurrency(8);
  } else if (which == "sni") {
    // Multi-tenant workload: a few distinct keys cycled over the vhost
    // population (generated above, before the trackers attached), scanned
    // with per-key needles instead of the scenario key's. The pool
    // discipline comes from --backend.
    auto sni_cfg = core::sni_config(s.profile(), /*pool_pages=*/8);
    sni_cfg.backend = backend_name == "encrypted"
                          ? keystore::PoolBackend::kEncrypted
                          : keystore::PoolBackend::kMlocked;
    sni = std::make_unique<servers::SniFrontend>(s.kernel(), sni_cfg,
                                                 s.make_rng());
    if (!sni->start(sni_vhosts)) {
      std::fprintf(stderr, "scanmemory_tool: sni frontend failed to start\n");
      return 1;
    }
  } else {
    ssh = std::make_unique<servers::SshServer>(s.kernel(), s.ssh_config(),
                                               s.make_rng());
    ssh->start();
  }
  run_traffic(connections);

  // One merge pass over the churned machine, before the scan sees it.
  // With --taint the shadow map doubles as the engine's secret predicate
  // (the canonical-prefers-secret rule keeps the map exact).
  std::unique_ptr<sim::DedupEngine> dedup;
  if (flags.has("dedup")) {
    dedup = std::make_unique<sim::DedupEngine>(s.kernel());
    if (taint_map) {
      auto* map = taint_map.get();
      dedup->set_secret_predicate(
          [map](sim::FrameNumber f) { return map->frame_secrets(f).secret > 0; });
    }
    const auto merged = dedup->scan();
    std::fprintf(stderr, "dedup: %zu pages merged, %zu saved\n", merged,
                 dedup->saved_pages());
  }

  scan::KeyScanner& scanner = sni_scanner ? *sni_scanner : s.scanner();
  if (threads > 0) scanner.set_shards(static_cast<std::size_t>(threads));
  scan::ScanStats stats;
  std::vector<scan::MemoryMatch> matches;
  if (incremental) {
    // Prime the cache off the main workload, dirty a small frame set with
    // a follow-up burst, then report the delta sweep — the part the LKM
    // would have re-walked all of RAM for.
    scan::SweepCache cache;
    (void)scanner.scan_kernel_incremental(s.kernel(), *journal, cache);
    run_traffic(std::max(1, connections / 8));
    matches = scanner.scan_kernel_incremental(s.kernel(), *journal, cache,
                                              &stats);
  } else {
    matches = scanner.scan_kernel(s.kernel(), &stats);
  }

  std::unique_ptr<analysis::TaintAuditor> auditor;
  analysis::AuditReport report;
  analysis::CrossCheck cross;
  if (taint_map) {
    auditor = std::make_unique<analysis::TaintAuditor>(*taint_map);
    report = auditor->audit(s.kernel());
    cross = auditor->cross_check(scanner.patterns(), matches);
  }

  if (json) {
    util::JsonWriter w;
    write_json(w, scanner.patterns(), which,
               sni ? backend_name : std::string("n/a"), connections,
               level_name, matches, stats, s.kernel().memory(),
               auditor ? &report : nullptr,
               auditor ? &cross : nullptr, dedup.get(), metrics);
    if (json_path.empty()) {
      std::printf("%s\n", w.str().c_str());
    } else if (!write_text_file(json_path, w.str(), "JSON")) {
      return 1;
    }
  } else {
    std::printf("%s\n", obs::build_info::one_line().c_str());
    print_text(scanner.patterns(), matches, stats, s.kernel().memory());
    if (auditor) {
      std::printf("\n%s", analysis::TaintAuditor::format(report).c_str());
      std::printf(
          "cross-check: %zu/%zu scanner hits taint-covered, %zu needle-visible "
          "bytes, %zu taint-only bytes%s\n",
          cross.covered_hits, cross.scanner_hits, cross.needle_visible_bytes,
          cross.taint_only_bytes,
          cross.all_hits_covered() ? ""
                                   : "  ** UNCOVERED HITS: shadow lost a flow **");
    }
  }

  // Standalone metrics report (separate from the main --json document).
  if (metrics && !metrics_path.empty()) {
    util::JsonWriter mw;
    obs::begin_report(mw, "scanmemory.metrics");
    obs::write_metrics_field(mw, obs::MetricsRegistry::global());
    mw.end_object();
    if (!write_text_file(metrics_path, mw.str(), "metrics")) return 1;
  }
  if (trace) {
    // A .json extension selects the chrome://tracing document; anything
    // else gets line-oriented JSONL for trace2timeline.py / grep.
    std::string trace_text;
    if (trace_path.size() >= 5 &&
        trace_path.compare(trace_path.size() - 5, 5, ".json") == 0) {
      util::JsonWriter tw;
      obs::Tracer::global().write_chrome_trace(tw);
      trace_text = tw.str();
    } else {
      trace_text = obs::Tracer::global().jsonl();
    }
    if (!write_text_file(trace_path, trace_text, "trace")) {
      return 1;
    }
  }
  if (engine) {
    std::fprintf(stderr, "alerts: %llu fired over %llu evaluations\n",
                 static_cast<unsigned long long>(engine->alerts_fired()),
                 static_cast<unsigned long long>(engine->evaluations()));
  }
  if (recorder) {
    const std::string bundle_path = flight_dir + "/bundle.json";
    if (!recorder->write_bundle(bundle_path)) {
      std::fprintf(stderr, "scanmemory_tool: cannot write %s\n",
                   bundle_path.c_str());
      return 1;
    }
    std::printf("flight bundle written to %s (%s)\n", bundle_path.c_str(),
                recorder->frozen() ? "frozen at breach" : "shutdown state");
  }
  if (alerts_on) {
    obs::EventBus::global().set_enabled(false);
    if (engine) obs::EventBus::global().unsubscribe(engine.get());
    if (recorder) obs::EventBus::global().unsubscribe(recorder.get());
  }
  if (fanout.size() > 0) s.kernel().attach_taint(nullptr);
  return 0;
}
