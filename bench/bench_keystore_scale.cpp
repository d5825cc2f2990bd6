// Keystore scale sweep: keys × concurrency × pool size.
//
// The multi-tenant claim in numbers: a front end holding up to 1000 vhost
// keys serves traffic while plaintext key material never exceeds N pool
// pages + the master-key page, and the pool-hit path does no decryption,
// so per-request latency is flat in the key count.
//
//   phase 1  host Keystore throughput grid (keys × pool × threads)
//   phase 2  per-request latency vs key count at fixed pool (flatness)
//   phase 3  hit-path stats: warm pool serves with zero further unseals
//   phase 4  sim residue sweep: 1000-vhost SNI frontend under churn,
//            audited MID-traffic — bounded_locked_pages_only(8) at every
//            sampled instant — plus the needle scan reconciliation
//
// Runs argument-free at reduced scale; KEYGUARD_BENCH_FULL=1 widens the
// grids and uses 1024-bit keys. Writes machine-readable results to
// BENCH_keystore_scale.json (override with --json PATH).
//
// --backend=encrypted switches to the EXPOSURE COMPARISON sweep instead:
// the same SNI workload is driven once through the mlocked pool (N=64)
// and once through the encrypted-at-rest pool (N=64, W=4), with an
// ExposureMonitor integrating plaintext byte·seconds against a manual
// sim clock. The claim: the encrypted backend's exposure integral tracks
// the working set, >= 10x below the mlocked pool's, with zero plaintext
// outside the working set at every sampled instant.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "common.hpp"
#include "core/protection.hpp"
#include "keystore/keystore.hpp"
#include "obs/clock.hpp"
#include "obs/exposure_monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "scan/key_scanner.hpp"
#include "servers/sni_frontend.hpp"
#include "sim/taint.hpp"
#include "util/json.hpp"

using namespace kgbench;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The traffic generator: 80% of requests hit the hot fifth of the key
/// population (the regime an LRU pool is built for), the rest roam.
std::size_t pick_key(util::Rng& rng, std::size_t n_keys, bool uniform) {
  if (uniform || n_keys < 5) return rng.next_below(n_keys);
  const std::size_t hot = std::max<std::size_t>(1, n_keys / 5);
  return rng.next_double() < 0.8 ? rng.next_below(hot) : rng.next_below(n_keys);
}

struct HostCell {
  std::size_t keys, pool, threads;
  std::uint64_t ops;
  double wall_ms, ops_per_sec, mean_ms, hit_rate;
  std::uint64_t unseals, evictions;
};

HostCell run_host_cell(const std::vector<crypto::RsaPrivateKey>& distinct,
                       std::size_t n_keys, std::size_t pool, std::size_t threads,
                       std::uint64_t total_ops, bool uniform) {
  keystore::Keystore ks({.pool_keys = pool});
  std::vector<keystore::KeyId> ids;
  ids.reserve(n_keys);
  for (std::size_t i = 0; i < n_keys; ++i) {
    ids.push_back(ks.add_key(distinct[i % distinct.size()]));
  }

  const std::uint64_t per_thread = total_ops / threads;
  const double t0 = now_ms();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      util::Rng rng(7000 + 31 * t + n_keys);
      const bn::Bignum m(0x5157u + t);
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        (void)ks.sign(ids[pick_key(rng, ids.size(), uniform)], m);
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall = now_ms() - t0;

  const auto st = ks.stats();
  HostCell c;
  c.keys = n_keys;
  c.pool = pool;
  c.threads = threads;
  c.ops = st.ops;
  c.wall_ms = wall;
  c.ops_per_sec = st.ops * 1000.0 / wall;
  c.mean_ms = wall * static_cast<double>(threads) / static_cast<double>(st.ops);
  c.hit_rate = st.ops ? static_cast<double>(st.pool_hits) / st.ops : 0.0;
  c.unseals = st.unseals;
  c.evictions = st.evictions;
  return c;
}

struct ResidueSample {
  std::uint64_t requests;
  std::size_t secret_frames, master_frames, pool_frames;
  std::size_t secret_bytes, sealed_bytes, residue_bytes;
  bool bounded;
};

// ---- --backend=encrypted: exposure-comparison sweep -----------------------

constexpr std::size_t kCmpPool = 64;     ///< N for both backends
constexpr std::size_t kCmpWorking = 4;   ///< W for the encrypted backend
constexpr std::size_t kCmpVhosts = 96;   ///< > N so the mlocked pool churns

struct ExposureSample {
  std::uint64_t requests;
  std::size_t plain_frames;   ///< secret frames excluding master-key pages
  std::size_t visible_keys;   ///< distinct plaintext keys the scanner sees
  std::size_t unlocked_hits;  ///< needle hits outside live anon mappings
  bool bounded;
  bool monitor_ok;
  double byte_seconds;  ///< running exposure integral at this instant
};

struct ExposureRun {
  const char* name;
  double mean_req_ms = 0.0;
  double byte_seconds = 0.0;
  std::size_t max_plain_frames = 0;
  std::size_t max_visible = 0;
  std::size_t unlocked_hits = 0;
  bool all_bounded = true;
  bool monitor_ok = true;
  bool cross_ok = true;
  std::uint64_t hits = 0, unseals = 0, evictions = 0, reencrypts = 0;
  std::vector<ExposureSample> samples;
};

ExposureRun run_exposure_backend(keystore::PoolBackend backend, const Scale& s,
                                 const std::vector<crypto::RsaPrivateKey>& distinct) {
  const std::uint64_t requests = s.full ? 768 : 320;
  const std::uint64_t sample_every = requests / 8;

  const auto profile =
      core::make_profile(core::ProtectionLevel::kIntegrated, s.mem_bytes);
  sim::Kernel kernel(profile.kernel);
  analysis::ShadowTaintMap map(kernel);
  obs::ExposureMonitor monitor(kernel.memory(),
                               scan::KeyPatterns::from_keys(distinct));
  sim::TaintFanout fanout;
  fanout.add(&map);
  fanout.add(&monitor);
  kernel.attach_taint(&fanout);
  // Manual sim clock: the integral advances exactly 1 ms per request, so
  // byte·seconds compare bit-identically across backends regardless of
  // host timing. Transients inside a request accrue nothing — the
  // integral measures what RESTS exposed between requests.
  obs::manual_clock_install(0);

  auto cfg = core::sni_config(profile, kCmpPool);
  cfg.backend = backend;
  cfg.encrypted.working_set = kCmpWorking;
  // Uniform traffic (no hot set): every vhost cycles through the pool, so
  // the mlocked baseline actually reaches its N-page steady state instead
  // of idling half-full behind a hot fifth — the fair worst case for the
  // comparison, and the maximum-churn case for the encrypted working set.
  cfg.hot_fraction = 0.0;
  servers::SniFrontend frontend(kernel, cfg, util::Rng(31));
  {
    std::vector<crypto::RsaPrivateKey> vhost_keys;
    vhost_keys.reserve(kCmpVhosts);
    for (std::size_t i = 0; i < kCmpVhosts; ++i) {
      vhost_keys.push_back(distinct[i % distinct.size()]);
    }
    if (!frontend.start(vhost_keys)) {
      std::fprintf(stderr, "frontend (%s) failed to start\n",
                   keystore::pool_backend_name(backend));
      std::exit(1);
    }
  }

  ExposureRun run;
  run.name = keystore::pool_backend_name(backend);
  analysis::TaintAuditor auditor(map);
  scan::KeyScanner scanner(scan::KeyPatterns::from_keys(distinct));
  util::RunningStats req_ms;
  std::vector<scan::MemoryMatch> matches;
  for (std::uint64_t r = 1; r <= requests; ++r) {
    const double t0 = now_ms();
    if (!frontend.handle_request()) {
      std::fprintf(stderr, "handshake failed at request %llu (%s)\n",
                   static_cast<unsigned long long>(r), run.name);
      std::exit(1);
    }
    req_ms.add(now_ms() - t0);
    obs::manual_clock_advance(1'000'000);  // 1 ms of sim time per request
    if (r % sample_every != 0) continue;

    const auto report = auditor.audit(kernel);
    ExposureSample sm;
    sm.requests = r;
    sm.plain_frames = report.secret_tainted_frames - report.master_key_frames;
    sm.bounded = backend == keystore::PoolBackend::kEncrypted
                     ? report.bounded_plaintext_working_set(kCmpWorking)
                     : report.bounded_locked_pages_only(kCmpPool);
    matches = scanner.scan_kernel(kernel);
    std::set<std::string> visible;
    sm.unlocked_hits = 0;
    for (const auto& m : matches) {
      if (m.state != sim::FrameState::kUserAnon) ++sm.unlocked_hits;
      visible.insert(m.part.substr(m.part.find('#') + 1));
    }
    sm.visible_keys = visible.size();
    sm.monitor_ok = monitor_matches_sweep(monitor, kernel);
    double total = 0.0;
    for (std::size_t k = 0; k < monitor.key_count(); ++k) {
      total += monitor.exposure_window(k);
    }
    sm.byte_seconds = total;
    run.samples.push_back(sm);
    run.all_bounded = run.all_bounded && sm.bounded;
    run.monitor_ok = run.monitor_ok && sm.monitor_ok;
    run.max_plain_frames = std::max(run.max_plain_frames, sm.plain_frames);
    run.max_visible = std::max(run.max_visible, sm.visible_keys);
    run.unlocked_hits += sm.unlocked_hits;
  }

  run.mean_req_ms = req_ms.mean();
  const auto cross = auditor.cross_check(scanner.patterns(), matches);
  run.cross_ok = cross.all_hits_covered();
  double total = 0.0;
  for (std::size_t k = 0; k < monitor.key_count(); ++k) {
    total += monitor.exposure_window(k);
  }
  run.byte_seconds = total;
  if (backend == keystore::PoolBackend::kEncrypted) {
    const auto& st = frontend.encrypted_keystore().stats();
    run.hits = st.working_hits;
    run.unseals = st.blob_unseals + st.page_decrypts;
    run.evictions = st.evictions;
    run.reencrypts = st.reencrypts;
  } else {
    const auto& st = frontend.keystore().stats();
    run.hits = st.pool_hits;
    run.unseals = st.unseals;
    run.evictions = st.evictions;
  }
  frontend.stop();
  kernel.attach_taint(nullptr);
  obs::host_clock_install();
  return run;
}

void write_exposure_run_json(util::JsonWriter& json, const ExposureRun& run) {
  json.begin_object()
      .field("backend", run.name)
      .field("mean_request_ms", run.mean_req_ms)
      .field("exposure_byte_seconds", run.byte_seconds)
      .field("max_plain_frames", run.max_plain_frames)
      .field("max_visible_keys", run.max_visible)
      .field("unlocked_hits", run.unlocked_hits)
      .field("all_bounded", run.all_bounded)
      .field("monitor_matches_sweep", run.monitor_ok)
      .field("cross_check_ok", run.cross_ok)
      .field("pool_hits", run.hits)
      .field("unseals", run.unseals)
      .field("evictions", run.evictions)
      .field("reencrypts", run.reencrypts);
  json.key("samples").begin_array();
  for (const auto& sm : run.samples) {
    json.begin_object()
        .field("requests", sm.requests)
        .field("plain_frames", sm.plain_frames)
        .field("visible_keys", sm.visible_keys)
        .field("unlocked_hits", sm.unlocked_hits)
        .field("bounded", sm.bounded)
        .field("monitor_matches_sweep", sm.monitor_ok)
        .field("byte_seconds", sm.byte_seconds)
        .end_object();
  }
  json.end_array().end_object();
}

int run_exposure_comparison(const Scale& s,
                            const std::vector<crypto::RsaPrivateKey>& distinct,
                            const std::string& json_path) {
  const auto mlocked =
      run_exposure_backend(keystore::PoolBackend::kMlocked, s, distinct);
  const auto encrypted =
      run_exposure_backend(keystore::PoolBackend::kEncrypted, s, distinct);
  const double ratio =
      encrypted.byte_seconds > 0 ? mlocked.byte_seconds / encrypted.byte_seconds
                                 : 0.0;

  util::Table t({"backend", "mean ms", "byte*s", "max plain frames",
                 "max visible", "bounded", "monitor==sweep"});
  for (const auto* run : {&mlocked, &encrypted}) {
    t.add_row({run->name, util::fmt(run->mean_req_ms, 3),
               util::fmt(run->byte_seconds, 0),
               std::to_string(run->max_plain_frames),
               std::to_string(run->max_visible),
               run->all_bounded ? "HOLDS" : "VIOLATED",
               run->monitor_ok ? "yes" : "NO"});
  }
  std::printf("%s\n%s\n", t.render().c_str(), t.render_tsv().c_str());
  std::printf("exposure ratio (mlocked / encrypted): %sx\n\n",
              util::fmt(ratio, 1).c_str());

  util::JsonWriter json;
  obs::begin_report(json, "bench_keystore_scale");
  json.field("bench", "keystore_scale")
      .field("mode", "exposure_comparison")
      .field("pool_pages", kCmpPool)
      .field("working_set", kCmpWorking)
      .field("vhosts", kCmpVhosts)
      .field("full_scale", s.full);
  json.key("backends").begin_array();
  write_exposure_run_json(json, mlocked);
  write_exposure_run_json(json, encrypted);
  json.end_array();
  json.field("exposure_ratio", ratio);

  bool ok = true;
  ok &= shape_check(encrypted.all_bounded,
                    "encrypted: bounded_plaintext_working_set(4) HOLDS at every "
                    "sampled instant");
  ok &= shape_check(mlocked.all_bounded,
                    "mlocked: bounded_locked_pages_only(64) HOLDS at every "
                    "sampled instant");
  ok &= shape_check(encrypted.max_plain_frames <= kCmpWorking,
                    "encrypted: plaintext never exceeds the 4-page working set");
  ok &= shape_check(encrypted.max_visible <= kCmpWorking,
                    "encrypted: needle scan never sees more than 4 distinct keys");
  ok &= shape_check(encrypted.unlocked_hits == 0 && mlocked.unlocked_hits == 0,
                    "no needle hit outside live anon mappings, either backend");
  ok &= shape_check(encrypted.monitor_ok && mlocked.monitor_ok,
                    "exposure monitor agrees copy-for-copy with the full sweep "
                    "at every sampled instant");
  ok &= shape_check(encrypted.cross_ok && mlocked.cross_ok,
                    "every scanner hit fully taint-covered, either backend");
  ok &= shape_check(ratio >= 10.0,
                    "encrypted exposure integral >= 10x below the mlocked pool "
                    "(measured " + util::fmt(ratio, 1) + "x)");

  json.field("shape_checks_ok", ok);
  obs::write_metrics_field(json, obs::MetricsRegistry::global());
  json.end_object();
  ok &= write_json(json_path, json.str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const Scale s = scale_from_env();
  const std::size_t key_bits = s.full ? 1024 : 512;
  const std::string json_path = flags.get("json", "BENCH_keystore_scale.json");
  const std::string backend = flags.get("backend", "mlocked");
  if (backend != "mlocked" && backend != "encrypted") {
    std::fprintf(stderr, "bench_keystore_scale: bad --backend value '%s'\n",
                 backend.c_str());
    return 2;
  }
  constexpr std::size_t kPool = 8;  // the acceptance configuration

  if (backend == "encrypted") {
    banner("keystore exposure: mlocked pool vs encrypted-at-rest pool",
           "the encrypted backend's plaintext byte*seconds integral tracks "
           "its W=4 working set, >= 10x below the mlocked N=64 pool",
           s);
    obs::MetricsRegistry::global().set_enabled(true);
    std::vector<crypto::RsaPrivateKey> distinct;
    util::Rng rng(4242);
    for (std::size_t i = 0; i < 16; ++i) {
      distinct.push_back(crypto::generate_rsa_key(rng, key_bits));
    }
    return run_exposure_comparison(s, distinct, json_path);
  }

  banner("keystore scale: keys x concurrency x pool size",
         "plaintext residue stays <= N pool pages + master key while "
         "throughput scales; hit latency is flat in key count",
         s);

  // A small distinct-key set cycled over large populations keeps keygen
  // off the critical path; every id still gets its own sealed blob.
  const std::size_t n_distinct = 16;
  std::vector<crypto::RsaPrivateKey> distinct;
  {
    util::Rng rng(4242);
    for (std::size_t i = 0; i < n_distinct; ++i) {
      distinct.push_back(crypto::generate_rsa_key(rng, key_bits));
    }
  }

  // Schema v2 envelope + live metrics: every counter the keystore and
  // scanner bump lands in the snapshot at the end of the report.
  obs::MetricsRegistry::global().set_enabled(true);
  util::JsonWriter json;
  obs::begin_report(json, "bench_keystore_scale");
  json.field("bench", "keystore_scale")  // alias for pre-v2 consumers
      .field("pool_pages", kPool)
      .field("key_bits", key_bits)
      .field("full_scale", s.full);

  // ---- phase 1: throughput grid -------------------------------------------
  const std::vector<std::size_t> key_counts = {32, 256, 1000};
  const std::vector<std::size_t> pools = {4, 8, 16};
  const std::vector<std::size_t> thread_counts = {1, 4};
  const std::uint64_t grid_ops = s.full ? 1024 : 256;

  util::Table grid({"keys", "pool", "threads", "ops/s", "mean ms", "hit rate",
                    "unseals", "evictions"});
  json.key("host_sweep").begin_array();
  for (const auto keys : key_counts) {
    for (const auto pool : pools) {
      for (const auto threads : thread_counts) {
        const auto c =
            run_host_cell(distinct, keys, pool, threads, grid_ops, /*uniform=*/false);
        grid.add_row({std::to_string(c.keys), std::to_string(c.pool),
                      std::to_string(c.threads), util::fmt(c.ops_per_sec, 0),
                      util::fmt(c.mean_ms, 3), util::fmt(c.hit_rate, 2),
                      std::to_string(c.unseals), std::to_string(c.evictions)});
        json.begin_object()
            .field("keys", c.keys)
            .field("pool", c.pool)
            .field("threads", c.threads)
            .field("ops", c.ops)
            .field("wall_ms", c.wall_ms)
            .field("ops_per_sec", c.ops_per_sec)
            .field("mean_latency_ms", c.mean_ms)
            .field("hit_rate", c.hit_rate)
            .field("unseals", c.unseals)
            .field("evictions", c.evictions)
            .end_object();
      }
    }
  }
  json.end_array();
  std::printf("%s\n%s\n", grid.render().c_str(), grid.render_tsv().c_str());

  // ---- phase 2: latency vs key count (uniform traffic, miss-dominated) ----
  // Uniform selection keeps the hit rate ~pool/keys for every point, so a
  // latency trend here would mean the store does per-key work on the
  // request path. It must not: lookup is O(pool), unseal cost is per-miss
  // and key-size-, not population-, dependent.
  const std::uint64_t flat_ops = s.full ? 1024 : 256;
  util::Table flat({"keys", "mean ms", "ops/s", "hit rate"});
  double flat_min = 0.0, flat_max = 0.0;
  json.key("latency_vs_keys").begin_array();
  for (const auto keys : key_counts) {
    const auto c = run_host_cell(distinct, keys, kPool, 1, flat_ops, /*uniform=*/true);
    flat.add_row({std::to_string(c.keys), util::fmt(c.mean_ms, 3),
                  util::fmt(c.ops_per_sec, 0), util::fmt(c.hit_rate, 2)});
    json.begin_object()
        .field("keys", c.keys)
        .field("mean_latency_ms", c.mean_ms)
        .field("ops_per_sec", c.ops_per_sec)
        .field("hit_rate", c.hit_rate)
        .end_object();
    flat_min = flat_min == 0.0 ? c.mean_ms : std::min(flat_min, c.mean_ms);
    flat_max = std::max(flat_max, c.mean_ms);
  }
  json.end_array();
  std::printf("%s\n%s\n", flat.render().c_str(), flat.render_tsv().c_str());

  // ---- phase 3: the hit path does no decryption ----------------------------
  std::uint64_t warm_unseals = 0, hot_unseals = 0, hot_hits = 0;
  {
    keystore::Keystore ks({.pool_keys = kPool});
    std::vector<keystore::KeyId> ids;
    for (std::size_t i = 0; i < kPool; ++i) ids.push_back(ks.add_key(distinct[i]));
    const bn::Bignum m(424242);
    for (const auto id : ids) (void)ks.sign(id, m);  // warm the pool
    warm_unseals = ks.stats().unseals;
    const std::uint64_t hot_ops = s.full ? 512 : 128;
    for (std::uint64_t i = 0; i < hot_ops; ++i) (void)ks.sign(ids[i % kPool], m);
    hot_unseals = ks.stats().unseals - warm_unseals;
    hot_hits = ks.stats().pool_hits;
    std::printf("hit path: %llu warm unseals, then %llu ops -> %llu further "
                "unseals, %llu hits\n\n",
                static_cast<unsigned long long>(warm_unseals),
                static_cast<unsigned long long>(hot_ops),
                static_cast<unsigned long long>(hot_unseals),
                static_cast<unsigned long long>(hot_hits));
  }

  // ---- phase 4: sim residue sweep (the measurable claim) ------------------
  // 1000 vhosts through one SNI frontend at the integrated level, audited
  // mid-churn: plaintext on <= kPool locked pool pages + 1 master-key
  // page at EVERY sampled instant.
  const std::size_t vhosts = 1000;
  const std::uint64_t requests = s.full ? 1024 : 384;
  const std::uint64_t sample_every = requests / 8;

  const auto profile = core::make_profile(core::ProtectionLevel::kIntegrated,
                                          s.mem_bytes);
  sim::Kernel kernel(profile.kernel);
  analysis::ShadowTaintMap map(kernel);
  kernel.attach_taint(&map);
  servers::SniFrontend frontend(kernel, core::sni_config(profile, kPool),
                                util::Rng(31));
  {
    std::vector<crypto::RsaPrivateKey> vhost_keys;
    vhost_keys.reserve(vhosts);
    for (std::size_t i = 0; i < vhosts; ++i) {
      vhost_keys.push_back(distinct[i % distinct.size()]);
    }
    const double t0 = now_ms();
    if (!frontend.start(vhost_keys)) {
      std::fprintf(stderr, "frontend failed to start\n");
      return 1;
    }
    std::printf("ingested %zu vhost keys in %s ms (sealed at rest)\n", vhosts,
                util::fmt(now_ms() - t0, 0).c_str());
  }

  analysis::TaintAuditor auditor(map);
  std::vector<ResidueSample> samples;
  bool all_bounded = true;
  std::size_t max_pool_frames = 0;
  util::RunningStats req_ms;
  for (std::uint64_t r = 1; r <= requests; ++r) {
    const double t0 = now_ms();
    if (!frontend.handle_request()) {
      std::fprintf(stderr, "handshake failed at request %llu\n",
                   static_cast<unsigned long long>(r));
      return 1;
    }
    req_ms.add(now_ms() - t0);
    if (r % sample_every != 0) continue;

    const auto report = auditor.audit(kernel);
    ResidueSample sm;
    sm.requests = r;
    sm.secret_frames = report.secret_tainted_frames;
    sm.master_frames = report.master_key_frames;
    sm.pool_frames = report.secret_tainted_frames - report.master_key_frames;
    sm.secret_bytes = report.secret.total();
    sm.sealed_bytes = report.sealed.total();
    sm.residue_bytes = report.secret.unallocated + report.secret.page_cache +
                       report.secret.kernel + report.secret.swap;
    sm.bounded = report.bounded_locked_pages_only(kPool);
    samples.push_back(sm);
    all_bounded = all_bounded && sm.bounded;
    max_pool_frames = std::max(max_pool_frames, sm.pool_frames);
  }

  util::Table res({"requests", "secret frames", "pool", "master", "secret B",
                   "sealed B", "off-pool residue B", "bounded(8)"});
  json.key("residue_samples").begin_array();
  for (const auto& sm : samples) {
    res.add_row({std::to_string(sm.requests), std::to_string(sm.secret_frames),
                 std::to_string(sm.pool_frames), std::to_string(sm.master_frames),
                 std::to_string(sm.secret_bytes), std::to_string(sm.sealed_bytes),
                 std::to_string(sm.residue_bytes), sm.bounded ? "HOLDS" : "VIOLATED"});
    json.begin_object()
        .field("requests", sm.requests)
        .field("secret_frames", sm.secret_frames)
        .field("pool_frames", sm.pool_frames)
        .field("master_frames", sm.master_frames)
        .field("secret_bytes", sm.secret_bytes)
        .field("sealed_bytes", sm.sealed_bytes)
        .field("residue_bytes", sm.residue_bytes)
        .field("bounded", sm.bounded)
        .end_object();
  }
  json.end_array();
  std::printf("%s\n%s\n", res.render().c_str(), res.render_tsv().c_str());

  // Needle-scan reconciliation over the churned machine.
  scan::KeyScanner scanner(scan::KeyPatterns::from_keys(distinct));
  scan::ScanStats scan_stats;
  const auto matches = scanner.scan_kernel(kernel, &scan_stats);
  std::size_t unlocked_hits = 0;
  std::set<std::string> visible;
  for (const auto& m : matches) {
    if (m.state != sim::FrameState::kUserAnon) ++unlocked_hits;
    visible.insert(m.part.substr(m.part.find('#') + 1));
  }
  const auto cross = auditor.cross_check(scanner.patterns(), matches);
  print_scan_stats("1000-vhost machine", scan_stats);
  std::printf("scanner: %zu hits, %zu distinct plaintext keys visible, "
              "%zu hits outside live mappings; cross-check %zu/%zu covered\n\n",
              matches.size(), visible.size(), unlocked_hits, cross.covered_hits,
              cross.scanner_hits);

  const auto ks_stats = frontend.keystore().stats();
  json.key("sim")
      .begin_object()
      .field("vhosts", vhosts)
      .field("requests", requests)
      .field("mean_request_ms", req_ms.mean())
      .field("pool_hits", ks_stats.pool_hits)
      .field("pool_misses", ks_stats.pool_misses)
      .field("evictions", ks_stats.evictions)
      .field("max_pool_frames", max_pool_frames)
      .field("all_bounded", all_bounded)
      .field("scanner_hits", matches.size())
      .field("visible_plaintext_keys", visible.size())
      .field("scan_mb_per_sec", scan_stats.mb_per_sec());  // pre-v2 alias
  json.key("scan");
  scan_stats.write_json(json);
  json.end_object();

  std::printf("traffic: %s ms/request mean, %llu hits / %llu misses / %llu "
              "evictions\n\n",
              util::fmt(req_ms.mean(), 3).c_str(),
              static_cast<unsigned long long>(ks_stats.pool_hits),
              static_cast<unsigned long long>(ks_stats.pool_misses),
              static_cast<unsigned long long>(ks_stats.evictions));

  // ---- verdicts -------------------------------------------------------------
  bool ok = true;
  ok &= shape_check(all_bounded,
                    "bounded_locked_pages_only(8) HOLDS at every sampled instant "
                    "under 1000-key churn");
  ok &= shape_check(max_pool_frames <= kPool,
                    "plaintext residue never exceeds 8 pool pages + 1 master page");
  ok &= shape_check(visible.size() <= kPool,
                    "needle scan never sees more than pool-many distinct keys");
  ok &= shape_check(unlocked_hits == 0,
                    "every surviving needle image sits in a live (pool) mapping");
  ok &= shape_check(cross.all_hits_covered(),
                    "every scanner hit is fully taint-covered");
  ok &= shape_check(hot_unseals == 0 && hot_hits > 0,
                    "warm pool serves with zero further unseals (no decryption "
                    "on the hit path)");
  ok &= shape_check(flat_max > 0 && flat_max / flat_min < 1.6,
                    "per-request latency flat in key count at fixed pool "
                    "(32 -> 1000 keys: " + util::fmt(flat_min, 3) + " -> " +
                        util::fmt(flat_max, 3) + " ms spread < 1.6x)");
  ok &= shape_check(ks_stats.evictions > 0,
                    "the workload actually churns the pool (evictions happened)");

  json.field("shape_checks_ok", ok);
  obs::write_metrics_field(json, obs::MetricsRegistry::global());
  json.end_object();
  ok &= write_json(json_path, json.str());
  return ok ? 0 : 1;
}
