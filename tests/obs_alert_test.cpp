// AlertEngine + FlightRecorder: rule parsing rejects malformed input,
// budget crossings are exact under the manual clock, the incremental
// watcher aggregates equal a fresh TaintAuditor audit field-for-field at
// arbitrary instants under churn, grace windows swallow transients,
// cooldowns dedup, anomaly rules fire on their single events, the ring
// accounts drops exactly, and the bundle never contains key bytes.
#include "obs/alert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "analysis/taint_auditor.hpp"
#include "analysis/taint_map.hpp"
#include "obs/clock.hpp"
#include "obs/event_bus.hpp"
#include "obs/exposure_monitor.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"

namespace keyguard::obs {
namespace {

class CollectSink final : public AlertSink {
 public:
  void on_alert(const Alert& alert) override { alerts.push_back(alert); }
  std::vector<Alert> alerts;
};

AlertRule rule(RuleKind kind, std::string name) {
  AlertRule r;
  r.name = std::move(name);
  r.kind = kind;
  r.severity = Severity::kCritical;
  return r;
}

/// Kernel + shadow + engine wired the way workloads do it, with the
/// engine LAST in the fanout so the shadow is updated when hooks arrive.
struct Rig {
  explicit Rig(sim::KernelConfig cfg, ExposureMonitor* monitor = nullptr)
      : kernel(cfg), shadow(kernel), engine(kernel, shadow, monitor) {
    fanout.add(&shadow);
    if (monitor != nullptr) fanout.add(monitor);
    fanout.add(&engine);
    engine.add_sink(&sink);
    kernel.attach_taint(&fanout);
  }
  ~Rig() { kernel.attach_taint(nullptr); }

  sim::Kernel kernel;
  analysis::ShadowTaintMap shadow;
  AlertEngine engine;
  sim::TaintFanout fanout;
  CollectSink sink;
};

/// Empty string when the engine's aggregates equal a fresh audit;
/// otherwise "field: engine=X audit=Y" for every diverging field.
std::string aggregate_divergence(const AlertEngine& engine,
                                 const analysis::ShadowTaintMap& shadow,
                                 const sim::Kernel& kernel) {
  const auto audit = analysis::TaintAuditor(shadow).audit(kernel);
  const auto& agg = engine.aggregates();
  std::string out;
  const auto check = [&](const char* name, std::uint64_t e, std::uint64_t a) {
    if (e != a) {
      out += std::string(name) + ": engine=" + std::to_string(e) +
             " audit=" + std::to_string(a) + "; ";
    }
  };
  check("secret_frames", agg.secret_frames, audit.secret_tainted_frames);
  check("secret_mlocked_frames", agg.secret_mlocked_frames,
        audit.secret_mlocked_frames);
  check("master_key_frames", agg.master_key_frames, audit.master_key_frames);
  check("secret_unallocated_bytes", agg.secret_unallocated_bytes,
        audit.secret.unallocated);
  check("secret_page_cache_bytes", agg.secret_page_cache_bytes,
        audit.secret.page_cache);
  check("secret_kernel_bytes", agg.secret_kernel_bytes, audit.secret.kernel);
  check("secret_swap_bytes", agg.secret_swap_bytes, audit.secret.swap);
  return out;
}

class AlertTest : public ::testing::Test {
 protected:
  void SetUp() override { manual_clock_install(0); }
  void TearDown() override {
    EventBus::global().set_enabled(false);
    host_clock_install();
  }
};

// ---------------------------------------------------------------- parsing --

TEST(AlertRules, NamesRoundTrip) {
  for (std::size_t i = 0; i < kRuleKindCount; ++i) {
    const auto k = static_cast<RuleKind>(i);
    ASSERT_EQ(rule_kind_from_name(rule_kind_name(k)), k);
  }
  EXPECT_EQ(severity_from_name("critical"), Severity::kCritical);
  EXPECT_FALSE(severity_from_name("fatal").has_value());
  EXPECT_FALSE(rule_kind_from_name("no_such_rule").has_value());
}

TEST(AlertRules, ParsesFullRuleSet) {
  std::string err;
  const auto rules = rules_from_json(R"({"rules":[
    {"name":"budget","kind":"exposure_budget","severity":"critical",
     "budget_byte_seconds":1.5,"key":2},
    {"name":"wset","kind":"working_set_bound","bound":4,
     "grace_ns":50000000,"cooldown_ns":1000000000},
    {"name":"swap","kind":"secret_to_swap"},
    {"name":"burst","kind":"refusal_burst","bound":8,"window_ns":1000000000}
  ]})", &err);
  ASSERT_TRUE(rules.has_value()) << err;
  ASSERT_EQ(rules->size(), 4u);
  EXPECT_EQ((*rules)[0].kind, RuleKind::kExposureBudget);
  EXPECT_EQ((*rules)[0].severity, Severity::kCritical);
  EXPECT_DOUBLE_EQ((*rules)[0].budget_byte_seconds, 1.5);
  EXPECT_EQ((*rules)[0].key, 2);
  EXPECT_EQ((*rules)[1].bound, 4u);
  EXPECT_EQ((*rules)[1].grace_ns, 50'000'000u);
  EXPECT_EQ((*rules)[3].window_ns, 1'000'000'000u);
}

TEST(AlertRules, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(rules_from_json("{not json", &err));
  EXPECT_FALSE(rules_from_json("[]", &err));  // root must be an object
  EXPECT_FALSE(rules_from_json(R"({"norules":[]})", &err));
  // Missing name.
  EXPECT_FALSE(rules_from_json(R"({"rules":[{"kind":"secret_to_swap"}]})",
                               &err));
  EXPECT_NE(err.find("rules[0]"), std::string::npos) << err;
  // Unknown kind.
  EXPECT_FALSE(rules_from_json(
      R"({"rules":[{"name":"x","kind":"bogus_kind"}]})", &err));
  EXPECT_NE(err.find("bogus_kind"), std::string::npos) << err;
  // Unknown severity.
  EXPECT_FALSE(rules_from_json(
      R"({"rules":[{"name":"x","kind":"secret_to_swap","severity":"loud"}]})",
      &err));
  // Missing required parameters.
  EXPECT_FALSE(rules_from_json(
      R"({"rules":[{"name":"x","kind":"exposure_budget"}]})", &err));
  EXPECT_FALSE(rules_from_json(
      R"({"rules":[{"name":"x","kind":"refusal_burst","bound":3}]})", &err));
}

TEST(AlertRules, DefaultRulesCoverTheAnomalies) {
  const auto rules = default_rules();
  ASSERT_EQ(rules.size(), 4u);
  const auto has = [&](RuleKind k) {
    return std::any_of(rules.begin(), rules.end(),
                       [&](const AlertRule& r) { return r.kind == k; });
  };
  EXPECT_TRUE(has(RuleKind::kSecretToSwap));
  EXPECT_TRUE(has(RuleKind::kResidueOnFree));
  EXPECT_TRUE(has(RuleKind::kSecretFrameMerged));
  EXPECT_TRUE(has(RuleKind::kRefusalBurst));
}

TEST(AlertRules, AlertJsonIsOneParseableObject) {
  Alert a;
  a.rule = "budget";
  a.kind = RuleKind::kExposureBudget;
  a.ts_ns = 42;
  a.breach_ts_ns = 41;
  a.value = 1.5;
  const auto text = alert_to_json(a);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 0);
  std::string err;
  const auto doc = util::json_parse(text, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto* breach = doc->get("breach_ts_ns");
  ASSERT_NE(breach, nullptr);
  EXPECT_EQ(breach->as_number(), 41.0);
}

// ----------------------------------------------------------- exact budgets --

TEST_F(AlertTest, BudgetCrossingInterpolatesExactly) {
  sim::Kernel kernel({.mem_bytes = 4ull << 20});
  util::Rng rng(7);
  scan::KeyPatterns patterns;
  scan::KeyPatterns::Pattern pat;
  pat.name = "d";
  pat.bytes.resize(64);
  rng.fill_bytes(pat.bytes);
  pat.bytes[0] = std::byte{0xA5};
  patterns.patterns.push_back(pat);

  analysis::ShadowTaintMap shadow(kernel);
  ExposureMonitor monitor(kernel.memory(), patterns);
  AlertEngine engine(kernel, shadow, &monitor);
  CollectSink sink;
  engine.add_sink(&sink);
  sim::TaintFanout fanout;
  fanout.add(&shadow);
  fanout.add(&monitor);
  fanout.add(&engine);
  kernel.attach_taint(&fanout);

  AlertRule r = rule(RuleKind::kExposureBudget, "budget");
  r.budget_byte_seconds = 64.0 * 1.25;  // 64 live bytes for 1.25 s
  engine.add_rule(r);

  auto& p = kernel.spawn("victim");
  const auto addr = kernel.heap_alloc(p, 4096, "key");
  manual_clock_advance(1'000'000'000);  // taint lands at t=1s
  kernel.mem_write(p, addr, pat.bytes, sim::TaintTag::kKeyD);
  ASSERT_TRUE(sink.alerts.empty());

  // The engine only saw events up to t=1s; the crossing at t=2.25s is in
  // the future. Advance PAST it and poll: detection happens now, but the
  // breach timestamp must interpolate back to the exact crossing.
  manual_clock_advance(3'000'000'000);
  engine.poll();
  ASSERT_EQ(sink.alerts.size(), 1u);
  EXPECT_EQ(sink.alerts[0].breach_ts_ns, 2'250'000'000u);
  EXPECT_EQ(sink.alerts[0].ts_ns, 4'000'000'000u);
  EXPECT_EQ(sink.alerts[0].key, 0);

  // The integral is monotone: it never un-crosses, so never re-fires.
  manual_clock_advance(1'000'000'000);
  engine.poll();
  EXPECT_EQ(sink.alerts.size(), 1u);
  kernel.attach_taint(nullptr);
}

// ------------------------------------------------- aggregates == the audit --

TEST_F(AlertTest, AggregatesEqualAuditUnderChurn) {
  Rig rig({.mem_bytes = 8ull << 20, .swap_pages = 8});
  // Full wiring: byte movements arrive via the taint fanout, state and
  // mlock flips via the bus — the equivalence needs both streams, which
  // is exactly how workloads attach the engine.
  EventBus::global().subscribe(&rig.engine);
  EventBus::global().set_enabled(true);
  util::Rng rng(21);
  auto& victim = rig.kernel.spawn("victim");
  auto& other = rig.kernel.spawn("other");

  std::vector<std::byte> page(sim::kPageSize);
  // Both processes lay mappings out from the same kMmapBase, so a bare
  // address does not name a page — every op must go to the mapping's
  // owner or it would fault on an unmapped (or wrong) page.
  struct Mapping {
    sim::Process* proc;
    sim::VirtAddr addr;
  };
  std::vector<Mapping> maps;
  const sim::TaintTag tags[] = {sim::TaintTag::kKeyD, sim::TaintTag::kKeyP,
                                sim::TaintTag::kMasterKey,
                                sim::TaintTag::kSealed, sim::TaintTag::kClean};
  for (int round = 0; round < 40; ++round) {
    manual_clock_advance(1'000'000);
    const auto pick = rng.next_u64() % 6;
    switch (pick) {
      case 0: {  // secret (or clean, or sealed) write into a fresh mapping
        auto& p = (round % 2) != 0 ? victim : other;
        const bool locked = (rng.next_u64() % 2) != 0;
        const auto addr = rig.kernel.mmap_anon(p, sim::kPageSize, locked);
        if (addr == 0) break;
        rng.fill_bytes(page);
        rig.kernel.mem_write(p, addr, page, tags[rng.next_u64() % 5]);
        maps.push_back({&p, addr});
        break;
      }
      case 1: {  // partial overwrite with clean data
        if (maps.empty()) break;
        const auto& m = maps[rng.next_u64() % maps.size()];
        rig.kernel.mem_write(*m.proc, m.addr + 100,
                             std::span(page).subspan(0, 512));
        break;
      }
      case 2: {  // scrub
        if (maps.empty()) break;
        const auto& m = maps[rng.next_u64() % maps.size()];
        rig.kernel.mem_zero(*m.proc, m.addr, sim::kPageSize);
        break;
      }
      case 3: {  // unmap: frames go back to the free lists, taint intact
        if (maps.empty()) break;
        const auto i = rng.next_u64() % maps.size();
        rig.kernel.munmap(*maps[i].proc, maps[i].addr, sim::kPageSize);
        maps.erase(maps.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 4:  // swap pressure on the victim
        rig.kernel.swap_out_pages(victim, 2);
        break;
      case 5: {  // COW fork/exit churn
        auto& child = rig.kernel.fork(victim, "child");
        rng.fill_bytes(page);
        for (const auto& m : maps) {
          if (m.proc == &victim) {  // the child inherited this mapping
            rig.kernel.mem_write(child, m.addr,
                                 std::span(page).subspan(0, 64));
            break;
          }
        }
        rig.kernel.exit_process(child);
        break;
      }
    }
    const auto div = aggregate_divergence(rig.engine, rig.shadow, rig.kernel);
    ASSERT_EQ(div, "") << "diverged at round " << round;
  }
  EventBus::global().unsubscribe(&rig.engine);
}

TEST_F(AlertTest, ResyncRebuildsAfterLateAttach) {
  // Taint the machine BEFORE the engine hears any hooks: the caches are
  // blind until resync() re-derives them from the shadow.
  sim::Kernel kernel({.mem_bytes = 4ull << 20, .swap_pages = 4});
  analysis::ShadowTaintMap shadow(kernel);
  sim::TaintFanout fanout;
  fanout.add(&shadow);
  kernel.attach_taint(&fanout);
  auto& p = kernel.spawn("early");
  const auto addr = kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/true);
  std::vector<std::byte> key(256, std::byte{0x5A});
  kernel.mem_write(p, addr, key, sim::TaintTag::kKeyD);
  // A master-key page, and a secret page that goes out to swap (its
  // vacated frame keeps the taint on the free lists).
  const auto master = kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/true);
  kernel.mem_write(p, master, std::span(key).first(32),
                   sim::TaintTag::kMasterKey);
  const auto paged = kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/false);
  kernel.mem_write(p, paged, std::span(key).first(64), sim::TaintTag::kKeyP);
  ASSERT_EQ(kernel.swap_out_pages(p, 1), 1u);

  AlertEngine engine(kernel, shadow);
  EXPECT_EQ(engine.aggregates().secret_frames, 0u);  // attached late, blind
  engine.resync();
  EXPECT_EQ(engine.aggregates().secret_frames, 3u);
  EXPECT_EQ(engine.aggregates().secret_mlocked_frames, 2u);
  EXPECT_EQ(engine.aggregates().master_key_frames, 1u);
  EXPECT_EQ(engine.aggregates().secret_unallocated_bytes, 64u);
  EXPECT_EQ(engine.aggregates().secret_swap_bytes, 64u);
  EXPECT_EQ(aggregate_divergence(engine, shadow, kernel), "");
  kernel.attach_taint(nullptr);
}

// ------------------------------------------------------- invariant watchers --

TEST_F(AlertTest, GraceWindowSwallowsTransients) {
  Rig rig({.mem_bytes = 4ull << 20});
  AlertRule r = rule(RuleKind::kWorkingSetBound, "wset");
  r.bound = 0;  // ANY non-master secret frame is a violation
  r.grace_ns = 100'000'000;
  rig.engine.add_rule(r);

  auto& p = rig.kernel.spawn("crypto");
  const auto addr = rig.kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/true);
  std::vector<std::byte> tmp(128, std::byte{0x42});

  // Transient: a CRT temporary lives for 50 ms, inside the grace window.
  rig.kernel.mem_write(p, addr, tmp, sim::TaintTag::kCrt);
  manual_clock_advance(50'000'000);
  rig.kernel.mem_zero(p, addr, sim::kPageSize);  // healed
  manual_clock_advance(200'000'000);
  rig.engine.poll();
  EXPECT_TRUE(rig.sink.alerts.empty());

  // Sustained: the same violation held past the grace window fires, and
  // the breach timestamp is when the violation BEGAN, not when it fired.
  const auto t0 = now_ns();
  rig.kernel.mem_write(p, addr, tmp, sim::TaintTag::kCrt);
  manual_clock_advance(150'000'000);
  rig.engine.poll();
  ASSERT_EQ(rig.sink.alerts.size(), 1u);
  EXPECT_EQ(rig.sink.alerts[0].breach_ts_ns, t0);
  EXPECT_GE(rig.sink.alerts[0].ts_ns, t0 + r.grace_ns);
}

TEST_F(AlertTest, LockedPagesBoundArmsOnFirstSecret) {
  Rig rig({.mem_bytes = 4ull << 20});
  AlertRule r = rule(RuleKind::kLockedPagesBound, "locked");
  r.bound = 1;
  r.cooldown_ns = 60'000'000'000ull;  // sustained violation fires once
  rig.engine.add_rule(r);

  // bounded_locked_pages_only demands >= 1 secret frame, so an empty
  // machine violates it — but the rule is dormant until first taint.
  manual_clock_advance(500'000'000);
  rig.engine.poll();
  EXPECT_TRUE(rig.sink.alerts.empty());

  // An UNLOCKED secret frame arms the rule and violates it immediately.
  auto& p = rig.kernel.spawn("leaky");
  const auto addr = rig.kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/false);
  std::vector<std::byte> key(64, std::byte{0x77});
  rig.kernel.mem_write(p, addr, key, sim::TaintTag::kKeyD);
  rig.engine.poll();  // grace_ns = 0: fires at once
  ASSERT_EQ(rig.sink.alerts.size(), 1u);
  EXPECT_EQ(rig.sink.alerts[0].kind, RuleKind::kLockedPagesBound);
}

// ----------------------------------------------------------- anomaly rules --

TEST_F(AlertTest, SecretToSwapFiresOnTheSwapOut) {
  Rig rig({.mem_bytes = 4ull << 20, .swap_pages = 4});
  rig.engine.add_rule(rule(RuleKind::kSecretToSwap, "swap"));

  auto& p = rig.kernel.spawn("victim");
  const auto addr = rig.kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/false);
  std::vector<std::byte> key(64, std::byte{0x3C});
  rig.kernel.mem_write(p, addr, key, sim::TaintTag::kKeyQ);
  EXPECT_TRUE(rig.sink.alerts.empty());
  ASSERT_EQ(rig.kernel.swap_out_pages(p, 1), 1u);
  ASSERT_EQ(rig.sink.alerts.size(), 1u);
  EXPECT_EQ(rig.sink.alerts[0].kind, RuleKind::kSecretToSwap);
  EXPECT_EQ(rig.sink.alerts[0].b, 64u);  // secret bytes on the slot

  // An mlocked twin never swaps: no false alert possible from this path.
  const auto safe = rig.kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/true);
  rig.kernel.mem_write(p, safe, key, sim::TaintTag::kKeyQ);
  rig.kernel.swap_out_pages(p, 4);
  EXPECT_EQ(rig.sink.alerts.size(), 1u);
}

TEST_F(AlertTest, ResidueOnFreeNeedsTheEventBus) {
  Rig rig({.mem_bytes = 4ull << 20});
  rig.engine.add_rule(rule(RuleKind::kResidueOnFree, "residue"));
  EventBus::global().subscribe(&rig.engine);
  EventBus::global().set_enabled(true);

  auto& p = rig.kernel.spawn("sloppy");
  const auto addr = rig.kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/false);
  std::vector<std::byte> key(64, std::byte{0x99});
  rig.kernel.mem_write(p, addr, key, sim::TaintTag::kKeyP);
  rig.kernel.munmap(p, addr, sim::kPageSize);  // freed uncleared
  ASSERT_EQ(rig.sink.alerts.size(), 1u);
  EXPECT_EQ(rig.sink.alerts[0].kind, RuleKind::kResidueOnFree);
  EXPECT_EQ(rig.sink.alerts[0].b, 64u);
  EventBus::global().unsubscribe(&rig.engine);
}

TEST_F(AlertTest, ScrubbedFreeStaysQuiet) {
  Rig rig({.mem_bytes = 4ull << 20, .zero_on_free = true});
  rig.engine.add_rule(rule(RuleKind::kResidueOnFree, "residue"));
  EventBus::global().subscribe(&rig.engine);
  EventBus::global().set_enabled(true);

  auto& p = rig.kernel.spawn("careful");
  const auto addr = rig.kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/false);
  std::vector<std::byte> key(64, std::byte{0x99});
  rig.kernel.mem_write(p, addr, key, sim::TaintTag::kKeyP);
  rig.kernel.munmap(p, addr, sim::kPageSize);  // zero_on_free scrubs first
  EXPECT_TRUE(rig.sink.alerts.empty());
  EventBus::global().unsubscribe(&rig.engine);
}

TEST_F(AlertTest, RefusalBurstCountsInsideTheWindow) {
  Rig rig({.mem_bytes = 4ull << 20});
  AlertRule r = rule(RuleKind::kRefusalBurst, "burst");
  r.bound = 3;
  r.window_ns = 1'000'000'000;
  r.cooldown_ns = 10'000'000'000;
  rig.engine.add_rule(r);
  EventBus::global().subscribe(&rig.engine);
  EventBus::global().set_enabled(true);

  // Two refusals 0.9 s apart, then nothing: below the bound.
  EventBus::global().publish(ObsEventKind::kKeystoreRefusal, 1);
  manual_clock_advance(900'000'000);
  EventBus::global().publish(ObsEventKind::kDomainRefusal, 0);
  manual_clock_advance(2'000'000'000);
  rig.engine.poll();
  EXPECT_TRUE(rig.sink.alerts.empty());

  // Three refusals inside one second: burst.
  for (int i = 0; i < 3; ++i) {
    manual_clock_advance(100'000'000);
    EventBus::global().publish(ObsEventKind::kKeystoreRefusal, 2);
  }
  ASSERT_EQ(rig.sink.alerts.size(), 1u);
  EXPECT_EQ(rig.sink.alerts[0].a, 3u);
  EventBus::global().unsubscribe(&rig.engine);
}

TEST_F(AlertTest, CooldownDedupsRepeatedFires) {
  Rig rig({.mem_bytes = 4ull << 20});
  AlertRule r = rule(RuleKind::kResidueOnFree, "residue");
  r.cooldown_ns = 1'000'000'000;
  rig.engine.add_rule(r);
  EventBus::global().subscribe(&rig.engine);
  EventBus::global().set_enabled(true);

  auto& p = rig.kernel.spawn("sloppy");
  std::vector<std::byte> key(64, std::byte{0xEE});
  const auto leak = [&] {
    const auto addr =
        rig.kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/false);
    rig.kernel.mem_write(p, addr, key, sim::TaintTag::kKeyP);
    rig.kernel.munmap(p, addr, sim::kPageSize);
  };
  leak();
  manual_clock_advance(10'000'000);
  leak();  // inside the cooldown: suppressed
  EXPECT_EQ(rig.sink.alerts.size(), 1u);
  manual_clock_advance(1'500'000'000);
  leak();  // cooled down: fires again
  EXPECT_EQ(rig.sink.alerts.size(), 2u);
  EventBus::global().unsubscribe(&rig.engine);
}

TEST_F(AlertTest, MetricsSinkCountsBySeverityAndRule) {
  MetricsRegistry reg;
  MetricsAlertSink sink(reg);
  Alert a;
  a.rule = "residue";
  a.severity = Severity::kWarning;
  sink.on_alert(a);
  sink.on_alert(a);
  a.rule = "swap";
  a.severity = Severity::kCritical;
  sink.on_alert(a);
  EXPECT_EQ(reg.counter("obs.alerts.total").value(), 3);
  EXPECT_EQ(reg.counter("obs.alerts.warning").value(), 2);
  EXPECT_EQ(reg.counter("obs.alerts.critical").value(), 1);
  EXPECT_EQ(reg.counter("obs.alerts.rule.residue").value(), 2);
}

// --------------------------------------------------------- flight recorder --

TEST_F(AlertTest, RingAccountsDropsExactly) {
  FlightRecorder rec;
  EventBus::global().subscribe(&rec);
  EventBus::global().set_enabled(true);
  constexpr std::uint64_t kPublished = FlightRecorder::kCapacity + 12;
  for (std::uint64_t i = 0; i < kPublished; ++i) {
    EventBus::global().publish(ObsEventKind::kFrameAllocated, i);
  }
  EXPECT_EQ(rec.events_seen(), kPublished);
  EXPECT_EQ(rec.events_overwritten(), 12u);  // exact, not "some"
  const auto ring = rec.ring();
  ASSERT_EQ(ring.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(ring.front().a, 12u);              // oldest survivor
  EXPECT_EQ(ring.back().a, kPublished - 1);    // newest, in order
  EventBus::global().unsubscribe(&rec);
}

TEST_F(AlertTest, FreezesOnlyAtTriggerSeverity) {
  FlightRecorder rec;
  EventBus::global().subscribe(&rec);
  EventBus::global().set_enabled(true);

  Alert warn;
  warn.rule = "residue";
  warn.severity = Severity::kWarning;
  warn.ts_ns = 5;
  rec.on_alert(warn);
  EXPECT_FALSE(rec.frozen());  // below the trigger: keep recording
  EventBus::global().publish(ObsEventKind::kFrameAllocated, 1);

  Alert crit;
  crit.rule = "swap";
  crit.severity = Severity::kCritical;
  crit.ts_ns = 9;
  rec.on_alert(crit);
  ASSERT_TRUE(rec.frozen());
  ASSERT_TRUE(rec.trigger_alert().has_value());
  EXPECT_EQ(rec.trigger_alert()->rule, "swap");

  // Frozen means frozen: later events do not disturb the breach window.
  const auto before = rec.ring().size();
  EventBus::global().publish(ObsEventKind::kFrameAllocated, 2);
  EXPECT_EQ(rec.ring().size(), before);
  EXPECT_EQ(rec.alerts().size(), 2u);  // both alerts kept, oldest first

  rec.reset();
  EXPECT_FALSE(rec.frozen());
  EXPECT_EQ(rec.events_seen(), 0u);
  EventBus::global().unsubscribe(&rec);
}

TEST_F(AlertTest, BundleIsParseableAndRedacted) {
  sim::Kernel kernel({.mem_bytes = 4ull << 20});
  analysis::ShadowTaintMap shadow(kernel);
  sim::TaintFanout fanout;
  fanout.add(&shadow);
  kernel.attach_taint(&fanout);

  // A recognizable secret: if any byte sequence from it (raw or hex)
  // shows up in the bundle, redaction-by-construction is broken.
  std::vector<std::byte> key(48);
  util::Rng rng(5);
  rng.fill_bytes(key);
  auto& p = kernel.spawn("victim");
  const auto addr = kernel.mmap_anon(p, sim::kPageSize, /*mlocked=*/false);
  kernel.mem_write(p, addr, key, sim::TaintTag::kKeyD);
  kernel.munmap(p, addr, sim::kPageSize);  // residue for the census

  FlightRecorder rec(&kernel, &shadow);
  Alert crit;
  crit.rule = "residue";
  crit.severity = Severity::kCritical;
  crit.ts_ns = now_ns();
  crit.breach_ts_ns = crit.ts_ns;
  rec.on_alert(crit);

  const auto bundle = rec.bundle_json();
  std::string err;
  const auto doc = util::json_parse(bundle, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_NE(doc->get("trigger"), nullptr);
  ASSERT_NE(doc->get("events"), nullptr);
  ASSERT_NE(doc->get("residue"), nullptr);
  const auto* schema = doc->get("schema_version");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_number(), 2.0);

  // Grind the bundle for the key, raw and hex, any 8-byte window.
  const std::string_view text = bundle;
  for (std::size_t i = 0; i + 8 <= key.size(); ++i) {
    const std::string_view raw(reinterpret_cast<const char*>(key.data()) + i,
                               8);
    EXPECT_EQ(text.find(raw), std::string_view::npos);
    std::string hex;
    for (std::size_t j = i; j < i + 8; ++j) {
      static const char* digits = "0123456789abcdef";
      hex += digits[std::to_integer<unsigned>(key[j]) >> 4];
      hex += digits[std::to_integer<unsigned>(key[j]) & 0xF];
    }
    EXPECT_EQ(text.find(hex), std::string_view::npos);
  }
  kernel.attach_taint(nullptr);
}

}  // namespace
}  // namespace keyguard::obs
