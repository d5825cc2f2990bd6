// Real-time exposure SLO alert engine: the active half of the
// observability layer (the passive half — metrics, traces, the exposure
// monitor — measures; this file decides and fires).
//
// The engine is BOTH a sim::TaintTracker (add it to the Kernel's
// TaintFanout after the ShadowTaintMap and ExposureMonitor, so every
// byte movement reaches it with the shadow and integrals already
// updated) and an obs::ObsEventSink (subscribe it to the EventBus for
// the signals that move no bytes: frees, mlock flips, merges, swap
// crossings, keystore/domain refusals). Between the two streams every
// state change that can flip a rule's verdict coincides with an
// evaluation point — that is what makes detection event-accurate and
// budget-crossing timestamps exact (see DESIGN §13):
//
//   For an exposure budget B on key k, live plaintext bytes L_k(t) are
//   piecewise-constant and change ONLY at taint-hook events. The
//   monitor accrues ∫L_k dt lazily against the same obs clock, and the
//   engine samples it at every event, so between the engine's last
//   sample (t0, I0, L0) and the sample that first sees I >= B the
//   integral is exactly linear: I(t) = I0 + L0·(t - t0)/1e9. Solving
//   I(t*) = B gives the breach instant to the nanosecond — not "some
//   time during the last sweep period".
//
// Invariant rules turn the TaintAuditor's end-of-run predicates
// (analysis::SecretCensus: bounded_locked_pages_only /
// bounded_plaintext_working_set) into continuously-enforced watchers.
// Rather than re-auditing the whole shadow per event, the engine keeps
// the census incrementally from the shadow map's per-frame and per-slot
// secret counts. It caches, per frame, the counts plus the frame's
// allocator state and mlock bit; every taint hook refreshes exactly the
// frames (or the slot) the event touched — take the cached entry's share
// out of the census, re-read counts, state and mlock, add the share back
// — so a hook costs O(frames touched), not O(bytes moved), and a state or
// mlock flip arriving over the bus is one refresh. A periodic sweep pays
// O(machine) per period instead; bench_alert_latency quantifies the gap.
// The equivalence census == audit is asserted under churn in
// obs_alert_test.
//
// ORDER CONTRACT: the engine reads the shadow map's counts, so it must
// hear every hook AFTER the map has applied it — add it to the
// TaintFanout after the ShadowTaintMap. Attached out of order, the
// engine caches the counts from before the event and the census goes
// stale until the next refresh of that frame.
//
// False-alert discipline: legitimate crypto transiently violates the
// invariants (CRT temporaries live in the heap for the duration of a
// private op). Each invariant rule therefore carries a grace window:
// a violation arms a pending timer and fires only if a later
// evaluation still sees it violated after grace_ns. Every restoration
// also coincides with an event, so transient violations that heal
// within the window never fire. Anomaly rules (secret byte on swap,
// residue on free, secret frame merged, refusal burst) are
// single-event facts and fire immediately, subject to per-rule
// cooldown dedup.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/taint_map.hpp"
#include "obs/event_bus.hpp"
#include "obs/exposure_monitor.hpp"
#include "sim/kernel.hpp"
#include "sim/taint.hpp"

namespace keyguard::obs {

class MetricsRegistry;

enum class Severity : std::uint8_t { kInfo, kWarning, kCritical };

const char* severity_name(Severity s) noexcept;
std::optional<Severity> severity_from_name(std::string_view name) noexcept;

enum class RuleKind : std::uint8_t {
  kExposureBudget,     ///< ∫bytes·dt for a key crosses budget_byte_seconds
  kLockedPagesBound,   ///< !bounded_locked_pages_only(bound) past grace
  kWorkingSetBound,    ///< !bounded_plaintext_working_set(bound) past grace
  kSecretToSwap,       ///< a swap slot gained secret-tagged bytes
  kResidueOnFree,      ///< a frame returned to the free lists still tainted
  kSecretFrameMerged,  ///< dedup merged a secret frame (share_count > 1)
  kRefusalBurst,       ///< >= bound keystore/domain refusals inside window_ns
};

inline constexpr std::size_t kRuleKindCount = 7;

const char* rule_kind_name(RuleKind k) noexcept;
std::optional<RuleKind> rule_kind_from_name(std::string_view name) noexcept;

/// One declarative rule. Which parameters apply depends on `kind`; the
/// rest are ignored (rules_from_json only accepts the applicable ones).
struct AlertRule {
  std::string name;  ///< unique label, used in alert output and metrics
  RuleKind kind = RuleKind::kSecretToSwap;
  Severity severity = Severity::kWarning;

  double budget_byte_seconds = 0.0;  ///< kExposureBudget threshold
  std::int64_t key = -1;             ///< kExposureBudget: -1 = every key
  std::uint64_t bound = 0;       ///< page bound / working-set bound / burst count
  std::uint64_t window_ns = 0;   ///< kRefusalBurst sliding window
  std::uint64_t grace_ns = 0;    ///< invariant rules: sustained-violation gate
  std::uint64_t cooldown_ns = 0; ///< min spacing between fires of this rule
};

/// One fired alert. Numeric payload only (plus rule metadata strings) —
/// the same redaction-by-construction property as the event bus: nothing
/// here can reproduce key bytes in a log line or a forensic bundle.
struct Alert {
  std::string rule;  ///< AlertRule::name
  RuleKind kind = RuleKind::kSecretToSwap;
  Severity severity = Severity::kWarning;
  std::uint64_t ts_ns = 0;         ///< evaluation instant that detected it
  std::uint64_t breach_ts_ns = 0;  ///< exact breach instant (budget rules
                                   ///< interpolate; otherwise == ts_ns)
  std::int64_t key = -1;           ///< key index where applicable
  std::uint64_t a = 0;  ///< rule-specific: frame / slot / refusal count
  std::uint64_t b = 0;  ///< rule-specific: bytes / share count / window_ns
  double value = 0.0;      ///< observed quantity (byte·s, frames, bytes)
  double threshold = 0.0;  ///< configured limit the observation crossed
};

/// One alert as a single-line JSON object (JSONL sink, forensic bundle).
std::string alert_to_json(const Alert& alert);

class AlertSink {
 public:
  virtual ~AlertSink() = default;
  virtual void on_alert(const Alert& alert) = 0;
};

/// Human-readable one-liner to stderr.
class StderrAlertSink final : public AlertSink {
 public:
  void on_alert(const Alert& alert) override;
};

/// One JSON object per line, appended to `path`.
class JsonlAlertSink final : public AlertSink {
 public:
  explicit JsonlAlertSink(const std::string& path);
  bool ok() const { return out_.good(); }
  void on_alert(const Alert& alert) override;

 private:
  std::ofstream out_;
};

/// obs.alerts.total / obs.alerts.<severity> / obs.alerts.rule.<name>.
class MetricsAlertSink final : public AlertSink {
 public:
  explicit MetricsAlertSink(MetricsRegistry& reg) : reg_(reg) {}
  void on_alert(const Alert& alert) override;

 private:
  MetricsRegistry& reg_;
};

class AlertEngine final : public sim::TaintTracker, public ObsEventSink {
 public:
  /// Borrows everything; all referents must outlive the engine. `monitor`
  /// may be null when no kExposureBudget rule is installed. The engine
  /// does not attach itself anywhere: add it to the workload's
  /// TaintFanout AFTER the shadow map (required: see the order contract
  /// above) and monitor, and subscribe it to EventBus::global() after any
  /// FlightRecorder (so the breaching event is in the ring before the
  /// alert freezes it).
  AlertEngine(const sim::Kernel& kernel, const analysis::ShadowTaintMap& shadow,
              ExposureMonitor* monitor = nullptr);

  void add_rule(AlertRule rule);
  void add_sink(AlertSink* sink);  ///< borrowed, fan-out in add order
  const std::vector<AlertRule>& rules() const noexcept { return rules_; }

  /// Full rebuild of the per-frame/per-slot caches from the shadow map's
  /// counts. Call once after attaching if the machine may already hold
  /// taint.
  void resync();

  // sim::TaintTracker — byte movements (fired after the shadow updated).
  void on_phys_store(std::size_t off, std::size_t len, sim::TaintTag tag) override;
  void on_phys_copy(std::size_t dst, std::size_t src, std::size_t len) override;
  void on_phys_clear(std::size_t off, std::size_t len) override;
  void on_swap_store(std::uint32_t slot, std::size_t phys_src) override;
  void on_swap_load(std::size_t phys_dst, std::uint32_t slot) override;
  void on_swap_clear(std::uint32_t slot) override;

  // obs::ObsEventSink — byte-free state changes and anomaly triggers.
  void on_obs_event(const ObsEvent& ev) override;

  /// Evaluate every rule at the current obs clock without an event — for
  /// quiet periods where only time advances (grace expiry, budget
  /// crossings while the live set is static).
  void poll();

  /// The invariant watchers' census, maintained per event; equal to a
  /// fresh TaintAuditor audit's census() at every instant.
  const analysis::SecretCensus& aggregates() const noexcept { return agg_; }
  std::uint64_t alerts_fired() const noexcept { return alerts_fired_; }
  std::uint64_t evaluations() const noexcept { return evaluations_; }
  /// Bytes of the shadow map's per-frame and per-slot count entries
  /// (analysis::PageSecrets) the engine has read — its total inspection
  /// cost, directly comparable with sweeps × shadow size for the
  /// periodic-audit baseline (bench_alert_latency).
  std::uint64_t shadow_bytes_examined() const noexcept {
    return shadow_bytes_examined_;
  }

 private:
  struct FrameEntry {
    std::uint32_t secret_bytes = 0;  ///< shadow count at the last refresh
    bool nonmaster = false;          ///< a non-master secret byte was present
    bool mlocked = false;
    sim::FrameState state = sim::FrameState::kFree;
  };
  struct BudgetState {
    double last_bs = 0.0;          ///< integral at the previous sample
    std::uint64_t last_ts = 0;     ///< when it was sampled
    std::size_t last_live = 0;     ///< live bytes then (the linear rate)
    bool primed = false;           ///< at least one sample taken
    bool fired = false;            ///< integral is monotone: fire once
  };
  struct RuleState {
    std::uint64_t pending_since = 0;  ///< invariant violation arm time (0=idle)
    std::uint64_t last_fired = 0;
    bool fired_once = false;
    bool armed = false;  ///< kLockedPagesBound: seen secret_frames >= 1
    std::vector<BudgetState> budget;   ///< per key (kExposureBudget)
    std::deque<std::uint64_t> bursts;  ///< refusal timestamps (kRefusalBurst)
  };

  /// Re-reads `frame`'s counts, allocator state and mlock bit, moving its
  /// share of the census from the cached entry to the fresh one.
  void refresh_frame(sim::FrameNumber frame);
  /// refresh_frame over every frame [off, off+len) touches.
  void refresh_range(std::size_t off, std::size_t len);
  void refresh_slot(std::uint32_t slot);
  void evaluate(std::uint64_t ts);
  void evaluate_budget(std::size_t ri, std::uint64_t ts);
  void evaluate_invariant(std::size_t ri, std::uint64_t ts);
  void note_refusal(std::uint64_t ts);
  bool cooled_down(const AlertRule& rule, const RuleState& st,
                   std::uint64_t ts) const;
  /// Fires every cooled-down rule of `kind` for one single-event anomaly.
  void fire_anomaly(RuleKind kind, std::uint64_t ts, std::uint64_t a,
                    std::uint64_t b, double threshold);
  void fire(std::size_t ri, Alert alert);

  const sim::Kernel& kernel_;
  const analysis::ShadowTaintMap& shadow_;
  ExposureMonitor* monitor_;
  std::vector<AlertRule> rules_;
  std::vector<RuleState> states_;
  std::vector<AlertSink*> sinks_;
  std::vector<FrameEntry> frames_;
  std::vector<std::uint32_t> slot_secret_bytes_;
  analysis::SecretCensus agg_;
  std::uint64_t alerts_fired_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t shadow_bytes_examined_ = 0;
};

/// Parses {"rules":[{...},...]} (see README "Observability" for the
/// schema). Returns std::nullopt and sets `error` on malformed input,
/// unknown kinds/severities, or missing required parameters.
std::optional<std::vector<AlertRule>> rules_from_json(std::string_view text,
                                                      std::string* error);

/// The anomaly rules every defended scenario should want: secret-to-swap
/// (critical), residue-on-free (warning), secret-frame-merged (critical),
/// refusal-burst of 8 inside 1s (warning). Budget and invariant rules
/// carry scenario-specific thresholds, so they come from JSON only.
std::vector<AlertRule> default_rules();

}  // namespace keyguard::obs
