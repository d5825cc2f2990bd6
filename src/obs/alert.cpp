#include "obs/alert.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/json_reader.hpp"

namespace keyguard::obs {

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kCritical: return "critical";
  }
  return "?";
}

std::optional<Severity> severity_from_name(std::string_view name) noexcept {
  if (name == "info") return Severity::kInfo;
  if (name == "warning") return Severity::kWarning;
  if (name == "critical") return Severity::kCritical;
  return std::nullopt;
}

const char* rule_kind_name(RuleKind k) noexcept {
  switch (k) {
    case RuleKind::kExposureBudget: return "exposure_budget";
    case RuleKind::kLockedPagesBound: return "locked_pages_bound";
    case RuleKind::kWorkingSetBound: return "working_set_bound";
    case RuleKind::kSecretToSwap: return "secret_to_swap";
    case RuleKind::kResidueOnFree: return "residue_on_free";
    case RuleKind::kSecretFrameMerged: return "secret_frame_merged";
    case RuleKind::kRefusalBurst: return "refusal_burst";
  }
  return "?";
}

std::optional<RuleKind> rule_kind_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kRuleKindCount; ++i) {
    const auto k = static_cast<RuleKind>(i);
    if (name == rule_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::string alert_to_json(const Alert& alert) {
  util::JsonWriter w;
  w.begin_object()
      .field("rule", alert.rule)
      .field("kind", rule_kind_name(alert.kind))
      .field("severity", severity_name(alert.severity))
      .field("ts_ns", alert.ts_ns)
      .field("breach_ts_ns", alert.breach_ts_ns)
      .field("key", alert.key)
      .field("a", alert.a)
      .field("b", alert.b)
      .field("value", alert.value)
      .field("threshold", alert.threshold)
      .end_object();
  return w.str();
}

void StderrAlertSink::on_alert(const Alert& alert) {
  std::fprintf(stderr,
               "[keyguard-alert] %s %s rule=%s ts_ns=%" PRIu64
               " breach_ts_ns=%" PRIu64 " key=%" PRId64 " a=%" PRIu64
               " b=%" PRIu64 " value=%.6g threshold=%.6g\n",
               severity_name(alert.severity), rule_kind_name(alert.kind),
               alert.rule.c_str(), alert.ts_ns, alert.breach_ts_ns, alert.key,
               alert.a, alert.b, alert.value, alert.threshold);
}

JsonlAlertSink::JsonlAlertSink(const std::string& path)
    : out_(path, std::ios::app) {}

void JsonlAlertSink::on_alert(const Alert& alert) {
  if (!out_.good()) return;
  out_ << alert_to_json(alert) << '\n';
  out_.flush();
}

void MetricsAlertSink::on_alert(const Alert& alert) {
  reg_.counter("obs.alerts.total").add(1);
  reg_.counter(std::string("obs.alerts.") + severity_name(alert.severity))
      .add(1);
  reg_.counter(std::string("obs.alerts.rule.") + alert.rule).add(1);
}

AlertEngine::AlertEngine(const sim::Kernel& kernel,
                         const analysis::ShadowTaintMap& shadow,
                         ExposureMonitor* monitor)
    : kernel_(kernel), shadow_(shadow), monitor_(monitor) {
  frames_.resize(kernel_.memory().page_count());
  slot_secret_bytes_.resize(shadow_.swap_shadow().size() / sim::kPageSize, 0);
}

void AlertEngine::add_rule(AlertRule rule) {
  rules_.push_back(std::move(rule));
  states_.emplace_back();
}

void AlertEngine::add_sink(AlertSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

namespace {

/// A frame entry's share of the census, with `sign` +1 to add and -1 to
/// remove — every refresh applies the old entry at -1 and the new one at
/// +1, which keeps every field exact without ever walking the machine.
void apply_frame(analysis::SecretCensus& agg, std::uint64_t secret_bytes,
                 bool nonmaster, bool mlocked, sim::FrameState state,
                 std::int64_t sign) {
  if (secret_bytes == 0) return;
  agg.secret_frames += sign;
  if (mlocked) agg.secret_mlocked_frames += sign;
  if (!nonmaster) agg.master_key_frames += sign;
  switch (state) {
    case sim::FrameState::kFree:
      agg.secret_unallocated_bytes += sign * static_cast<std::int64_t>(secret_bytes);
      break;
    case sim::FrameState::kPageCache:
      agg.secret_page_cache_bytes += sign * static_cast<std::int64_t>(secret_bytes);
      break;
    case sim::FrameState::kKernel:
      agg.secret_kernel_bytes += sign * static_cast<std::int64_t>(secret_bytes);
      break;
    case sim::FrameState::kUserAnon:
      break;  // allocated bytes are not an invariant input
  }
}

}  // namespace

void AlertEngine::resync() {
  agg_ = analysis::SecretCensus{};
  std::fill(frames_.begin(), frames_.end(), FrameEntry{});
  std::fill(slot_secret_bytes_.begin(), slot_secret_bytes_.end(), 0);
  for (sim::FrameNumber f = 0; f < frames_.size(); ++f) refresh_frame(f);
  for (std::uint32_t s = 0; s < slot_secret_bytes_.size(); ++s) refresh_slot(s);
}

void AlertEngine::refresh_frame(sim::FrameNumber frame) {
  const analysis::PageSecrets& counts = shadow_.frame_secrets(frame);
  shadow_bytes_examined_ += sizeof(counts);
  FrameEntry& e = frames_[frame];
  // A frame with no secret bytes, before or after, contributes nothing
  // whatever its state: skip the allocator and mlock lookups.
  if (e.secret_bytes == 0 && counts.secret == 0) return;
  apply_frame(agg_, e.secret_bytes, e.nonmaster, e.mlocked, e.state, -1);
  e.secret_bytes = counts.secret;
  e.nonmaster = counts.nonmaster > 0;
  e.state = kernel_.allocator().state(frame);
  e.mlocked = kernel_.frame_mlocked(frame);
  apply_frame(agg_, e.secret_bytes, e.nonmaster, e.mlocked, e.state, +1);
}

void AlertEngine::refresh_range(std::size_t off, std::size_t len) {
  if (len == 0) return;
  const std::size_t last =
      std::min((off + len - 1) / sim::kPageSize + 1, frames_.size());
  for (std::size_t f = off / sim::kPageSize; f < last; ++f) {
    refresh_frame(static_cast<sim::FrameNumber>(f));
  }
}

void AlertEngine::refresh_slot(std::uint32_t slot) {
  if (slot >= slot_secret_bytes_.size()) return;
  const analysis::PageSecrets& counts = shadow_.slot_secrets(slot);
  shadow_bytes_examined_ += sizeof(counts);
  agg_.secret_swap_bytes += counts.secret;
  agg_.secret_swap_bytes -= slot_secret_bytes_[slot];
  slot_secret_bytes_[slot] = counts.secret;
}

void AlertEngine::on_phys_store(std::size_t off, std::size_t len,
                                sim::TaintTag /*tag*/) {
  refresh_range(off, len);
  evaluate(now_ns());
}

void AlertEngine::on_phys_copy(std::size_t dst, std::size_t /*src*/,
                               std::size_t len) {
  refresh_range(dst, len);
  evaluate(now_ns());
}

void AlertEngine::on_phys_clear(std::size_t off, std::size_t len) {
  refresh_range(off, len);
  evaluate(now_ns());
}

void AlertEngine::on_swap_store(std::uint32_t slot, std::size_t /*phys_src*/) {
  refresh_slot(slot);
  const std::uint64_t ts = now_ns();
  if (slot < slot_secret_bytes_.size() && slot_secret_bytes_[slot] > 0) {
    // Secret bytes just crossed the RAM/swap boundary: a single-event
    // fact, detected here (on the taint path, so it fires even when the
    // event bus is disabled) rather than on the later kSwapOut event.
    fire_anomaly(RuleKind::kSecretToSwap, ts, slot, slot_secret_bytes_[slot],
                 0.0);
  }
  evaluate(ts);
}

void AlertEngine::on_swap_load(std::size_t phys_dst, std::uint32_t /*slot*/) {
  refresh_range(phys_dst, sim::kPageSize);
  evaluate(now_ns());
}

void AlertEngine::on_swap_clear(std::uint32_t slot) {
  refresh_slot(slot);
  evaluate(now_ns());
}

void AlertEngine::on_obs_event(const ObsEvent& ev) {
  // State/mlock flips move no bytes: one refresh of the frame under its
  // new state keeps every census field exact. This is the entire cost of
  // the hot alloc/free path.
  const auto frame = static_cast<sim::FrameNumber>(ev.a);
  switch (ev.kind) {
    case ObsEventKind::kFrameAllocated:
    case ObsEventKind::kMlockChanged:
      if (frame < frames_.size()) refresh_frame(frame);
      break;
    case ObsEventKind::kFrameFreed:
      if (frame < frames_.size()) {
        refresh_frame(frame);
        // The frame went back to the free lists with live taint — the
        // scrub-free residue the paper's scans kept finding. kFrameFreed
        // is published after any zero-on-free clear, so a defended
        // kernel never reaches this branch.
        if (frames_[frame].secret_bytes > 0) {
          fire_anomaly(RuleKind::kResidueOnFree, ev.ts_ns, frame,
                       frames_[frame].secret_bytes, 0.0);
        }
      }
      break;
    case ObsEventKind::kPageMerged:
      // A secret-tainted frame now backs a stranger's mapping: the
      // share-count side channel the dedup probe times.
      if (frame < frames_.size() && frames_[frame].secret_bytes > 0 &&
          ev.b > 1) {
        fire_anomaly(RuleKind::kSecretFrameMerged, ev.ts_ns, frame, ev.b, 1.0);
      }
      break;
    case ObsEventKind::kKeystoreRefusal:
    case ObsEventKind::kDomainRefusal:
      note_refusal(ev.ts_ns);
      break;
    default:
      break;  // swap/cow/keystore traffic: taint hooks already updated state
  }
  evaluate(ev.ts_ns);
}

void AlertEngine::poll() { evaluate(now_ns()); }

void AlertEngine::evaluate(std::uint64_t ts) {
  ++evaluations_;
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    switch (rules_[ri].kind) {
      case RuleKind::kExposureBudget:
        evaluate_budget(ri, ts);
        break;
      case RuleKind::kLockedPagesBound:
      case RuleKind::kWorkingSetBound:
        evaluate_invariant(ri, ts);
        break;
      case RuleKind::kRefusalBurst: {
        RuleState& st = states_[ri];
        const AlertRule& r = rules_[ri];
        while (!st.bursts.empty() &&
               st.bursts.front() + r.window_ns < ts) {
          st.bursts.pop_front();
        }
        if (st.bursts.size() >= r.bound && r.bound > 0 &&
            cooled_down(r, st, ts)) {
          Alert a;
          a.rule = r.name;
          a.kind = r.kind;
          a.severity = r.severity;
          a.ts_ns = ts;
          a.breach_ts_ns = ts;
          a.a = st.bursts.size();
          a.b = r.window_ns;
          a.value = static_cast<double>(st.bursts.size());
          a.threshold = static_cast<double>(r.bound);
          fire(ri, std::move(a));
        }
        break;
      }
      default:
        break;  // anomaly rules fire at their triggering event
    }
  }
}

void AlertEngine::evaluate_budget(std::size_t ri, std::uint64_t ts) {
  if (monitor_ == nullptr) return;
  const AlertRule& r = rules_[ri];
  RuleState& st = states_[ri];
  if (st.budget.size() < monitor_->key_count()) {
    st.budget.resize(monitor_->key_count());
  }
  const std::size_t lo = r.key >= 0 ? static_cast<std::size_t>(r.key) : 0;
  const std::size_t hi =
      r.key >= 0 ? lo + 1 : monitor_->key_count();
  for (std::size_t k = lo; k < hi && k < st.budget.size(); ++k) {
    BudgetState& b = st.budget[k];
    const KeyExposure ex = monitor_->exposure(k);
    if (b.primed && !b.fired && ex.byte_seconds >= r.budget_byte_seconds) {
      // Between the previous sample (t0, I0) and this one the live-byte
      // count was the constant b.last_live (it only changes at taint
      // events, and every taint event is a sample point), so the
      // integral was exactly linear — invert it for the crossing
      // instant. See DESIGN §13 for why this is exact, not estimated.
      std::uint64_t breach = ts;
      if (b.last_bs < r.budget_byte_seconds && b.last_live > 0) {
        const double dt_s =
            (r.budget_byte_seconds - b.last_bs) / static_cast<double>(b.last_live);
        breach = b.last_ts + static_cast<std::uint64_t>(dt_s * 1e9 + 0.5);
      } else if (b.last_bs >= r.budget_byte_seconds) {
        breach = b.last_ts;
      }
      Alert a;
      a.rule = r.name;
      a.kind = r.kind;
      a.severity = r.severity;
      a.ts_ns = ts;
      a.breach_ts_ns = breach;
      a.key = static_cast<std::int64_t>(k);
      a.a = ex.live_copies;
      a.b = ex.live_bytes;
      a.value = ex.byte_seconds;
      a.threshold = r.budget_byte_seconds;
      b.fired = true;  // the integral is monotone: once over, always over
      fire(ri, std::move(a));
    }
    b.last_bs = ex.byte_seconds;
    b.last_ts = ts;
    b.last_live = ex.live_bytes;
    b.primed = true;
  }
}

void AlertEngine::evaluate_invariant(std::size_t ri, std::uint64_t ts) {
  const AlertRule& r = rules_[ri];
  RuleState& st = states_[ri];
  if (r.kind == RuleKind::kLockedPagesBound && !st.armed) {
    // bounded_locked_pages_only demands >= 1 secret frame, which is
    // false before the first key loads. Arm the rule at the first sight
    // of secret taint so startup is not a violation.
    if (agg_.secret_frames == 0) return;
    st.armed = true;
  }
  const bool ok = r.kind == RuleKind::kLockedPagesBound
                      ? agg_.bounded_locked_pages_only(r.bound)
                      : agg_.bounded_plaintext_working_set(r.bound);
  if (ok) {
    st.pending_since = 0;
    return;
  }
  if (st.pending_since == 0) st.pending_since = ts;
  if (ts - st.pending_since < r.grace_ns) return;
  if (!cooled_down(r, st, ts)) return;
  Alert a;
  a.rule = r.name;
  a.kind = r.kind;
  a.severity = r.severity;
  a.ts_ns = ts;
  a.breach_ts_ns = st.pending_since;  // when the violation began
  a.a = agg_.secret_frames;
  a.b = agg_.secret_unallocated_bytes + agg_.secret_page_cache_bytes +
        agg_.secret_kernel_bytes + agg_.secret_swap_bytes;
  a.value = static_cast<double>(agg_.secret_frames - agg_.master_key_frames);
  a.threshold = static_cast<double>(r.bound);
  fire(ri, std::move(a));
}

void AlertEngine::note_refusal(std::uint64_t ts) {
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    if (rules_[ri].kind == RuleKind::kRefusalBurst) {
      states_[ri].bursts.push_back(ts);
    }
  }
}

bool AlertEngine::cooled_down(const AlertRule& rule, const RuleState& st,
                              std::uint64_t ts) const {
  if (!st.fired_once) return true;
  return ts - st.last_fired >= rule.cooldown_ns;
}

void AlertEngine::fire_anomaly(RuleKind kind, std::uint64_t ts,
                               std::uint64_t a, std::uint64_t b,
                               double threshold) {
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    const AlertRule& r = rules_[ri];
    if (r.kind != kind || !cooled_down(r, states_[ri], ts)) continue;
    Alert alert;
    alert.rule = r.name;
    alert.kind = r.kind;
    alert.severity = r.severity;
    alert.ts_ns = ts;
    alert.breach_ts_ns = ts;
    alert.a = a;
    alert.b = b;
    alert.value = static_cast<double>(b);
    alert.threshold = threshold;
    fire(ri, std::move(alert));
  }
}

void AlertEngine::fire(std::size_t ri, Alert alert) {
  RuleState& st = states_[ri];
  st.last_fired = alert.ts_ns;
  st.fired_once = true;
  ++alerts_fired_;
  for (auto* s : sinks_) s->on_alert(alert);
}

namespace {

std::optional<AlertRule> rule_from_value(const util::JsonValue& v,
                                         std::size_t index,
                                         std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = "rules[" + std::to_string(index) + "]: " + msg;
    }
    return std::nullopt;
  };
  if (v.kind() != util::JsonValue::Kind::kObject) {
    return fail("not an object");
  }
  AlertRule r;
  const auto* name = v.get("name");
  if (name == nullptr || name->kind() != util::JsonValue::Kind::kString) {
    return fail("missing string field \"name\"");
  }
  r.name = name->as_string();
  const auto* kind = v.get("kind");
  if (kind == nullptr || kind->kind() != util::JsonValue::Kind::kString) {
    return fail("missing string field \"kind\"");
  }
  const auto parsed_kind = rule_kind_from_name(kind->as_string());
  if (!parsed_kind) return fail("unknown kind \"" + kind->as_string() + "\"");
  r.kind = *parsed_kind;
  if (const auto* sev = v.get("severity"); sev != nullptr) {
    if (sev->kind() != util::JsonValue::Kind::kString) {
      return fail("\"severity\" must be a string");
    }
    const auto parsed = severity_from_name(sev->as_string());
    if (!parsed) return fail("unknown severity \"" + sev->as_string() + "\"");
    r.severity = *parsed;
  }
  r.budget_byte_seconds = v.get_number("budget_byte_seconds", 0.0);
  r.key = static_cast<std::int64_t>(v.get_number("key", -1.0));
  r.bound = static_cast<std::uint64_t>(v.get_number("bound", 0.0));
  r.window_ns = static_cast<std::uint64_t>(v.get_number("window_ns", 0.0));
  r.grace_ns = static_cast<std::uint64_t>(v.get_number("grace_ns", 0.0));
  r.cooldown_ns = static_cast<std::uint64_t>(v.get_number("cooldown_ns", 0.0));
  switch (r.kind) {
    case RuleKind::kExposureBudget:
      if (r.budget_byte_seconds <= 0.0) {
        return fail("exposure_budget needs budget_byte_seconds > 0");
      }
      break;
    case RuleKind::kRefusalBurst:
      if (r.bound == 0) return fail("refusal_burst needs bound > 0");
      if (r.window_ns == 0) return fail("refusal_burst needs window_ns > 0");
      break;
    default:
      break;  // bounds of 0 are legal for the invariant rules
  }
  return r;
}

}  // namespace

std::optional<std::vector<AlertRule>> rules_from_json(std::string_view text,
                                                      std::string* error) {
  auto doc = util::json_parse(text, error);
  if (!doc) return std::nullopt;
  if (doc->kind() != util::JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "root is not an object";
    return std::nullopt;
  }
  const auto* rules = doc->get("rules");
  if (rules == nullptr || rules->kind() != util::JsonValue::Kind::kArray) {
    if (error != nullptr) *error = "missing array field \"rules\"";
    return std::nullopt;
  }
  std::vector<AlertRule> out;
  out.reserve(rules->items().size());
  for (std::size_t i = 0; i < rules->items().size(); ++i) {
    auto r = rule_from_value(rules->items()[i], i, error);
    if (!r) return std::nullopt;
    out.push_back(std::move(*r));
  }
  return out;
}

std::vector<AlertRule> default_rules() {
  std::vector<AlertRule> out;
  {
    AlertRule r;
    r.name = "secret-to-swap";
    r.kind = RuleKind::kSecretToSwap;
    r.severity = Severity::kCritical;
    out.push_back(std::move(r));
  }
  {
    AlertRule r;
    r.name = "residue-on-free";
    r.kind = RuleKind::kResidueOnFree;
    r.severity = Severity::kWarning;
    out.push_back(std::move(r));
  }
  {
    AlertRule r;
    r.name = "secret-frame-merged";
    r.kind = RuleKind::kSecretFrameMerged;
    r.severity = Severity::kCritical;
    out.push_back(std::move(r));
  }
  {
    AlertRule r;
    r.name = "refusal-burst";
    r.kind = RuleKind::kRefusalBurst;
    r.severity = Severity::kWarning;
    r.bound = 8;
    r.window_ns = 1'000'000'000ull;
    r.cooldown_ns = 1'000'000'000ull;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace keyguard::obs
