#include "obs/flight_recorder.hpp"

#include <fstream>

#include "analysis/taint_auditor.hpp"
#include "obs/clock.hpp"
#include "obs/exposure_monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/kernel.hpp"
#include "util/json.hpp"

namespace keyguard::obs {

FlightRecorder::FlightRecorder(const sim::Kernel* kernel,
                               const analysis::ShadowTaintMap* shadow,
                               ExposureMonitor* monitor)
    : kernel_(kernel), shadow_(shadow), monitor_(monitor) {
  ring_.reserve(kCapacity);
}

void FlightRecorder::on_obs_event(const ObsEvent& ev) {
  if (frozen_) return;
  ++seen_;
  if (ring_.size() < kCapacity) {
    ring_.push_back(ev);
    return;
  }
  // Ring full: overwrite the oldest and say so — the bundle's "last K of
  // N events, D overwritten" is exact, never "some were probably lost".
  ring_[head_] = ev;
  head_ = (head_ + 1) % kCapacity;
  ++overwritten_;
}

void FlightRecorder::on_alert(const Alert& alert) {
  if (alerts_.size() < kMaxAlerts) {
    alerts_.push_back(alert);
  } else {
    ++alerts_dropped_;
  }
  if (!frozen_ && alert.severity >= kTrigger) {
    frozen_ = true;
    frozen_at_ns_ = now_ns();
    trigger_ = alert;
  }
}

std::vector<ObsEvent> FlightRecorder::ring() const {
  std::vector<ObsEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < kCapacity) {
    out = ring_;  // never wrapped: insertion order is chronological
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % kCapacity]);
    }
  }
  return out;
}

void FlightRecorder::reset() {
  ring_.clear();
  head_ = 0;
  seen_ = 0;
  overwritten_ = 0;
  alerts_.clear();
  alerts_dropped_ = 0;
  trigger_.reset();
  frozen_at_ns_ = 0;
  frozen_ = false;
}

namespace {

void write_alert(util::JsonWriter& w, const Alert& a) {
  w.begin_object()
      .field("rule", a.rule)
      .field("kind", rule_kind_name(a.kind))
      .field("severity", severity_name(a.severity))
      .field("ts_ns", a.ts_ns)
      .field("breach_ts_ns", a.breach_ts_ns)
      .field("key", a.key)
      .field("a", a.a)
      .field("b", a.b)
      .field("value", a.value)
      .field("threshold", a.threshold)
      .end_object();
}

void write_location_totals(util::JsonWriter& w,
                           const analysis::LocationTotals& t) {
  w.begin_object()
      .field("allocated", static_cast<std::uint64_t>(t.allocated))
      .field("mlocked", static_cast<std::uint64_t>(t.mlocked))
      .field("unallocated", static_cast<std::uint64_t>(t.unallocated))
      .field("page_cache", static_cast<std::uint64_t>(t.page_cache))
      .field("kernel", static_cast<std::uint64_t>(t.kernel))
      .field("swap", static_cast<std::uint64_t>(t.swap))
      .end_object();
}

}  // namespace

std::string FlightRecorder::bundle_json() {
  util::JsonWriter w;
  begin_report(w, "flight_recorder");
  w.field("bundle", "forensic");
  w.field("frozen", frozen_);
  w.field("frozen_at_ns", frozen_at_ns_);

  w.key("trigger");
  if (trigger_) {
    write_alert(w, *trigger_);
  } else {
    w.begin_object().end_object();
  }

  w.key("events").begin_object();
  w.field("capacity", static_cast<std::uint64_t>(kCapacity));
  w.field("seen", seen_);
  w.field("overwritten", overwritten_);
  w.key("ring").begin_array();
  for (const ObsEvent& ev : ring()) {
    w.begin_object()
        .field("kind", obs_event_kind_name(ev.kind))
        .field("ts_ns", ev.ts_ns)
        .field("a", ev.a)
        .field("b", ev.b)
        .field("c", ev.c)
        .end_object();
  }
  w.end_array().end_object();

  w.key("alerts").begin_object();
  w.field("dropped", alerts_dropped_);
  w.key("items").begin_array();
  for (const Alert& a : alerts_) write_alert(w, a);
  w.end_array().end_object();

  if (monitor_ != nullptr) {
    w.key("exposure").begin_object();
    w.key("keys").begin_array();
    for (std::size_t k = 0; k < monitor_->key_count(); ++k) {
      const KeyExposure ex = monitor_->exposure(k);
      w.begin_object()
          .field("key", static_cast<std::uint64_t>(k))
          .field("live_copies", static_cast<std::uint64_t>(ex.live_copies))
          .field("live_bytes", static_cast<std::uint64_t>(ex.live_bytes))
          .field("byte_seconds", ex.byte_seconds)
          .field("peak_copies", static_cast<std::uint64_t>(ex.peak_copies))
          .field("copies_created", ex.copies_created)
          .field("copies_destroyed", ex.copies_destroyed)
          .end_object();
    }
    w.end_array();
    w.key("copies").begin_array();
    for (const scan::RawMatch& c : monitor_->copies()) {
      w.begin_object()
          .field("offset", static_cast<std::uint64_t>(c.offset))
          .field("pattern", static_cast<std::uint64_t>(c.pattern_index))
          .end_object();
    }
    w.end_array().end_object();
  }

  if (kernel_ != nullptr && shadow_ != nullptr) {
    const analysis::TaintAuditor auditor(*shadow_);
    const analysis::AuditReport report = auditor.audit(*kernel_);
    w.key("residue").begin_object();
    w.field("regions_total", static_cast<std::uint64_t>(report.regions.size()));
    w.field("secret_tainted_frames",
            static_cast<std::uint64_t>(report.secret_tainted_frames));
    w.field("secret_mlocked_frames",
            static_cast<std::uint64_t>(report.secret_mlocked_frames));
    w.field("master_key_frames",
            static_cast<std::uint64_t>(report.master_key_frames));
    w.key("secret");
    write_location_totals(w, report.secret);
    w.key("sealed");
    write_location_totals(w, report.sealed);
    w.key("regions").begin_array();
    std::size_t emitted = 0;
    for (const analysis::TaintedRegion& r : report.regions) {
      if (emitted >= kMaxResidueRegions) break;
      ++emitted;
      // Locations, sizes and tag/state names only — never region bytes.
      w.begin_object()
          .field("in_swap", r.in_swap)
          .field("offset", static_cast<std::uint64_t>(r.offset))
          .field("length", static_cast<std::uint64_t>(r.length))
          .field("tag", sim::taint_tag_name(r.tag));
      if (r.in_swap) {
        w.field("slot", static_cast<std::uint64_t>(r.slot))
            .field("slot_live", r.slot_live);
      } else {
        w.field("frame", static_cast<std::uint64_t>(r.frame))
            .field("state", sim::frame_state_name(r.state))
            .field("mlocked", r.mlocked)
            .field("provenance", r.provenance)
            .field("age", r.age);
      }
      w.end_object();
    }
    w.end_array().end_object();
  }

  {
    const std::uint64_t center =
        trigger_ ? trigger_->breach_ts_ns
                 : (frozen_ ? frozen_at_ns_ : now_ns());
    const std::uint64_t lo =
        center > kTraceWindowNs ? center - kTraceWindowNs : 0;
    const std::uint64_t hi = center + kTraceWindowNs;
    w.key("trace").begin_object();
    w.field("center_ns", center);
    w.field("window_ns", kTraceWindowNs);
    w.key("events").begin_array();
    for (const TraceEvent& ev : Tracer::global().snapshot()) {
      if (ev.ts_ns < lo || ev.ts_ns > hi) continue;
      w.begin_object()
          .field("name", ev.name)
          .field("ph", std::string(1, ev.phase))
          .field("ts_ns", ev.ts_ns)
          .field("dur_ns", ev.dur_ns);
      w.key("args").begin_object();
      for (const TraceAttr& a : ev.args) {
        // Numeric and boolean attributes only: string attrs are span-
        // author free text, and the bundle's redaction guarantee is that
        // nothing in it CAN carry memory contents.
        if (a.kind == TraceAttr::Kind::kNumber) {
          w.field(a.key, a.num);
        } else if (a.kind == TraceAttr::Kind::kBool) {
          w.field(a.key, a.flag);
        }
      }
      w.end_object().end_object();
    }
    w.end_array().end_object();
  }

  write_metrics_field(w, MetricsRegistry::global());
  w.end_object();
  return w.str();
}

bool FlightRecorder::write_bundle(const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << bundle_json() << '\n';
  return out.good();
}

}  // namespace keyguard::obs
