// Forensic flight recorder: a capacity-bounded ring of recent obs
// events that freezes the moment an alert of trigger severity fires and
// emits a schema-v2 forensic bundle for after-the-fact replay.
//
// The recorder answers the question an alert alone cannot: "what was
// the machine doing in the run-up to the breach?" It subscribes to the
// EventBus (BEFORE the AlertEngine, so the breaching event itself lands
// in the ring before the alert freezes it) and keeps the last
// kCapacity events with EXACT drop accounting — the Tracer's idiom:
// when full, the oldest event is overwritten and a counter says
// precisely how many were lost, so "the window holds the last K of N"
// is a statement, not a guess.
//
// On the first alert at or above kTrigger severity the ring freezes:
// recording stops, preserving the breach window verbatim, and
// bundle_json() assembles the forensic bundle — the trigger alert, the
// frozen ring, every earlier alert, a metrics snapshot, the live
// exposure-copy set with per-key integrals, a taint-residue census, and
// the trace slice around the breach instant.
//
// Redaction by construction, same property as the bus: the bundle
// carries offsets, frame numbers, lengths, counts, tag/state NAMES and
// timestamps — never a byte of simulated memory. Trace attributes are
// filtered to numbers and booleans for the same reason. KL103 treats
// the bundle writer as a sink and polices it; the design makes the leak
// impossible before the linter ever runs (the redaction test grinds the
// bundle for key-byte substrings to prove it).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/alert.hpp"
#include "obs/event_bus.hpp"

namespace keyguard::analysis {
class ShadowTaintMap;
}
namespace keyguard::sim {
class Kernel;
}

namespace keyguard::obs {

class ExposureMonitor;

class FlightRecorder final : public ObsEventSink, public AlertSink {
 public:
  static constexpr std::size_t kCapacity = 4096;  ///< ring size in events
  static constexpr Severity kTrigger = Severity::kCritical;  ///< freeze at >= this
  static constexpr std::uint64_t kTraceWindowNs = 5'000'000'000ull;  ///< slice half-width
  static constexpr std::size_t kMaxResidueRegions = 64;  ///< census detail cap
  static constexpr std::size_t kMaxAlerts = 256;  ///< pre-freeze alert history cap

  /// All referents are borrowed and optional: a null kernel/shadow skips
  /// the residue census, a null monitor skips the exposure section. The
  /// recorder attaches nothing itself — subscribe it to the bus and add
  /// it as a sink on the engine.
  explicit FlightRecorder(const sim::Kernel* kernel = nullptr,
                          const analysis::ShadowTaintMap* shadow = nullptr,
                          ExposureMonitor* monitor = nullptr);

  // ObsEventSink: records into the ring; no-op once frozen.
  void on_obs_event(const ObsEvent& ev) override;
  // AlertSink: records the alert; freezes at >= trigger severity.
  void on_alert(const Alert& alert) override;

  bool frozen() const noexcept { return frozen_; }
  const std::optional<Alert>& trigger_alert() const noexcept {
    return trigger_;
  }
  /// Events offered to the ring while recording (dropped ones included).
  std::uint64_t events_seen() const noexcept { return seen_; }
  /// Exact count of events overwritten after the ring filled.
  std::uint64_t events_overwritten() const noexcept { return overwritten_; }
  /// Ring contents, oldest first.
  std::vector<ObsEvent> ring() const;
  /// Alerts recorded so far (trigger included), oldest first.
  const std::vector<Alert>& alerts() const noexcept { return alerts_; }

  /// Unfreeze and forget everything; recording resumes.
  void reset();

  /// The schema-v2 forensic bundle. Valid frozen or not (tools may dump
  /// on shutdown); accrues exposure integrals to now when a monitor is
  /// attached, hence non-const.
  std::string bundle_json();
  /// bundle_json() to a file; false on I/O failure.
  bool write_bundle(const std::string& path);

 private:
  const sim::Kernel* kernel_;
  const analysis::ShadowTaintMap* shadow_;
  ExposureMonitor* monitor_;
  std::vector<ObsEvent> ring_;
  std::size_t head_ = 0;  ///< next write position once the ring is full
  std::uint64_t seen_ = 0;
  std::uint64_t overwritten_ = 0;
  std::vector<Alert> alerts_;
  std::uint64_t alerts_dropped_ = 0;
  std::optional<Alert> trigger_;
  std::uint64_t frozen_at_ns_ = 0;
  bool frozen_ = false;
};

}  // namespace keyguard::obs
