// Process-global observability event bus: the active layer's spine.
//
// The taint hooks (sim/taint.hpp) report BYTE movements, which is enough
// to keep a shadow map exact — but several state changes that decide
// whether an invariant holds move no bytes at all: a frame returning to
// the free lists, an mlock flip, a dedup merge raising a share count, a
// coprocessor refusing service. The kernel has no observer slots: the
// one piece of state a layer above used to need hooks for, dedup's
// merged-frame marks, lives in its page allocator. So these signals cross
// here: low layers publish typed, NUMERIC-ONLY events; high layers
// (obs::AlertEngine, obs::FlightRecorder in keyguard_obs_alert) subscribe.
//
// Numeric-only payloads are a redaction property, not a convenience: an
// event carries frame numbers, slot indices, byte counts and ids — never
// a pointer into simulated memory and never memory contents — so nothing
// that flows through the bus can reproduce key bytes in an alert message
// or a forensic bundle (KL103 polices the sinks; the bus makes the leak
// structurally impossible at the source).
//
// Hot-path contract mirrors MetricsRegistry/Tracer: the process-global
// bus starts DISABLED and every publish site gates on one relaxed atomic
// load, so the instrumented kernel costs one branch per site when nobody
// is listening (tier-1 workloads, golden pins). publish() itself takes a
// mutex — the host keystore signs from many threads — and fans out to
// subscribers in subscription order.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace keyguard::obs {

/// What happened. Payload slots a/b/c are per-kind (see comments).
enum class ObsEventKind : std::uint8_t {
  kFrameAllocated,   ///< a=frame, b=FrameState after allocation
  kFrameFreed,       ///< a=frame (published AFTER any zero-on-free clear)
  kCowBreak,         ///< a=shared frame, b=fresh private frame
  kMlockChanged,     ///< a=frame, b=1 locked / 0 unlocked
  kPageMerged,       ///< a=canonical frame, b=share count after the merge
  kSwapOut,          ///< a=slot, b=source frame
  kSwapIn,           ///< a=slot, b=destination frame
  kKeystoreUnseal,   ///< a=key id, b=1 blob unseal / 0 in-place decrypt
  kKeystoreSeal,     ///< a=key id (re-encrypt / working-set squeeze)
  kKeystoreEvict,    ///< a=key id
  kKeystoreRefusal,  ///< a=key id (fail-closed denial)
  kDomainRefusal,    ///< a=request kind (0 keystream, 1 batch, 2 mac)
  kServerRequest,    ///< a=server kind (0 ssh, 1 apache, 2 sni), b=ok
};

inline constexpr std::size_t kObsEventKindCount = 13;

const char* obs_event_kind_name(ObsEventKind k) noexcept;

struct ObsEvent {
  ObsEventKind kind = ObsEventKind::kFrameAllocated;
  std::uint64_t ts_ns = 0;  ///< obs clock at publish time
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class ObsEventSink {
 public:
  virtual ~ObsEventSink() = default;
  virtual void on_obs_event(const ObsEvent& ev) = 0;
};

class EventBus {
 public:
  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// The bus the sim publishes to. Starts disabled.
  static EventBus& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Stamps the obs clock and fans out. No-op while disabled (the
  /// publish sites also pre-check enabled() to skip argument setup).
  void publish(ObsEventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
               std::uint64_t c = 0);

  /// Subscribers are borrowed, not owned. Subscribing mid-publish is the
  /// caller's race to avoid (setup-time only, like Kernel::attach_taint).
  void subscribe(ObsEventSink* sink);
  void unsubscribe(ObsEventSink* sink);
  std::size_t subscriber_count() const;

  /// Events published while enabled (dropped-on-disabled are not counted
  /// anywhere — a disabled bus is "not observing", not "observing lossily").
  std::uint64_t published() const noexcept {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> published_{0};
  mutable std::mutex mu_;
  std::vector<ObsEventSink*> sinks_;
};

/// RAII publisher for kServerRequest: construct at handler entry, flip
/// `ok` on the success path, and the destructor publishes the outcome on
/// every exit route — early refusals included — so per-server request
/// rates stay exact without a publish at each return statement.
struct ServerRequestScope {
  std::uint64_t server_kind;
  bool ok = false;
  explicit ServerRequestScope(std::uint64_t kind) : server_kind(kind) {}
  ServerRequestScope(const ServerRequestScope&) = delete;
  ServerRequestScope& operator=(const ServerRequestScope&) = delete;
  ~ServerRequestScope() {
    auto& bus = EventBus::global();
    if (bus.enabled()) {
      bus.publish(ObsEventKind::kServerRequest, server_kind, ok ? 1 : 0);
    }
  }
};

inline constexpr std::uint64_t kServerKindSsh = 0;
inline constexpr std::uint64_t kServerKindApache = 1;
inline constexpr std::uint64_t kServerKindSni = 2;

}  // namespace keyguard::obs
