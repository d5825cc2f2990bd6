// Simulated OpenSSH server (sshd 4.3p2 behaviours the paper measures).
//
// Life cycle per incoming connection, faithful to the paper's setup:
//
//   accept -> fork(child) -> [re-exec: the child REPLACES its image and
//   re-reads + re-parses the host key from disk -- a fresh set of key
//   copies per connection; sshd's undocumented -r flag disables this] ->
//   RSA handshake (client encrypts a session secret to the host key; the
//   child runs the CRT private op) -> scp transfers (buffer churn through
//   the child heap) -> child exit (its pages join unallocated memory,
//   uncleared on a stock kernel).
//
// The application-level defense is modelled by `align_at_load`
// (RSA_memory_align called from authfile.c right after key load) together
// with `no_reexec`; the library/integrated levels arrive via SslConfig.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "sslsim/ssl_library.hpp"
#include "util/rng.hpp"

namespace keyguard::servers {

struct SshConfig {
  std::string key_path = "/etc/ssh/ssh_host_rsa_key";
  sslsim::SslConfig ssl;
  /// Application-level patch: RSA_memory_align after every key load.
  bool align_at_load = false;
  /// sshd -r: handle connections in forked children WITHOUT re-exec, so
  /// children share the master's (single, COW-protected) key image.
  bool no_reexec = false;
  /// Serve transfers from files read through the page cache (realistic
  /// scp: the served file is cached and churns the cache). Off by default
  /// to keep the calibrated attack workloads unchanged; the ablation and
  /// cache-pressure tests turn it on.
  bool transfer_files_via_cache = false;
  /// Protection level this config encodes ("none".."integrated"); set by
  /// core::ssh_config and stamped onto per-connection trace spans.
  std::string protection_label = "none";
};

/// Handle for a long-lived connection (timeline experiments keep several
/// open concurrently).
using ConnectionId = std::uint64_t;

class SshServer {
 public:
  SshServer(sim::Kernel& kernel, SshConfig cfg, util::Rng rng);

  /// Starts the master: spawns "sshd", loads (and optionally aligns) the
  /// host key. Returns false when the key file is missing/corrupt.
  bool start();

  /// Stops the master and any children still alive.
  void stop();

  bool running() const noexcept { return master_ != nullptr; }
  sim::Pid master_pid() const;
  std::size_t open_connections() const noexcept { return conns_.size(); }
  std::uint64_t total_handshakes() const noexcept { return handshakes_; }

  /// Accepts a connection and completes the RSA handshake. The returned id
  /// refers to a live child; close_connection ends it. Returns nullopt when
  /// the server is down or the handshake failed.
  std::optional<ConnectionId> open_connection();

  /// One scp transfer worth of buffer churn in the connection's child.
  void transfer(ConnectionId id, std::size_t bytes);

  /// Ends the session: the child exits, releasing its address space.
  void close_connection(ConnectionId id);

  /// Convenience: open + transfer + close (the attack scripts' pattern of
  /// "create many connections, then immediately close them").
  bool handle_connection(std::size_t transfer_bytes = 0);

 private:
  struct Connection {
    sim::Pid child_pid = 0;
    sslsim::SimRsaKey key;  // child's view of the key (own copy if re-exec'd)
  };

  bool load_key_into(sim::Process& p, sslsim::SimRsaKey& out);
  bool handshake(sim::Process& child, sslsim::SimRsaKey& key);

  sim::Kernel& kernel_;
  SshConfig cfg_;
  util::Rng rng_;
  sslsim::SslLibrary ssl_;
  sim::Process* master_ = nullptr;
  sslsim::SimRsaKey master_key_;
  crypto::RsaPublicKey public_key_;  // the client's side of the handshake
  std::map<ConnectionId, Connection> conns_;
  ConnectionId next_id_ = 1;
  std::uint64_t handshakes_ = 0;
  std::uint64_t transfer_seq_ = 0;
};

}  // namespace keyguard::servers
