#include "servers/ssh_server.hpp"

#include "bignum/prime.hpp"
#include "crypto/pem.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace keyguard::servers {

namespace {

/// scp copy-buffer size allocated per transfer in the child.
constexpr std::size_t kTransferBufferBytes = 32ull << 10;

}  // namespace

using bn::Bignum;

SshServer::SshServer(sim::Kernel& kernel, SshConfig cfg, util::Rng rng)
    : kernel_(kernel), cfg_(std::move(cfg)), rng_(rng), ssl_(kernel, cfg_.ssl) {}

bool SshServer::load_key_into(sim::Process& p, sslsim::SimRsaKey& out) {
  auto key = ssl_.load_private_key(p, cfg_.key_path);
  if (!key) return false;
  if (cfg_.align_at_load) {
    // The authfile.c patch: RSA_memory_align right after key_load.
    if (!ssl_.rsa_memory_align(p, *key)) return false;
  }
  out = *key;
  return true;
}

bool SshServer::start() {
  if (master_ != nullptr) return true;
  sim::Process& master = kernel_.spawn("sshd");
  sslsim::SimRsaKey key;
  if (!load_key_into(master, key)) {
    kernel_.exit_process(master);
    return false;
  }
  master_ = &master;
  master_key_ = key;
  const auto host = ssl_.read_key(master, key);
  public_key_ = host.public_key();
  return true;
}

void SshServer::stop() {
  if (master_ == nullptr) return;
  // Tear down children first (init would reap them), then the master.
  // Children die abruptly (their residue stays, as the paper measured);
  // the master's graceful shutdown path frees its key through RSA_free,
  // which BN_clear_free's the live copies — the "special care before the
  // application dies" the paper's §4 calls for. Scrubbing runs only after
  // the children are gone so a COW break cannot strand an uncleared copy.
  for (auto& [id, conn] : conns_) {
    if (auto* child = kernel_.find_process(conn.child_pid)) {
      kernel_.exit_process(*child);
    }
  }
  conns_.clear();
  ssl_.rsa_free(*master_, master_key_);
  kernel_.exit_process(*master_);
  master_ = nullptr;
}

sim::Pid SshServer::master_pid() const { return master_ ? master_->pid() : 0; }

bool SshServer::handshake(sim::Process& child, sslsim::SimRsaKey& key) {
  // Client side (another machine; host-only math): pick a session secret
  // and encrypt it to the server's host key.
  std::vector<std::byte> secret(32);
  rng_.fill_bytes(secret);
  auto ciphertext = crypto::pad_encrypt(rng_, public_key_, secret);
  if (!ciphertext) return false;

  // Server side: the CRT private op inside the child's simulated memory.
  const Bignum plain = ssl_.rsa_private_op(child, key, *ciphertext);

  // The recovered secret passes through a child heap buffer (session key
  // derivation scratch) before use.
  const auto plain_bytes = plain.to_bytes_be();
  // keylint: allow(unscrubbed) — stock sshd churn: the scratch is freed
  // uncleared, one of the residue sources the figures count
  const sim::VirtAddr buf =
      kernel_.heap_alloc(child, plain_bytes.size(), "session secret scratch");
  if (buf != 0) {
    kernel_.mem_write(child, buf, plain_bytes);
    kernel_.heap_free(child, buf);  // keylint: allow(raw-free)
  }

  // Verify the handshake actually decrypted correctly.
  const auto block = plain.to_bytes_be(public_key_.modulus_bytes());
  const std::vector<std::byte> tail(block.end() - static_cast<std::ptrdiff_t>(secret.size()),
                                    block.end());
  ++handshakes_;
  return tail == secret;
}

std::optional<ConnectionId> SshServer::open_connection() {
  if (master_ == nullptr) return std::nullopt;
  obs::Tracer::Span span(obs::Tracer::global(), "ssh.connection.open");
  if (span.live()) {
    span.add(obs::TraceAttr::s("level", cfg_.protection_label));
    span.add(obs::TraceAttr::b("reexec", !cfg_.no_reexec));
  }
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("ssh.connections").add(1);
  }
  sim::Process& child = kernel_.fork(*master_, "sshd[child]");
  Connection conn;
  conn.child_pid = child.pid();
  if (cfg_.no_reexec) {
    // -r: the child keeps the master's address space (COW) and key image.
    conn.key = master_key_;
  } else {
    // Stock sshd re-executes itself: fresh image, key re-read and
    // re-parsed from disk — a brand-new set of key copies.
    kernel_.exec(child);
    if (!load_key_into(child, conn.key)) {
      kernel_.exit_process(child);
      return std::nullopt;
    }
  }
  if (!handshake(child, conn.key)) {
    kernel_.exit_process(child);
    return std::nullopt;
  }
  const ConnectionId id = next_id_++;
  conns_[id] = std::move(conn);
  auto& reg2 = obs::MetricsRegistry::global();
  if (reg2.enabled()) {
    reg2.gauge("ssh.open_connections").set(static_cast<double>(conns_.size()));
  }
  return id;
}

void SshServer::transfer(ConnectionId id, std::size_t bytes) {
  obs::Tracer::Span span(obs::Tracer::global(), "ssh.transfer");
  if (span.live()) {
    span.add(obs::TraceAttr::s("level", cfg_.protection_label));
    span.add(obs::TraceAttr::n("bytes", static_cast<double>(bytes)));
  }
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.counter("ssh.transfers").add(1);
    reg.counter("ssh.transfer_bytes").add(bytes);
  }
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  auto* child = kernel_.find_process(it->second.child_pid);
  if (child == nullptr || !child->alive()) return;
  if (cfg_.transfer_files_via_cache) {
    // The served file is read from disk through the page cache (a rotating
    // set of ten files, like the paper's benchmark mix).
    const std::string path = "/srv/files/f" + std::to_string(transfer_seq_++ % 10);
    if (!kernel_.vfs().exists(path)) {
      std::vector<std::byte> content(bytes == 0 ? 1 : bytes);
      rng_.fill_bytes(content);
      kernel_.vfs().write_file(path, std::move(content));
    }
    kernel_.read_file(*child, path);
  }
  // scp pumps the file through a copy buffer in the child.
  const std::size_t buf_bytes = std::min(bytes, kTransferBufferBytes);
  if (buf_bytes == 0) return;
  const sim::VirtAddr buf = kernel_.heap_alloc(*child, buf_bytes, "scp copy buffer");
  if (buf == 0) return;
  std::vector<std::byte> chunk(buf_bytes);
  std::size_t remaining = bytes;
  while (remaining > 0) {
    rng_.fill_bytes(chunk);
    kernel_.mem_write(*child, buf, chunk);
    remaining -= std::min(remaining, chunk.size());
  }
  kernel_.heap_free(*child, buf);
}

void SshServer::close_connection(ConnectionId id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (auto* child = kernel_.find_process(it->second.child_pid)) {
    kernel_.exit_process(*child);
  }
  conns_.erase(it);
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.gauge("ssh.open_connections").set(static_cast<double>(conns_.size()));
  }
}

bool SshServer::handle_connection(std::size_t transfer_bytes) {
  obs::ServerRequestScope ev(obs::kServerKindSsh);
  obs::Tracer::Span span(obs::Tracer::global(), "ssh.connection");
  if (span.live()) {
    span.add(obs::TraceAttr::s("level", cfg_.protection_label));
    span.add(obs::TraceAttr::n("transfer_bytes",
                               static_cast<double>(transfer_bytes)));
  }
  const auto id = open_connection();
  if (!id) return false;
  if (transfer_bytes > 0) transfer(*id, transfer_bytes);
  close_connection(*id);
  ev.ok = true;
  return true;
}

}  // namespace keyguard::servers
