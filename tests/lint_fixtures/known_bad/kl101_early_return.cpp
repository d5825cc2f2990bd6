// A scrub on the happy path only: a body-wide "is there a scrub anywhere"
// check passes this function. The path-sensitive KL101 sees the early
// return that leaves the PEM copy live in a freed-reachable heap chunk.
#include "sim/kernel.hpp"

namespace fixture {

int load_key(sim::Kernel& k, sim::Process& p, bool strict) {
  const auto pem_buf = k.heap_alloc(p, 2048, "PEM read buffer");  // expect: KL101
  read_key_file(k, p, pem_buf);
  if (!checksum_ok(k, p, pem_buf)) {
    return -1;  // early return: pem_buf is still live and unscrubbed
  }
  decode(k, p, pem_buf, strict);
  k.heap_clear_free(p, pem_buf);
  return 0;
}

}  // namespace fixture
