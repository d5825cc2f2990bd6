// The allow annotation binds to the whole statement below it, even when the
// raw call sits several lines into the statement — outside any fixed
// window of lines, which would report a false positive here.
#include "sim/kernel.hpp"

namespace fixture {

int teardown(sim::Kernel& k, sim::Process& p, Ctx& c) {
  note(k, p, "retiring DER decode buffer");
  // keylint: allow(raw-free) — harness verifies the chunk is zero before
  // the free; the span below keeps the call outside any line window
  const int rc =
      finalize_checksums(k, p, c) +
      drain_queues(k, p, c) +
      k.heap_free(p, c.scratch);
  return rc;
}

}  // namespace fixture
