// A secret-labelled allocation with no scrub on any path: the plainest
// KL101.
#include "sim/kernel.hpp"

namespace fixture {

void leak(sim::Kernel& k, sim::Process& p) {
  const auto b = k.heap_alloc(p, 64, "session secret");  // expect: KL101
  use(k, p, b);
}

}  // namespace fixture
