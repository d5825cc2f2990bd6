// Secret-to-sink flow: the session secret's address flows through a local
// alias into a printf-family sink.
#include "sim/kernel.hpp"

namespace fixture {

void debug_dump(sim::Kernel& k, sim::Process& p) {
  const auto secret = k.heap_alloc(p, 32, "session secret");
  const auto view = secret;
  printf("session buffer at %zx\n", view);  // expect: KL103
  k.heap_clear_free(p, secret);
}

}  // namespace fixture
