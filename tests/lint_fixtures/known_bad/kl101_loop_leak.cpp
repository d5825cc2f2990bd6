// The scrub lives inside the loop's success branch; when the loop
// exhausts without finding a match, the function falls off the end with
// the secret still live. A body-wide scrub check would pass it.
#include "sim/kernel.hpp"

namespace fixture {

int find_slot(sim::Kernel& k, sim::Process& p, int n) {
  const auto scratch = k.heap_alloc(p, 64, "session secret");  // expect: KL101
  for (int i = 0; i < n; ++i) {
    if (slot_matches(k, p, scratch, i)) {
      k.heap_clear_free(p, scratch);
      return i;
    }
  }
  return -1;  // loop exhausted: scratch leaks
}

}  // namespace fixture
