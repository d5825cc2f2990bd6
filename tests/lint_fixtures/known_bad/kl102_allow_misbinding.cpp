// The allow annotation binds to the statement directly below it — NOT to
// anything within a window of lines, which would suppress the memset
// here.
#include "sim/kernel.hpp"

namespace fixture {

void reset_ctx(sim::Kernel& k, sim::Process& p, Ctx& ctx) {
  // keylint: allow(raw-memset) — covers only the next statement
  ctx.scratch_words = 0;
  memset(ctx.iv, 0, 16);  // expect: KL102
  touch(k, p, ctx);
}

}  // namespace fixture
