// Host-side secret-to-sink flow: a span over a SecureBuffer, an owning
// copy of it, and a span over a SecureRsaKey's image all carry the key, so
// all are taint sources. The copy is scrubbed (KL101 is satisfied); what
// it reached before that is not undone.
#include "core/secure_buffer.hpp"
#include "core/secure_rsa.hpp"
#include "core/secure_zero.hpp"
#include "util/json.hpp"

namespace fixture {

void describe(const keyguard::SecureBuffer& key, util::JsonWriter& json) {
  const auto view = key.data();
  json.field("key", view);  // expect: KL103
  std::vector<std::byte> copy(key.data().begin(), key.data().end());
  json.field("copy", copy);  // expect: KL103
  secure_zero(copy.data(), copy.size());
}

void keyguard::secure::SecureRsaKey::describe(util::JsonWriter& json) const {
  const auto limbs = image();
  json.field("limbs", limbs);  // expect: KL103
}

}  // namespace fixture
