#include "obs/build_info.hpp"

#include "bignum/montgomery.hpp"
#include "util/json.hpp"

namespace keyguard::obs {
namespace build_info {
namespace {

std::string stringify(long a, long b, long c) {
  return std::to_string(a) + "." + std::to_string(b) + "." + std::to_string(c);
}

}  // namespace

const char* version() {
#ifdef KEYGUARD_VERSION_STRING
  return KEYGUARD_VERSION_STRING;
#else
  return "0.0.0";
#endif
}

std::string compiler() {
#if defined(__clang__)
  return "clang " +
         stringify(__clang_major__, __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + stringify(__GNUC__, __GNUC_MINOR__, __GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

const char* sanitizer() {
#ifdef KEYGUARD_SANITIZE_NAME
  if (KEYGUARD_SANITIZE_NAME[0] != '\0') {
    return KEYGUARD_SANITIZE_NAME;
  }
#endif
  return "none";
}

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

const char* mont_kernel() { return bn::mont::kernel_name(); }

std::string one_line() {
  return std::string("keyguard ") + version() + " | " + compiler() +
         " | sanitizer=" + sanitizer() + " | " + build_type() +
         " | mont_kernel=" + mont_kernel();
}

void write(util::JsonWriter& w) {
  w.begin_object();
  w.field("version", version());
  w.field("compiler", compiler());
  w.field("sanitizer", sanitizer());
  w.field("build_type", build_type());
  w.field("mont_kernel", mont_kernel());
  w.end_object();
}

}  // namespace build_info
}  // namespace keyguard::obs
