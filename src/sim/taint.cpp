#include "sim/taint.hpp"

namespace keyguard::sim {

const char* taint_tag_name(TaintTag t) noexcept {
  switch (t) {
    case TaintTag::kClean: return "clean";
    case TaintTag::kPem: return "PEM";
    case TaintTag::kDer: return "DER";
    case TaintTag::kKeyD: return "d";
    case TaintTag::kKeyP: return "P";
    case TaintTag::kKeyQ: return "Q";
    case TaintTag::kKeyDmp1: return "dmp1";
    case TaintTag::kKeyDmq1: return "dmq1";
    case TaintTag::kKeyIqmp: return "iqmp";
    case TaintTag::kMont: return "mont";
    case TaintTag::kCrt: return "crt";
    case TaintTag::kSealed: return "sealed";
    case TaintTag::kPoolKey: return "pool";
    case TaintTag::kMasterKey: return "master";
  }
  return "?";
}

}  // namespace keyguard::sim
