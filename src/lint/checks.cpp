#include "lint/checks.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

namespace keyguard::lint {
namespace {

// Files allowed to call memset directly (the scrub funnels themselves).
constexpr std::string_view kMemsetWhitelist[] = {
    "src/core/secure_zero.cpp",
    "src/sim/physmem.cpp",
    "src/sim/swap.cpp",
};

constexpr std::string_view kAllocCallees[] = {"heap_alloc", "mmap_anon",
                                              "write_bignum_heap"};

// Callees that scrub their byte arguments. Anything whose name contains
// "scrub" also counts (from_key_scrubbing, add_key_scrubbing, ...).
constexpr std::string_view kScrubCallees[] = {
    "secure_zero", "heap_clear_free",     "mem_zero", "clear_page",
    "wipe",        "clear_free",          "scrub",    "scrub_private_parts",
};

// Plain-function sinks (KL103) — always suspicious with a tainted argument.
constexpr std::string_view kSinkFunctions[] = {
    "printf", "fprintf", "sprintf", "snprintf", "vsnprintf",
    "vprintf", "puts",   "fputs",   "fwrite",   "syslog",
};
// Method-style sinks: JsonWriter::field/value, Tracer span attrs, metric
// recorders, ad-hoc loggers, and the alert/forensic surface (AlertSink::
// on_alert, AlertEngine::fire, FlightRecorder::write_bundle) — anything
// that serializes its arguments for a human or a file. Only fire when the
// argument is tainted, so the generic names stay quiet on ordinary code.
constexpr std::string_view kSinkMethods[] = {
    "field", "value", "add",  "record",   "set",
    "log",   "log_line", "emit", "on_alert", "fire",
    "write_bundle",
};

constexpr std::string_view kEscapeCallees[] = {
    "push_back", "emplace_back", "emplace", "insert", "push",
};

template <std::size_t N>
bool name_in(std::string_view needle, const std::string_view (&arr)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    if (arr[i] == needle) return true;
  }
  return false;
}

// Exact match or path-suffix match at a '/' boundary, so the whitelist
// works whether the tool was handed `src` or an absolute path.
bool path_matches(std::string_view path, std::string_view entry) {
  if (path == entry) return true;
  if (path.size() > entry.size() &&
      path.compare(path.size() - entry.size(), entry.size(), entry) == 0 &&
      path[path.size() - entry.size() - 1] == '/') {
    return true;
  }
  return false;
}

bool is_keyword(std::string_view s) {
  static const std::set<std::string_view> kw = {
      "if",     "while",  "for",      "switch",   "return", "sizeof",
      "alignof", "catch", "new",      "delete",   "noexcept", "decltype",
      "static_assert"};
  return kw.count(s) != 0;
}

struct Call {
  std::string callee;    // last component, e.g. "heap_clear_free"
  std::string receiver;  // dotted chain before it ("kernel_", "TraceAttr")
  int line = 0;
  // Argument spans as [begin, end) index pairs into the token vector.
  std::vector<std::pair<std::size_t, std::size_t>> args;
};

// All call expressions in [b, e): identifier directly followed by '('.
std::vector<Call> find_calls(const std::vector<Token>& t, std::size_t b,
                             std::size_t e) {
  std::vector<Call> out;
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind != TokKind::kIdentifier || is_keyword(t[i].text)) continue;
    if (i + 1 >= e || !t[i + 1].is("(")) continue;
    Call c;
    c.callee = t[i].text;
    c.line = t[i].line;
    // Receiver chain: a.b->c(...) or Ns::c(...).
    std::size_t j = i;
    std::vector<std::string> recv;
    while (j >= 2 && (t[j - 1].is(".") || t[j - 1].is("->") ||
                      t[j - 1].is("::")) &&
           t[j - 2].kind == TokKind::kIdentifier) {
      recv.insert(recv.begin(), t[j - 2].text);
      j -= 2;
    }
    for (std::size_t k = 0; k < recv.size(); ++k) {
      if (k > 0) c.receiver += ".";
      c.receiver += recv[k];
    }
    // Arguments: split [i+2, match) on top-level commas.
    int depth = 1;
    std::size_t arg_start = i + 2;
    for (std::size_t k = i + 2; k < e; ++k) {
      const Token& tk = t[k];
      if (tk.is("(") || tk.is("[") || tk.is("{")) ++depth;
      else if (tk.is(")") || tk.is("]") || tk.is("}")) {
        --depth;
        if (depth == 0) {
          if (k > arg_start) c.args.emplace_back(arg_start, k);
          break;
        }
      } else if (tk.is(",") && depth == 1) {
        c.args.emplace_back(arg_start, k);
        arg_start = k + 1;
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

// Dotted variable-ish names in [b, e): maximal ident(./->)ident chains that
// are not immediately called. `::`-qualified chains are included joined
// with "::" (they never collide with tracked locals).
std::vector<std::string> names_in(const std::vector<Token>& t, std::size_t b,
                                  std::size_t e) {
  std::vector<std::string> out;
  std::size_t i = b;
  while (i < e) {
    if (t[i].kind != TokKind::kIdentifier ||
        (i > b && (t[i - 1].is(".") || t[i - 1].is("->") || t[i - 1].is("::")))) {
      ++i;
      continue;
    }
    std::string name = t[i].text;
    std::size_t j = i;
    while (j + 2 < e && (t[j + 1].is(".") || t[j + 1].is("->") ||
                         t[j + 1].is("::")) &&
           t[j + 2].kind == TokKind::kIdentifier) {
      name += t[j + 1].is("::") ? "::" : ".";
      name += t[j + 2].text;
      j += 2;
    }
    const bool called = j + 1 < e && t[j + 1].is("(");
    if (!called && !is_keyword(name)) out.push_back(std::move(name));
    i = j + 1;
  }
  return out;
}

// Left-hand side of the first top-level '=' in [b, e), or "".
std::string lvalue_of(const std::vector<Token>& t, std::size_t b,
                      std::size_t e) {
  int depth = 0;
  std::size_t eq = e;
  for (std::size_t i = b; i < e; ++i) {
    const Token& tk = t[i];
    if (tk.is("(") || tk.is("[") || tk.is("{")) ++depth;
    else if (tk.is(")") || tk.is("]") || tk.is("}")) --depth;
    else if (depth == 0 && tk.kind == TokKind::kPunct && tk.text == "=") {
      eq = i;
      break;
    }
  }
  if (eq == e || eq == b) return {};
  std::size_t j = eq - 1;
  if (t[j].kind != TokKind::kIdentifier) return {};
  std::string name = t[j].text;
  while (j >= b + 2 && (t[j - 1].is(".") || t[j - 1].is("->")) &&
         t[j - 2].kind == TokKind::kIdentifier) {
    name = t[j - 2].text + "." + name;
    j -= 2;
  }
  return name;
}

// name matches tracked var v or one of its fields/base.
bool covers(const std::string& name, const std::string& v) {
  if (name == v) return true;
  if (v.size() > name.size() && v.compare(0, name.size(), name) == 0 &&
      v[name.size()] == '.') {
    return true;  // scrubbing/escaping the base covers the field
  }
  return false;
}

struct AllocEvent {
  std::string var;
  std::string label;
  int line = 0;
  std::string funnel;        // "heap_alloc" | "mmap_anon" | "write_bignum_heap"
                             // | "locked read"
  bool locked = false;       // mmap_anon literal lock flag
  bool locked_known = false;
  bool value = false;        // an owning copy of locked memory, not a handle
};

struct SinkEvent {
  std::string callee;
  int line = 0;
  std::vector<std::string> args;
};

struct AssignEvent {
  std::string dst;
  std::vector<std::string> rhs;
};

struct StmtFacts {
  std::vector<AllocEvent> allocs;
  std::vector<std::string> scrubbed;
  std::vector<std::string> disposed;  // raw-freed / munmapped / transferred
  std::vector<std::string> moved;     // std::move arguments
  std::vector<std::string> tainted;   // views over locked memory (KL103)
  std::vector<std::pair<std::string, int>> raw_frees;  // KL102
  std::vector<int> raw_memsets;                        // KL102
  std::vector<SinkEvent> sinks;
  std::vector<AssignEvent> assigns;
  std::vector<std::string> returned;  // names in a return expression
  std::string returned_whole;         // `return x;`: x itself
};

// Where a statement can read locked memory from (see checks.hpp).
struct LockedScope {
  const LockedNames& names;
  bool key_member = false;  // a SecureRsaKey member: bare image() reads it
};

std::string_view last_component(std::string_view chain) {
  const auto dot = chain.rfind('.');
  return dot == std::string_view::npos ? chain : chain.substr(dot + 1);
}

// A read of locked memory in [b, e): `buf.data()` on a SecureBuffer name,
// `key.image()` on a SecureRsaKey name, or a bare `image()` in a member.
bool reads_locked(const std::vector<Token>& t, std::size_t b, std::size_t e,
                  const LockedScope& scope) {
  for (const Call& c : find_calls(t, b, e)) {
    const std::string last(last_component(c.receiver));
    if (c.callee == "data" && scope.names.buffers.count(last) != 0) return true;
    if (c.callee == "image" && (c.receiver.empty()
                                    ? scope.key_member
                                    : scope.names.keys.count(last) != 0)) {
      return true;
    }
  }
  return false;
}

bool owning_type_name(const Token& t) {
  return t.ident("Bignum") || t.ident("vector") || t.ident("string");
}

struct Decl {
  std::string var;
  int line = 0;
  bool owning = false;
  std::size_t init = 0;  // first initializer token
};

// `T name = init;`, `T name(init);` or `T name{init};`: the declared name,
// and whether T owns its bytes (Bignum, std::vector or std::string by
// value, or `auto` initialized from one). Nothing for assignments, calls
// and the other statements a declaration can look like.
std::optional<Decl> declaration_of(const std::vector<Token>& t) {
  static const std::set<std::string_view> kNotAType = {
      "return", "throw",    "delete",    "new",      "goto",     "case",
      "using",  "typedef",  "co_return", "co_yield", "co_await", "operator",
      "friend", "template"};
  std::size_t k = 0;
  for (; k + 1 < t.size(); ++k) {
    if (t[k].kind == TokKind::kIdentifier) {
      if (t[k + 1].is("=") || t[k + 1].is("(") || t[k + 1].is("{")) break;
    } else if (!(t[k].is("::") || t[k].is("<") || t[k].is(">") ||
                 t[k].is(">>") || t[k].is(",") || t[k].is("&") ||
                 t[k].is("&&") || t[k].is("*"))) {
      return std::nullopt;
    }
  }
  if (k == 0 || k + 1 >= t.size()) return std::nullopt;
  const Token& before = t[k - 1];
  const bool by_ref = before.is("&") || before.is("&&") || before.is("*");
  if (!(before.kind == TokKind::kIdentifier || before.is(">") ||
        before.is(">>") || by_ref) ||
      t[0].kind != TokKind::kIdentifier || kNotAType.count(t[0].text) != 0) {
    return std::nullopt;
  }
  Decl d{t[k].text, t[k].line, false, k + 2};
  bool owning = false, view = false, deduced = false;
  for (std::size_t i = 0; i < k; ++i) {
    owning |= owning_type_name(t[i]);
    view |= t[i].ident("span");
    deduced |= t[i].ident("auto");
  }
  if (deduced) {
    for (std::size_t i = d.init; i < t.size() && !t[i].is("(") && !t[i].is("{");
         ++i) {
      owning |= owning_type_name(t[i]);
    }
  }
  d.owning = owning && !view && !by_ref;
  return d;
}

bool flag_means_clear(const std::vector<Token>& t, std::size_t b,
                      std::size_t e) {
  bool saw_false = false;
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    if (t[i].text == "true") return true;
    if (t[i].text == "false") saw_false = true;
    if (t[i].text.find("clear") != std::string::npos) return true;
  }
  // A runtime-variable flag (the defense's clear_temporaries switch) gets
  // the benefit of the doubt: the lint cannot know a run's config, and the
  // flag exists to clear. A literal `false` does not.
  return !saw_false && b != e;
}

StmtFacts extract_facts(const std::vector<Token>& head, bool is_return,
                        const LockedScope& locked) {
  StmtFacts f;
  const std::size_t n = head.size();
  const std::string assigned = lvalue_of(head, 0, n);

  for (const Call& c : find_calls(head, 0, n)) {
    if (name_in(c.callee, kAllocCallees)) {
      AllocEvent a;
      a.funnel = c.callee;
      a.line = c.line;
      for (const auto& [ab, ae] : c.args) {
        for (std::size_t k = ab; k < ae; ++k) {
          if (head[k].kind == TokKind::kString &&
              is_secret_label(head[k].text)) {
            a.label = head[k].text;
          }
        }
      }
      if (c.callee == "mmap_anon" && c.args.size() >= 3) {
        const auto& [fb, fe] = c.args[2];
        for (std::size_t k = fb; k < fe; ++k) {
          if (head[k].ident("true")) {
            a.locked = true;
            a.locked_known = true;
          } else if (head[k].ident("false")) {
            a.locked = false;
            a.locked_known = true;
          }
        }
      }
      if (!a.label.empty()) {
        a.var = assigned.empty()
                    ? "<anon:" + std::to_string(a.line) + ">"
                    : assigned;
        f.allocs.push_back(std::move(a));
      }
      continue;
    }
    const bool scrub_name =
        name_in(c.callee, kScrubCallees) ||
        c.callee.find("scrub") != std::string::npos;
    if (scrub_name) {
      if (!c.receiver.empty()) f.scrubbed.push_back(c.receiver);
      for (const auto& [ab, ae] : c.args) {
        for (auto& nm : names_in(head, ab, ae)) f.scrubbed.push_back(nm);
        // secure_zero(v.data(), v.size()) scrubs v.
        for (const Call& inner : find_calls(head, ab, ae)) {
          if (!inner.receiver.empty()) f.scrubbed.push_back(inner.receiver);
        }
      }
      continue;
    }
    if (c.callee == "move" && (c.receiver.empty() || c.receiver == "std")) {
      for (const auto& [ab, ae] : c.args) {
        for (auto& nm : names_in(head, ab, ae)) f.moved.push_back(nm);
      }
      continue;
    }
    if (c.callee == "free_bignum" || c.callee == "free_mont_ctx") {
      std::string target;
      if (c.args.size() >= 2) {
        auto nm = names_in(head, c.args[1].first, c.args[1].second);
        if (!nm.empty()) target = nm.front();
      }
      const bool clear =
          c.args.size() >= 3 &&
          flag_means_clear(head, c.args[2].first, c.args[2].second);
      if (!target.empty()) {
        (clear ? f.scrubbed : f.disposed).push_back(target);
      }
      continue;
    }
    if (c.callee == "heap_free") {
      std::string target;
      if (c.args.size() >= 2) {
        auto nm = names_in(head, c.args[1].first, c.args[1].second);
        if (!nm.empty()) target = nm.front();
      } else if (c.args.size() == 1) {
        auto nm = names_in(head, c.args[0].first, c.args[0].second);
        if (!nm.empty()) target = nm.front();
      }
      f.raw_frees.emplace_back(target, c.line);
      if (!target.empty()) f.disposed.push_back(target);
      continue;
    }
    if (c.callee == "munmap") {
      if (c.args.size() >= 2) {
        auto nm = names_in(head, c.args[1].first, c.args[1].second);
        if (!nm.empty()) f.disposed.push_back(nm.front());
      }
      continue;
    }
    if (c.callee == "memset") {
      f.raw_memsets.push_back(c.line);
      // memset(p, 0, n) is still a zeroing attempt: count it as a scrub so
      // KL101 does not double-report what KL102 already flagged.
      if (c.args.size() >= 2) {
        bool zero = false;
        for (std::size_t k = c.args[1].first; k < c.args[1].second; ++k) {
          if (head[k].kind == TokKind::kNumber && head[k].text == "0") {
            zero = true;
          }
        }
        if (zero && !c.args.empty()) {
          auto nm = names_in(head, c.args[0].first, c.args[0].second);
          if (!nm.empty()) f.scrubbed.push_back(nm.front());
        }
      }
      continue;
    }
    if (name_in(c.callee, kEscapeCallees)) {
      for (const auto& [ab, ae] : c.args) {
        for (auto& nm : names_in(head, ab, ae)) f.disposed.push_back(nm);
      }
      continue;
    }
    const bool sink =
        name_in(c.callee, kSinkFunctions) ||
        name_in(c.callee, kSinkMethods) ||
        (c.receiver.size() >= 9 &&
         c.receiver.compare(c.receiver.size() - 9, 9, "TraceAttr") == 0);
    if (sink) {
      SinkEvent s;
      s.callee = c.receiver.empty() ? c.callee : c.receiver + "." + c.callee;
      s.line = c.line;
      for (const auto& [ab, ae] : c.args) {
        for (auto& nm : names_in(head, ab, ae)) s.args.push_back(nm);
      }
      f.sinks.push_back(std::move(s));
      continue;
    }
  }

  if (is_return) {
    f.returned = names_in(head, 0, n);
    const bool bare = std::all_of(head.begin(), head.end(), [](const Token& t) {
      return t.kind == TokKind::kIdentifier || t.is(".") || t.is("->");
    });
    if (bare && f.returned.size() == 1) f.returned_whole = f.returned.front();
  } else if (const auto d = declaration_of(head);
             d && reads_locked(head, d->init, n, locked)) {
    if (d->owning) {
      AllocEvent a;
      a.var = d->var;
      a.label = "owning copy of locked memory";
      a.line = d->line;
      a.funnel = "locked read";
      a.value = true;
      f.allocs.push_back(std::move(a));
    } else {
      f.tainted.push_back(d->var);
    }
  }
  if (!is_return && !assigned.empty()) {
    AssignEvent a;
    a.dst = assigned;
    int depth = 0;
    std::size_t eq = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (head[i].is("(") || head[i].is("[") || head[i].is("{")) ++depth;
      else if (head[i].is(")") || head[i].is("]") || head[i].is("}")) --depth;
      else if (depth == 0 && head[i].kind == TokKind::kPunct &&
               head[i].text == "=") {
        eq = i;
        break;
      }
    }
    if (eq != n) {
      // Taint flows through alias-style assignments (`view = secret`,
      // `ptr = secret + off`), not through call results (`elapsed =
      // time_op(k, p, secret)`): only depth-0 names of the RHS count.
      std::vector<Token> top;
      int d = 0;
      for (std::size_t i = eq + 1; i < n; ++i) {
        if (head[i].is("(") || head[i].is("[") || head[i].is("{")) {
          ++d;
          continue;
        }
        if (head[i].is(")") || head[i].is("]") || head[i].is("}")) {
          --d;
          continue;
        }
        if (d == 0) top.push_back(head[i]);
      }
      a.rhs = names_in(top, 0, top.size());
      // `other.field = v;` with a bare name on the right transfers
      // ownership into the other object (keystore slots, key structs);
      // the secret stays tainted but is no longer this function's leak.
      if (a.dst.find('.') != std::string::npos && a.rhs.size() == 1) {
        bool bare = true;
        for (std::size_t i = eq + 1; i < n; ++i) {
          if (head[i].kind != TokKind::kIdentifier && !head[i].is(".") &&
              !head[i].is("->")) {
            bare = false;
          }
        }
        if (bare) f.disposed.push_back(a.rhs.front());
      }
    }
    f.assigns.push_back(std::move(a));
  }
  return f;
}

// `if (x == 0)` / `if (x == nullptr)` / `if (!x)`: the guarded body runs
// only when the allocation failed, so `x` is not live inside it.
std::string null_tested_name(const std::vector<Token>& head) {
  const auto names = names_in(head, 0, head.size());
  if (names.size() != 1) return {};
  for (std::size_t i = 0; i + 1 < head.size(); ++i) {
    if (head[i].is("==") &&
        (head[i + 1].is("0") || head[i + 1].ident("nullptr"))) {
      return names.front();
    }
  }
  if (!head.empty() && head.front().is("!")) return names.front();
  return {};
}

// ---------------------------------------------------------------------------
// KL101 + KL103 dataflow state.

struct AllocSite {
  int line;
  std::string label;
  bool operator<(const AllocSite& o) const {
    return line != o.line ? line < o.line : label < o.label;
  }
  bool operator==(const AllocSite& o) const {
    return line == o.line && label == o.label;
  }
};

struct FlowState {
  std::map<std::string, std::set<AllocSite>> live;  // unscrubbed secrets
  std::set<std::string> taint;                      // secret-derived values

  bool join(const FlowState& o) {  // returns true when changed
    bool changed = false;
    for (const auto& [k, v] : o.live) {
      auto& dst = live[k];
      for (const auto& s : v) changed |= dst.insert(s).second;
    }
    for (const auto& t : o.taint) changed |= taint.insert(t).second;
    return changed;
  }
};

bool tainted(const std::set<std::string>& taint, const std::string& name) {
  for (const auto& t : taint) {
    if (covers(t, name) || covers(name, t)) return true;
  }
  return false;
}

class FunctionFlow {
 public:
  FunctionFlow(const std::string& file, const Function& fn,
               const AllowOracle& allows, const LockedScope& locked)
      : file_(file), fn_(fn), allows_(allows), cfg_(build_cfg(fn)) {
    facts_.resize(cfg_.nodes.size());
    std::map<const Stmt*, std::size_t> node_of;
    for (std::size_t i = 0; i < cfg_.nodes.size(); ++i) {
      const Stmt* s = cfg_.nodes[i].stmt;
      if (s != nullptr) {
        facts_[i] = extract_facts(s->head, s->kind == StmtKind::kReturn, locked);
        node_of[s] = i;
        for (const AllocEvent& a : facts_[i].allocs) {
          if (a.value) values_.insert(a.var);
        }
      }
    }
    apply_null_guards(fn_.body, node_of);
  }

  // Failure-guard refinement: statements under `if (x == 0) ...` see x as
  // already gone (the allocation failed), so the guard's early return is
  // not reported as a leak of x.
  void apply_null_guards(const std::vector<Stmt>& stmts,
                         const std::map<const Stmt*, std::size_t>& node_of) {
    for (const Stmt& s : stmts) {
      if (s.kind == StmtKind::kIf) {
        const std::string nulled = null_tested_name(s.head);
        if (!nulled.empty()) mark_disposed(s.body, nulled, node_of);
      }
      apply_null_guards(s.body, node_of);
      apply_null_guards(s.else_body, node_of);
    }
  }

  void mark_disposed(const std::vector<Stmt>& stmts, const std::string& var,
                     const std::map<const Stmt*, std::size_t>& node_of) {
    for (const Stmt& s : stmts) {
      const auto it = node_of.find(&s);
      if (it != node_of.end()) facts_[it->second].disposed.push_back(var);
      mark_disposed(s.body, var, node_of);
      mark_disposed(s.else_body, var, node_of);
    }
  }

  void run(std::vector<Finding>& out) {
    const std::size_t n = cfg_.nodes.size();
    std::vector<FlowState> in(n), outs(n);
    std::vector<bool> dirty(n, true);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (!dirty[i]) continue;
        dirty[i] = false;
        FlowState st;
        for (int p : cfg_.nodes[i].preds) {
          st.join(outs[static_cast<std::size_t>(p)]);
        }
        in[i] = st;
        transfer(i, st);
        if (!(st.live == outs[i].live && st.taint == outs[i].taint)) {
          outs[i] = std::move(st);
          for (int s : cfg_.nodes[i].succs) {
            dirty[static_cast<std::size_t>(s)] = true;
          }
          changed = true;
        }
      }
    }

    // Exit checks. Each return node and each fall-off-the-end predecessor
    // of the synthetic exit is an exit path of its own.
    for (std::size_t i = 0; i < n; ++i) {
      if (cfg_.nodes[i].is_return) {
        record_leaks(outs[i], cfg_.nodes[i].stmt->first_line);
      }
    }
    for (int p : cfg_.nodes[static_cast<std::size_t>(cfg_.exit)].preds) {
      const auto pi = static_cast<std::size_t>(p);
      if (!cfg_.nodes[pi].is_return) {
        record_leaks(outs[pi], fn_.last_line);
      }
    }

    for (const auto& [key, exits] : leaks_) {
      const auto& [var, site] = key;
      std::ostringstream msg;
      msg << "secret allocation `" << display_var(var) << "` (\""
          << site.label << "\") is not scrubbed on every exit path (leaks at "
          << (exits.size() == 1 ? "exit line " : "exit lines ");
      bool first = true;
      for (int e : exits) {
        if (!first) msg << ", ";
        msg << e;
        first = false;
      }
      msg << "); scrub or annotate allow(unscrubbed)";
      out.push_back(
          Finding{"KL101", file_, site.line, msg.str(), false, {}});
    }
    for (const auto& [line, var, callee] : sink_hits_) {
      std::ostringstream msg;
      msg << "secret-derived value `" << var << "` flows into sink `" << callee
          << "`; secrets must never reach logging/serialization sinks "
             "(annotate allow(sink-flow) only for deliberately-vulnerable "
             "paths)";
      out.push_back(Finding{"KL103", file_, line, msg.str(), false, {}});
    }
  }

 private:
  static std::string display_var(const std::string& v) {
    return v.rfind("<anon:", 0) == 0 ? "<temporary>" : v;
  }

  // Drops the live secrets `name` covers. A handle leaves with any
  // transfer or returned expression; an owning value only when scrubbed,
  // moved or returned whole (`values_too`).
  void erase(FlowState& st, const std::string& name, bool values_too) const {
    for (auto it = st.live.begin(); it != st.live.end();) {
      const bool gone = covers(name, it->first) &&
                        (values_too || values_.count(it->first) == 0);
      it = gone ? st.live.erase(it) : std::next(it);
    }
  }

  void transfer(std::size_t node, FlowState& st) {
    const StmtFacts& f = facts_[node];
    const Stmt* s = cfg_.nodes[node].stmt;
    for (const auto& nm : f.scrubbed) erase(st, nm, true);
    for (const auto& nm : f.moved) erase(st, nm, true);
    for (const auto& nm : f.disposed) erase(st, nm, false);
    for (const auto& nm : f.returned) erase(st, nm, false);  // escapes
    if (!f.returned_whole.empty()) erase(st, f.returned_whole, true);
    for (const auto& nm : f.tainted) st.taint.insert(nm);
    for (const AllocEvent& a : f.allocs) {
      if (s != nullptr && allows_.statement_allows(*s, "unscrubbed")) continue;
      if (allows_.function_allows(fn_, "unscrubbed")) continue;
      st.live[a.var] = {AllocSite{a.line, a.label}};
      st.taint.insert(a.var);
    }
    for (const AssignEvent& a : f.assigns) {
      for (const auto& r : a.rhs) {
        if (tainted(st.taint, r)) {
          st.taint.insert(a.dst);
          break;
        }
      }
    }
    for (const SinkEvent& snk : f.sinks) {
      for (const auto& arg : snk.args) {
        if (tainted(st.taint, arg)) {
          if (s != nullptr && allows_.statement_allows(*s, "sink-flow")) break;
          sink_hits_.insert({snk.line, arg, snk.callee});
          break;
        }
      }
    }
  }

  void record_leaks(const FlowState& st, int exit_line) {
    for (const auto& [var, sites] : st.live) {
      for (const AllocSite& site : sites) {
        leaks_[{var, site}].insert(exit_line);
      }
    }
  }

  const std::string& file_;
  const Function& fn_;
  const AllowOracle& allows_;
  Cfg cfg_;
  std::vector<StmtFacts> facts_;
  std::set<std::string> values_;  // owning copies of locked memory
  std::map<std::pair<std::string, AllocSite>, std::set<int>> leaks_;
  std::set<std::tuple<int, std::string, std::string>> sink_hits_;
};

// ---------------------------------------------------------------------------
// Statement-level walks (KL102, KL104 sites inside functions).

void walk_stmts(const std::vector<Stmt>& stmts,
                const std::function<void(const Stmt&)>& fn) {
  for (const Stmt& s : stmts) {
    fn(s);
    walk_stmts(s.body, fn);
    walk_stmts(s.else_body, fn);
  }
}

bool function_mentions_secret(const Function& fn) {
  for (const Token& t : fn.signature) {
    if (t.kind == TokKind::kString && is_secret_label(t.text)) return true;
  }
  bool found = false;
  walk_stmts(fn.body, [&](const Stmt& s) {
    for (const Token& t : s.head) {
      if (t.kind == TokKind::kString && is_secret_label(t.text)) found = true;
    }
  });
  return found;
}

}  // namespace

bool is_secret_label(std::string_view s) {
  static constexpr std::string_view kSubstrings[] = {
      "BN_MONT_CTX",       "PEM ",        "DER ",
      "CRT intermediate",  "session secret", "rsa_aligned",
      "key vault",         "keystore pool slot", "keystore master key",
      "sealed key blob",
  };
  for (const auto sub : kSubstrings) {
    if (s.find(sub) != std::string_view::npos) return true;
  }
  // "RSA bignum d|p|q|dmp1|dmq1|iqmp" — n and e are public.
  constexpr std::string_view kRsa = "RSA bignum ";
  const auto pos = s.find(kRsa);
  if (pos != std::string_view::npos && pos + kRsa.size() < s.size()) {
    const char c = s[pos + kRsa.size()];
    return c == 'd' || c == 'p' || c == 'q' || c == 'i';
  }
  return false;
}

bool is_must_lock_label(std::string_view s) {
  static constexpr std::string_view kMustLock[] = {
      "rsa_aligned",
      "key vault",
      "keystore pool slot",
      "keystore master key",
  };
  for (const auto sub : kMustLock) {
    if (s.find(sub) != std::string_view::npos) return true;
  }
  return false;
}

const std::vector<CheckInfo>& check_catalogue() {
  static const std::vector<CheckInfo> cat = {
      {"KL101",
       "secret allocation not scrubbed on every exit path",
       "Path-sensitive: every early return, branch join and loop exit must "
       "see the secret scrubbed or ownership transferred. Secrets are "
       "secret-labelled allocations and owning copies (Bignum, std::vector, "
       "std::string) of locked memory. Scrub, transfer, or annotate "
       "`// keylint: allow(unscrubbed) — why`."},
      {"KL102",
       "raw memset/heap_free bypasses the scrub funnels",
       "Zeroing must go through core::secure_zero or the sim clear funnels; "
       "secret chunks must be clear-freed. Annotate allow(raw-memset) / "
       "allow(raw-free) on the statement for deliberately-vulnerable paths."},
      {"KL103",
       "secret-derived value reaches a logging/serialization sink",
       "A value derived from a secret-labelled allocation flows through "
       "local assignments into printf/JsonWriter/Tracer/metric sinks or "
       "the alert/forensic surface (AlertSink::on_alert, AlertEngine::"
       "fire, FlightRecorder::write_bundle)."},
      {"KL104",
       "key-material page allocated outside an mlock-guaranteeing funnel",
       "Allocations carrying a must-lock label (rsa_aligned, key vault, "
       "keystore pool slot, keystore master key) and SecureBuffer/"
       "SecureRsaKey working copies are audited into the locked-memory "
       "compliance report; an unlocked site is a violation unless annotated "
       "allow(unlocked)."},
  };
  return cat;
}

void LockedNames::collect(const TokenStream& ts) {
  const auto& t = ts.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool buffer = t[i].ident("SecureBuffer");
    if (!buffer && !t[i].ident("SecureRsaKey")) continue;
    std::size_t j = i + 1;
    while (j < t.size() &&
           (t[j].is("&") || t[j].is("&&") || t[j].is("*") || t[j].ident("const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdentifier) {
      (buffer ? buffers : keys).insert(t[j].text);
    }
  }
}

FileCheckResult run_checks(const std::string& path, const TokenStream& ts,
                           const std::vector<Function>& fns,
                           const AllowOracle& allows,
                           const LockedNames& locked) {
  FileCheckResult res;
  bool memset_ok = false;
  for (const auto entry : kMemsetWhitelist) {
    memset_ok = memset_ok || path_matches(path, entry);
  }

  for (const Function& fn : fns) {
    const bool secret_fn = function_mentions_secret(fn);
    const LockedScope scope{
        locked, ("::" + fn.name).find("::SecureRsaKey::") != std::string::npos};

    // KL102 + KL104 sites: one linear walk, allow bound to the statement.
    walk_stmts(fn.body, [&](const Stmt& s) {
      const StmtFacts f =
          extract_facts(s.head, s.kind == StmtKind::kReturn, scope);
      for (const auto& [target, line] : f.raw_frees) {
        if (!secret_fn) continue;
        if (allows.statement_allows(s, "raw-free")) continue;
        res.findings.push_back(Finding{
            "KL102", path, line,
            "raw heap_free" + (target.empty() ? std::string{}
                                              : " of `" + target + "`") +
                " in a secret-handling function leaves the bytes behind; use "
                "heap_clear_free or annotate allow(raw-free)",
            false,
            {}});
      }
      for (int line : f.raw_memsets) {
        if (memset_ok) continue;
        if (allows.statement_allows(s, "raw-memset")) continue;
        res.findings.push_back(Finding{
            "KL102", path, line,
            "raw memset outside the scrub whitelist is routinely elided by "
            "dead-store elimination; use core::secure_zero / "
            "PhysicalMemory::fill or annotate allow(raw-memset)",
            false,
            {}});
      }
      for (const AllocEvent& a : f.allocs) {
        if (a.funnel == "mmap_anon" && is_must_lock_label(a.label)) {
          const bool allowed = allows.statement_allows(s, "unlocked");
          ComplianceSite site;
          site.file = path;
          site.line = a.line;
          site.funnel = "mmap_anon";
          site.label = a.label;
          site.locked = a.locked_known && a.locked;
          if (!a.locked_known) {
            site.status = "compliant";
            site.detail = "lock flag is not a literal; not provable here";
          } else if (a.locked) {
            site.status = "compliant";
            site.detail = "mlocked at allocation";
          } else if (allowed) {
            site.status = "allowed";
            site.detail = "allow(unlocked) annotation on the statement";
          } else {
            site.status = "violation";
            site.detail = "page holds key material but is swappable";
          }
          res.sites.push_back(site);
          if (site.status == "violation") {
            res.findings.push_back(Finding{
                "KL104", path, a.line,
                "key-material page (\"" + a.label +
                    "\") allocated without mlock; lock it or annotate "
                    "allow(unlocked) with the reason it may swap",
                false,
                {}});
          }
        } else if (a.funnel == "heap_alloc" && is_must_lock_label(a.label)) {
          const bool allowed = allows.statement_allows(s, "unlocked");
          ComplianceSite site;
          site.file = path;
          site.line = a.line;
          site.funnel = "heap_alloc";
          site.label = a.label;
          site.locked = false;
          site.status = allowed ? "allowed" : "violation";
          site.detail = allowed
                            ? "allow(unlocked) annotation on the statement"
                            : "simulated heap is never mlocked";
          res.sites.push_back(site);
          if (site.status == "violation") {
            res.findings.push_back(Finding{
                "KL104", path, a.line,
                "key-material buffer (\"" + a.label +
                    "\") allocated on the swappable heap; use an mlocked "
                    "page funnel or annotate allow(unlocked)",
                false,
                {}});
          }
        }
      }
    });

    // KL101 + KL103 dataflow.
    FunctionFlow flow(path, fn, allows, scope);
    flow.run(res.findings);
  }

  // KL104 funnel-type sites: uses of the mlock-guaranteeing wrappers are
  // recorded as compliant entries so the report enumerates where key
  // material legitimately lives. The defining files themselves are skipped.
  const bool defines_funnel =
      path.find("core/secure_buffer") != std::string::npos ||
      path.find("core/secure_rsa") != std::string::npos;
  if (!defines_funnel) {
    const auto& t = ts.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdentifier) continue;
      if (t[i].text != "SecureBuffer" && t[i].text != "SecureRsaKey") continue;
      if (i + 1 >= t.size()) continue;
      const Token& nx = t[i + 1];
      const bool decl_or_ctor = nx.kind == TokKind::kIdentifier ||
                                nx.is("(") || nx.is("{");
      const bool factory = nx.is("::") && i + 2 < t.size() &&
                           t[i + 2].kind == TokKind::kIdentifier &&
                           t[i + 2].text.find("from_key") == 0;
      if (!decl_or_ctor && !factory) continue;
      ComplianceSite site;
      site.file = path;
      site.line = t[i].line;
      site.funnel = t[i].text;
      site.locked = true;
      site.status = "compliant";
      site.detail = t[i].text == "SecureBuffer"
                        ? "page-aligned, mlocked, canaried, zero-on-destroy"
                        : "mlocked working copy, scrubbed on destruction";
      res.sites.push_back(site);
    }
  }

  std::stable_sort(res.findings.begin(), res.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line != b.line ? a.line < b.line
                                             : a.check < b.check;
                   });
  std::stable_sort(res.sites.begin(), res.sites.end(),
                   [](const ComplianceSite& a, const ComplianceSite& b) {
                     return a.line < b.line;
                   });
  return res;
}

}  // namespace keyguard::lint
