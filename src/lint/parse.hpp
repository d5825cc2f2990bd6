// Function extraction + statement parser for keylint2.
//
// Turns a token stream into per-function statement trees: enough structure
// for a CFG (branches, loops, early returns) without being a real C++
// parser. Namespaces/classes are transparent containers (member functions
// inside them are found), aggregate initializers and lambdas are swallowed
// into the statement that contains them, and anything unrecognized degrades
// to a plain statement — unknown syntax can hide a finding but never
// crashes the tool or corrupts brace tracking.
#pragma once

#include <string>
#include <vector>

#include "lint/token.hpp"

namespace keyguard::lint {

enum class StmtKind {
  kSimple,    // expression/declaration statement; head = its tokens
  kReturn,    // head = return expression tokens
  kBreak,
  kContinue,
  kIf,        // head = condition; body = then; else_body when has_else
  kWhile,     // head = condition; body = loop body
  kDoWhile,   // head = trailing condition; body = loop body
  kFor,       // head = everything inside for(...); body = loop body
  kSwitch,    // head = condition; body = case sections flattened
  kBlock,     // bare { ... }
};

struct Stmt {
  StmtKind kind = StmtKind::kSimple;
  int first_line = 0;
  int last_line = 0;  // includes nested body lines
  std::vector<Token> head;
  std::vector<Stmt> body;
  std::vector<Stmt> else_body;
  bool has_else = false;
};

struct Function {
  std::string name;        // best-effort qualified name, e.g. "Keystore::sign"
  int signature_line = 0;  // first line of the signature statement
  int body_open_line = 0;  // line of the opening '{'
  int last_line = 0;       // line of the closing '}'
  std::vector<Token> signature;  // signature tokens (incl. ctor-init list)
  std::vector<Stmt> body;
};

/// All function-like bodies in the stream (free functions, methods defined
/// inside classes, constructors). Best-effort: misparses degrade to skipped
/// regions, never to exceptions.
std::vector<Function> parse_functions(const TokenStream& ts);

}  // namespace keyguard::lint
