// Lexer for keylint2 (src/lint): C++ source -> token stream.
//
// Everything downstream of this lexer (parse.hpp, cfg.hpp, checks.hpp)
// works on tokens, never on raw lines: a `{` inside a string literal must
// not move brace depth, a wrapped condition must not hide a `return`, and
// an allow annotation needs a statement to bind to.
//
// Scope: this is a *linter* lexer, not a compiler front end. It understands
// exactly what the checks need — identifiers, literals (string contents are
// preserved: SECRET_LABEL matching happens on them), multi-char operators
// that affect statement structure (`::`, `->`, `==`, ...), line numbers for
// findings, and `//` comments kept separately so `keylint: allow(...)`
// annotations can be bound to statements. Preprocessor directives and block
// comments are consumed and dropped.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace keyguard::lint {

enum class TokKind {
  kIdentifier,
  kNumber,
  kString,   // text = literal contents without quotes
  kCharLit,  // text = literal contents without quotes
  kPunct,    // text = operator/punctuator spelling
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based

  bool is(std::string_view s) const {
    return text == s;
  }
  bool ident(std::string_view s) const {
    return kind == TokKind::kIdentifier && text == s;
  }
};

struct Comment {
  int line = 0;
  std::string text;     // after the `//`, trimmed
  bool own_line = false;  // nothing but whitespace preceded it on its line
};

struct TokenStream {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  int last_line = 0;  // line count of the source
};

/// Tokenizes `source`. Never fails: unrecognized bytes become single-char
/// punct tokens (the parser skips what it does not understand).
TokenStream tokenize(std::string_view source);

}  // namespace keyguard::lint
