// Token definitions for the C-subset frontend.
//
// The lexer produces a flat token stream; `#pragma` lines are captured as
// single kPragma tokens (the dataset pipeline needs them attached to loops),
// and other preprocessor directives are dropped.
//
// Tokens are zero-copy: `text` is a `string_view` into the caller's source
// buffer (or, for synthesized spellings like folded pragma lines, into the
// Arena passed to `lex`). A Token is trivially copyable — growing the token
// vector moves plain words, never heap strings.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace g2p {

enum class TokenKind {
  kEof,
  kIdentifier,
  kKeyword,
  kIntLiteral,
  kFloatLiteral,
  kCharLiteral,
  kStringLiteral,
  kPunct,    // operators and separators: + - * / ( ) { } [ ] ; , etc.
  kPragma,   // a whole "#pragma ..." line, text in Token::text
};

/// One lexical token. `text` always holds the exact source spelling
/// (for kPragma, the full directive line without the leading '#').
struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string_view text;
  int line = 0;
  int column = 0;

  bool is(TokenKind k) const { return kind == k; }
  bool is_punct(std::string_view p) const { return kind == TokenKind::kPunct && text == p; }
  bool is_keyword(std::string_view k) const { return kind == TokenKind::kKeyword && text == k; }
  bool is_identifier(std::string_view name) const {
    return kind == TokenKind::kIdentifier && text == name;
  }
};

static_assert(std::is_trivially_copyable_v<Token>);

/// True if `word` is a keyword of the supported C subset.
bool is_c_keyword(std::string_view word);

/// True if `word` names a builtin type or type qualifier that can begin a
/// declaration (int, unsigned, const, struct, ...).
bool is_type_start_keyword(std::string_view word);

}  // namespace g2p
