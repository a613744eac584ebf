#include "frontend/token.h"

#include <array>

namespace g2p {

bool is_c_keyword(std::string_view word) {
  static constexpr std::array<std::string_view, 32> kKeywords = {
      "auto",     "break",  "case",    "char",   "const",    "continue", "default",
      "do",       "double", "else",    "enum",   "extern",   "float",    "for",
      "goto",     "if",     "inline",  "int",    "long",     "register", "return",
      "short",    "signed", "sizeof",  "static", "struct",   "switch",   "typedef",
      "union",    "unsigned", "void",  "while",
  };
  for (auto k : kKeywords) {
    if (k == word) return true;
  }
  return false;
}

bool is_type_start_keyword(std::string_view word) {
  static constexpr std::array<std::string_view, 13> kTypeStarts = {
      "void", "char", "short", "int", "long", "float", "double", "signed",
      "unsigned", "const", "struct", "static", "register",
  };
  for (auto k : kTypeStarts) {
    if (k == word) return true;
  }
  return false;
}

}  // namespace g2p
