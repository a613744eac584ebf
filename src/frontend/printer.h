// AST -> C source regeneration.
//
// Used for (a) round-trip tests of the parser, (b) emitting the synthetic
// corpus as compilable C files, and (c) showing loops in examples/benches.
#pragma once

#include <string>

#include "frontend/ast.h"

namespace g2p {

/// Render any node back to C source. Statements are indented with
/// `indent` levels of two spaces.
std::string to_source(const Node& node, int indent = 0);

}  // namespace g2p
