#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <exception>
#include <numeric>
#include <set>
#include <unordered_set>

#include "dataset/generator.h"
#include "frontend/ast.h"
#include "frontend/parser.h"
#include "support/rng.h"

namespace perfbench {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Files the corpus generator writes per unit of GeneratorConfig::scale
/// (the Table 1 totals), used to size a generation that yields `count`.
constexpr double kFilesPerScale = 30000.0;

/// Drop every line whose first token is `#pragma omp`.
std::string strip_omp_pragmas(std::string_view source) {
  std::string out;
  out.reserve(source.size());
  std::size_t pos = 0;
  while (pos < source.size()) {
    std::size_t end = source.find('\n', pos);
    end = end == std::string_view::npos ? source.size() : end + 1;
    const std::string_view line = source.substr(pos, end - pos);
    const std::size_t first = line.find_first_not_of(" \t");
    const bool omp = first != std::string_view::npos &&
                     line.substr(first).starts_with("#pragma") &&
                     line.find("omp", first + 7) != std::string_view::npos;
    if (!omp) out.append(line);
    pos = end;
  }
  return out;
}

/// Split a source into renamable form; false when it does not parse.
bool make_renamable(std::string_view source, RenamableSource& out) {
  std::set<std::string, std::less<>> defined;
  try {
    const g2p::ParseResult parsed = g2p::parse_translation_unit(source);
    for (const g2p::Decl* decl : parsed.tu->decls) {
      if (decl->kind() != g2p::NodeKind::kFunctionDecl) continue;
      const auto& fn = static_cast<const g2p::FunctionDecl&>(*decl);
      if (fn.is_definition()) defined.emplace(fn.name);
    }
  } catch (const std::exception&) {
    return false;
  }
  out.text.assign(source);
  out.suffix_at.clear();
  // Mark every identifier naming a defined function, skipping string and
  // character literals and comments.
  const std::string& t = out.text;
  std::size_t i = 0;
  while (i < t.size()) {
    const char c = t[i];
    if (c == '"' || c == '\'') {
      for (++i; i < t.size() && t[i] != c; ++i) {
        if (t[i] == '\\') ++i;
      }
      ++i;
    } else if (t.compare(i, 2, "//") == 0) {
      i = std::min(t.find('\n', i), t.size());
    } else if (t.compare(i, 2, "/*") == 0) {
      const std::size_t close = t.find("*/", i + 2);
      i = close == std::string::npos ? t.size() : close + 2;
    } else if (is_ident_char(c)) {
      std::size_t end = i;
      while (end < t.size() && is_ident_char(t[end])) ++end;
      if (std::isdigit(static_cast<unsigned char>(c)) == 0 &&
          defined.find(std::string_view(t).substr(i, end - i)) != defined.end()) {
        out.suffix_at.push_back(end);
      }
      i = end;
    } else {
      ++i;
    }
  }
  return true;
}

/// Join `parts` into one translation unit, renaming each part's functions
/// apart with a positional infix.
RenamableSource compose_unit(const std::vector<const RenamableSource*>& parts) {
  RenamableSource unit;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const std::string infix = "_f" + std::to_string(k);
    const RenamableSource& part = *parts[k];
    std::size_t from = 0;
    for (const std::size_t at : part.suffix_at) {
      unit.text.append(part.text, from, at - from);
      unit.text.append(infix);
      unit.suffix_at.push_back(unit.text.size());
      from = at;
    }
    unit.text.append(part.text, from, std::string::npos);
    unit.text.push_back('\n');
  }
  return unit;
}

}  // namespace

std::string RenamableSource::render(std::string_view suffix) const {
  std::string out;
  out.reserve(text.size() + suffix_at.size() * suffix.size());
  std::size_t from = 0;
  for (const std::size_t at : suffix_at) {
    out.append(text, from, at - from);
    out.append(suffix);
    from = at;
  }
  out.append(text, from, std::string::npos);
  return out;
}

std::string reference_suffix() { return "_r"; }
std::string hot_suffix() { return "_h"; }
std::string warmup_suffix(std::uint64_t k) { return "_w" + std::to_string(k); }
std::string request_suffix(std::uint64_t k) { return "_q" + std::to_string(k); }

std::vector<RenamableSource> generate_files(std::uint64_t seed, std::size_t count) {
  g2p::GeneratorConfig config;
  config.seed = seed;
  config.scale = 1.25 * static_cast<double>(count) / kFilesPerScale;
  std::vector<g2p::GeneratedFile> files = g2p::CorpusGenerator(config).generate_files();
  // The generator emits files grouped by pattern family; shuffle so any
  // prefix of the pool keeps the corpus mix.
  g2p::Rng rng(seed ^ 0x5eedf11e5ull);
  for (std::size_t i = files.size(); i > 1; --i) {
    std::swap(files[i - 1], files[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<RenamableSource> pool;
  std::unordered_set<std::string> seen;
  for (const auto& file : files) {
    if (pool.size() == count) break;
    std::string stripped = strip_omp_pragmas(file.source);
    if (!seen.insert(stripped).second) continue;
    RenamableSource source;
    if (make_renamable(stripped, source) && !source.suffix_at.empty()) {
      pool.push_back(std::move(source));
    }
  }
  return pool;
}

std::vector<RenamableSource> generate_units(const std::vector<RenamableSource>& pool,
                                            std::uint64_t seed, std::size_t count,
                                            std::size_t files_per_unit) {
  g2p::Rng rng(seed ^ 0x0c0de0c0deull);
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  files_per_unit = std::min(files_per_unit, pool.size());
  std::vector<RenamableSource> units;
  units.reserve(count);
  std::vector<const RenamableSource*> parts(files_per_unit);
  for (std::size_t u = 0; u < count; ++u) {
    // Partial Fisher-Yates: the first files_per_unit slots become a fresh
    // draw without replacement.
    for (std::size_t k = 0; k < files_per_unit; ++k) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(k), static_cast<std::int64_t>(order.size()) - 1));
      std::swap(order[k], order[pick]);
      parts[k] = &pool[order[k]];
    }
    units.push_back(compose_unit(parts));
  }
  return units;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::operator()(double uniform01) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), uniform01);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

}  // namespace perfbench
