// Seeded inputs of the benchmark.
//
// Every input is C code the corpus generator writes, with its `#pragma omp`
// lines stripped, so the program sees the serial code users submit. Each
// source is kept in a renamable form: appending a suffix to every function
// the source defines gives a new, distinct source text whose functions all
// have names outside the model's vocabulary. All such copies of one source
// therefore get the same suggestions, so a reference computed once per
// source checks every copy served, while no copy hits the serving cache of
// another.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A source whose defined functions can be renamed apart: `suffix_at` are
/// the offsets in `text` just after each occurrence of a defined function's
/// name, where `render` inserts the copy suffix.
struct RenamableSource {
  std::string text;
  std::vector<std::size_t> suffix_at;

  std::string render(std::string_view suffix) const;
};

/// Copy suffixes. Each kind of copy has its own prefix, so no two kinds of
/// copies (reference, hot, warm-up, request) share a source text.
std::string reference_suffix();
std::string hot_suffix();
std::string warmup_suffix(std::uint64_t k);
std::string request_suffix(std::uint64_t k);

/// Distinct, parsable generated files drawn from `seed`, their `#pragma omp`
/// lines stripped.
std::vector<RenamableSource> generate_files(std::uint64_t seed, std::size_t count);

/// `count` multi-file translation units, each `files_per_unit` distinct
/// files of `pool` drawn with `seed`, their functions renamed apart with a
/// positional infix so each unit defines every name once.
std::vector<RenamableSource> generate_units(const std::vector<RenamableSource>& pool,
                                            std::uint64_t seed, std::size_t count,
                                            std::size_t files_per_unit);

/// Ranks 0..n-1 drawn from a Zipf(s) distribution by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t operator()(double uniform01) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
