// Static race verifier quality gate: model-only vs model+verifier on a
// fresh labeled corpus.
//
// Trains a small pipeline, generates an unseen labeled corpus (seed+1), and
// serves every distinct file once. Serving always verifies (vetoes withdraw
// provable races, repairs add missing/wrong clauses), and that one pass
// yields both rows: the model's raw existence call is exactly
// `confidence >= 0.5` (the pipeline sets `parallel` that way before the
// verifier runs, and a veto clears `parallel` but never touches
// `confidence`), the served one is `parallel`. The pragma-existence
// BinaryMetrics of both are compared per labeled loop:
//
//   * precision must strictly improve: every veto that fires on a loop the
//     generator built around a real dependence (flow dep, prefix sum,
//     in-place stencil, ...) removes a model false positive, and the veto
//     is only allowed to fire on *provable* races;
//   * recall must stay within a small floor of model-only: the verifier's
//     conservative verdicts (kUnknown) pass suggestions through unchanged,
//     so the only recall it can lose is a true-parallel loop it wrongly
//     proves racy — which the conservatism contract in analysis/verifier.h
//     says must not happen (modulo label noise in the generated corpus).
//
// Also enforces the determinism/agreement acceptance criterion: `suggest`,
// `suggest_batch_results`, a cached replay, and a recomputation after
// clear_cache must agree bitwise on every field (verdict, veto_reason,
// repaired_clauses included).
//
// Knobs: G2P_SCALE / G2P_EPOCHS / G2P_SEED as in bench_common.h, plus
//   G2P_VERIFIER_FLOOR       — minimum precision improvement (default 0:
//                              strictly above; CI may pin a negative floor
//                              on tiny smoke corpora where the model has
//                              no false positives to veto)
//   G2P_VERIFIER_RECALL_DROP — maximum recall drop (default 0.02)
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "dataset/generator.h"
#include "eval/metrics.h"
#include "support/table.h"

namespace {

using namespace g2p;

struct EvalOut {
  BinaryMetrics model_only;                 // confidence >= 0.5 vs label
  BinaryMetrics verified;                   // served `parallel` vs label
  std::array<std::uint64_t, 5> verdicts{};  // indexed by Verdict
  std::uint64_t repairs = 0;                // total repaired clauses
  std::size_t unmatched = 0;                // labeled loops with no suggestion
};

/// Bitwise equality over every field the pipeline renders — the agreement
/// gate is exact, not tolerance-based: all four serving paths run the same
/// forward and the same verifier on the same facts.
bool same_suggestions(const std::vector<LoopSuggestion>& a,
                      const std::vector<LoopSuggestion>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const LoopSuggestion& x = a[i];
    const LoopSuggestion& y = b[i];
    if (x.loop_source != y.loop_source || x.line != y.line ||
        x.function_name != y.function_name || x.parallel != y.parallel ||
        x.confidence != y.confidence || x.category != y.category ||
        x.suggested_pragma != y.suggested_pragma || x.verdict != y.verdict ||
        x.veto_reason != y.veto_reason || x.repaired_clauses != y.repaired_clauses) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g2p;
  const auto env = bench::BenchEnv::from_env();
  const std::string json_path = bench::json_path_from_args(argc, argv);

  double floor = 0.0;
  if (const char* s = std::getenv("G2P_VERIFIER_FLOOR")) floor = std::atof(s);
  double recall_drop = 0.02;
  if (const char* s = std::getenv("G2P_VERIFIER_RECALL_DROP")) recall_drop = std::atof(s);

  Pipeline::Options options;
  options.corpus = env.generator_config();
  options.corpus.scale = std::max(env.scale, 0.01);
  options.train.epochs = env.epochs;
  options.train.seed = env.seed;
  std::printf("== bench_verifier: model-only vs model+verifier (scale %.3f, %d epochs) ==\n",
              options.corpus.scale, options.train.epochs);
  Pipeline pipeline = Pipeline::train(options);

  // Fresh labeled corpus the model never trained on. Samples carry the
  // generator's ground-truth `parallel` label; suggestions are matched back
  // to samples by exact loop source within each distinct file.
  GeneratorConfig fresh = env.generator_config();
  fresh.scale = std::max(env.scale * 2.0, 0.04);
  fresh.seed = env.seed + 1;
  const Corpus corpus = CorpusGenerator(fresh).generate();
  std::vector<std::string_view> files;
  std::vector<std::vector<const LoopSample*>> samples_of;  // aligned with files
  {
    std::set<std::string_view> seen;
    for (const auto& sample : corpus.samples) {
      if (seen.insert(sample.file_source).second) {
        files.push_back(sample.file_source);
        samples_of.emplace_back();
      }
    }
    for (const auto& sample : corpus.samples) {
      for (std::size_t f = 0; f < files.size(); ++f) {
        if (files[f] == sample.file_source) {
          samples_of[f].push_back(&sample);
          break;
        }
      }
    }
  }
  std::printf("fresh corpus: %d labeled loops across %zu distinct files\n\n", corpus.size(),
              files.size());

  EvalOut out;
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::vector<LoopSuggestion> suggestions = pipeline.suggest(files[f]);
    for (const LoopSample* sample : samples_of[f]) {
      const LoopSuggestion* match = nullptr;
      for (const LoopSuggestion& s : suggestions) {
        if (s.loop_source == sample->loop_source) {
          match = &s;
          break;
        }
      }
      if (match == nullptr) {
        ++out.unmatched;
        continue;
      }
      out.model_only.add(match->confidence >= 0.5, sample->parallel);
      out.verified.add(match->parallel, sample->parallel);
      ++out.verdicts[static_cast<std::size_t>(match->verdict)];
      out.repairs += match->repaired_clauses.size();
    }
  }
  const BinaryMetrics& base = out.model_only;
  const BinaryMetrics& ver = out.verified;

  TextTable table({"mode", "precision", "recall", "F1", "accuracy"});
  const auto add = [&table](const char* name, const BinaryMetrics& m) {
    table.add_row({name, bench::pct(m.precision()), bench::pct(m.recall()),
                   bench::pct(m.f1()), bench::pct(m.accuracy())});
  };
  add("model only", base);
  add("model + verifier", ver);
  std::printf("%s", table.render().c_str());
  std::printf("verdicts: %llu verified / %llu repaired / %llu vetoed / %llu unknown "
              "(%llu clause repairs)\n",
              static_cast<unsigned long long>(out.verdicts[static_cast<std::size_t>(Verdict::kVerified)]),
              static_cast<unsigned long long>(out.verdicts[static_cast<std::size_t>(Verdict::kRepaired)]),
              static_cast<unsigned long long>(out.verdicts[static_cast<std::size_t>(Verdict::kVetoed)]),
              static_cast<unsigned long long>(out.verdicts[static_cast<std::size_t>(Verdict::kUnknown)]),
              static_cast<unsigned long long>(out.repairs));
  std::printf("model only: %d tp / %d fp / %d fn | with verifier: %d tp / %d fp / %d fn\n",
              base.tp, base.fp, base.fn, ver.tp, ver.fp, ver.fn);
  if (out.unmatched != 0) {
    std::printf("note: %zu/%zu labeled loops had no matching suggestion (extractor gap)\n",
                out.unmatched, static_cast<std::size_t>(corpus.size()));
  }

  // ---- agreement gate: suggest == batch == cached replay == recompute ------
  // Covers the acceptance criterion that sequential, batched, and cached
  // outputs agree bitwise.
  std::size_t agreement_mismatches = 0;
  const std::size_t probe = std::min<std::size_t>(files.size(), 12);
  for (std::size_t f = 0; f < probe; ++f) {
    pipeline.clear_cache();
    const auto direct = pipeline.suggest(files[f]);
    const std::vector<std::string_view> views{files[f]};
    const auto batch = pipeline.suggest_batch_results(views);
    const auto cached = pipeline.suggest(files[f]);  // full-result tier hit
    pipeline.clear_cache();
    const auto recomputed = pipeline.suggest(files[f]);
    if (!batch.front().ok() || !same_suggestions(direct, batch.front().suggestions) ||
        !same_suggestions(direct, cached) || !same_suggestions(direct, recomputed)) {
      ++agreement_mismatches;
    }
  }
  std::printf("agreement probe: %zu files, %zu mismatches "
              "(suggest vs batch vs cached vs recomputed)\n",
              probe, agreement_mismatches);

  // ---- gates ---------------------------------------------------------------
  const double prec_delta = ver.precision() - base.precision();
  const double rec_delta = ver.recall() - base.recall();
  std::printf("precision delta: %+.4f (floor %+.4f) | recall delta: %+.4f (allowed %.4f)\n",
              prec_delta, floor, rec_delta, recall_drop);

  bool ok = true;
  if (base.fp == 0) {
    // Nothing to veto: strict improvement is vacuous, but the verifier must
    // not make precision worse.
    if (prec_delta < 0.0) {
      std::printf("FAIL: model had no false positives yet precision dropped\n");
      ok = false;
    } else {
      std::printf("note: model-only has zero false positives; strict-improvement gate waived\n");
    }
  } else if (!(prec_delta > floor) && !(floor < 0.0 && prec_delta >= floor)) {
    std::printf("FAIL: precision delta %+.4f not above the %+.4f floor\n", prec_delta, floor);
    ok = false;
  }
  if (rec_delta < -recall_drop) {
    std::printf("FAIL: recall dropped %.4f, more than the allowed %.4f\n", -rec_delta,
                recall_drop);
    ok = false;
  }
  if (agreement_mismatches != 0) {
    std::printf("FAIL: serving paths disagree on %zu files\n", agreement_mismatches);
    ok = false;
  }

  bench::JsonMetrics json;
  bench::set_common_header(json, "verifier");
  json.set("scale", options.corpus.scale);
  json.set("epochs", options.train.epochs);
  json.set("loops_evaluated", base.total());
  json.set("base_precision", base.precision());
  json.set("base_recall", base.recall());
  json.set("base_f1", base.f1());
  json.set("verified_precision", ver.precision());
  json.set("verified_recall", ver.recall());
  json.set("verified_f1", ver.f1());
  json.set("precision_delta", prec_delta);
  json.set("recall_delta", rec_delta);
  json.set("verdict_verified",
           static_cast<std::int64_t>(out.verdicts[static_cast<std::size_t>(Verdict::kVerified)]));
  json.set("verdict_repaired",
           static_cast<std::int64_t>(out.verdicts[static_cast<std::size_t>(Verdict::kRepaired)]));
  json.set("verdict_vetoed",
           static_cast<std::int64_t>(out.verdicts[static_cast<std::size_t>(Verdict::kVetoed)]));
  json.set("verdict_unknown",
           static_cast<std::int64_t>(out.verdicts[static_cast<std::size_t>(Verdict::kUnknown)]));
  json.set("clause_repairs", static_cast<std::int64_t>(out.repairs));
  json.set("agreement_mismatches", static_cast<std::int64_t>(agreement_mismatches));
  json.set("precision_floor", floor);
  json.set("recall_drop_allowed", recall_drop);
  json.set("pass", ok);
  if (!json.write(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
