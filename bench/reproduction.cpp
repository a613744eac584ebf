// The paper's evaluation (§6) from one corpus: Table 1 (dataset
// statistics), Figure 2 (loops the tools miss), Table 2 (pragma existence),
// Table 3 (detected parallel loops), Table 4 (per-tool subsets), Table 5
// (clause prediction), the aug-AST edge ablation and the §6.6 case study.
//
// The corpus is generated once, the tool simulacra sweep it once, and each
// distinct model is trained once: Graph2Par on the full aug-AST, the same
// HGT without CFG, lexical or call edges, HGT-AST on the vanilla AST (no
// edge family), and the PragFormer token baseline on the full aug-AST's
// examples (the tokens ride along). Every table reads those results.
//
// Usage: bench_reproduction [--json <path>]. G2P_SCALE, G2P_EPOCHS and
// G2P_SEED size the run (bench_common.h). Prints numbers and exits 0; no
// claim is gated.
#include <cctype>
#include <map>

#include "bench_common.h"
#include "eval/comparison.h"

namespace {

using namespace g2p;
using namespace g2p::bench;

struct Data {
  Corpus corpus;
  CorpusSplit split;
  Vocab vocab;
};

/// Training and test examples of one graph construction. Both follow the
/// split's order, so test example i is corpus sample split.test[i].
struct Examples {
  std::vector<Example> train;
  std::vector<Example> test;
};

Examples prepare(const Data& data, const AugAstOptions& aug) {
  return {prepare_examples(data.corpus, data.split.train, data.vocab, aug),
          prepare_examples(data.corpus, data.split.test, data.vocab, aug)};
}

/// A Graph2Par-architecture model trained on one graph construction.
Graph2ParModel train_hgt(const Data& data, const std::vector<Example>& train,
                         const BenchEnv& env, const char* label) {
  Graph2ParConfig mc;
  mc.vocab_size = data.vocab.size();
  Rng rng(env.seed);
  Graph2ParModel model(mc, rng);
  std::printf("training %s on %zu loops (%d epochs)...\n", label, train.size(), env.epochs);
  train_graph_model(model, train, env.train_config());
  return model;
}

/// "HGT-AST" -> "hgt_ast": row names as JSON key parts.
std::string key_part(std::string name) {
  for (char& c : name) {
    const auto u = static_cast<unsigned char>(c);
    c = std::isalnum(u) ? static_cast<char>(std::tolower(u)) : '_';
  }
  return name;
}

void set_metrics(JsonMetrics& json, const std::string& key, const BinaryMetrics& m) {
  json.set(key + "_precision", m.precision());
  json.set(key + "_recall", m.recall());
  json.set(key + "_f1", m.f1());
  json.set(key + "_accuracy", m.accuracy());
}

void print_table1(const BenchEnv& env, const Data& data) {
  struct RowStats {
    int loops = 0;
    int calls = 0;
    int nested = 0;
    long long loc = 0;
  };
  const struct {
    SampleOrigin origin;
    bool parallel;
    PragmaCategory category;
    const char* source;
    const char* type;
    const char* pragma;
    int paper_loops;
  } rows[] = {
      {SampleOrigin::kGitHub, true, PragmaCategory::kReduction, "GitHub", "Parallel",
       "reduction", 3705},
      {SampleOrigin::kGitHub, true, PragmaCategory::kPrivate, "GitHub", "Parallel", "private",
       6278},
      {SampleOrigin::kGitHub, true, PragmaCategory::kSimd, "GitHub", "Parallel", "simd", 3574},
      {SampleOrigin::kGitHub, true, PragmaCategory::kTarget, "GitHub", "Parallel", "target",
       2155},
      {SampleOrigin::kGitHub, false, PragmaCategory::kNone, "GitHub", "Non-parallel", "-",
       13972},
      {SampleOrigin::kSynthetic, true, PragmaCategory::kReduction, "Synthetic", "Parallel",
       "reduction", 200},
      {SampleOrigin::kSynthetic, true, PragmaCategory::kPrivate, "Synthetic", "Parallel",
       "private (do-all)", 200},
      {SampleOrigin::kSynthetic, false, PragmaCategory::kNone, "Synthetic", "Non-parallel",
       "-", 700},
  };

  std::printf("== Table 1: OMP_Serial dataset statistics ==\n\n");
  TextTable table({"Source", "Type", "Pragma Type", "Loops", "Paper(x scale)", "Function Call",
                   "Nested Loops", "Avg. LOC"});
  for (const auto& row : rows) {
    RowStats stats;
    for (const auto& s : data.corpus.samples) {
      if (s.origin != row.origin || s.parallel != row.parallel) continue;
      if (row.parallel && s.category != row.category) continue;
      ++stats.loops;
      stats.calls += s.has_function_call;
      stats.nested += s.is_nested;
      stats.loc += s.loc;
    }
    table.add_row(
        {row.source, row.type, row.pragma, std::to_string(stats.loops),
         std::to_string(static_cast<int>(row.paper_loops * env.scale + 0.5)),
         std::to_string(stats.calls), std::to_string(stats.nested),
         stats.loops == 0 ? "-" : fmt_fixed(static_cast<double>(stats.loc) / stats.loops, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper totals at scale 1.0: 18598 parallelizable + 13972 non-parallelizable GitHub\n"
      "loops, 400 + 700 synthetic. The Paper(x scale) column is the Table 1 count scaled\n"
      "by G2P_SCALE for direct comparison with the Loops column.\n\n");
}

void print_fig2(const Data& data, const ToolRunResults& tools) {
  std::printf("== Figure 2: category-wise loops missed by the tools ==\n\n");
  const auto missed = missed_by_category(data.corpus, tools);
  const LoopCategory categories[] = {
      LoopCategory::kReduction, LoopCategory::kFunctionCall, LoopCategory::kReductionAndCall,
      LoopCategory::kNested, LoopCategory::kOthers};
  TextTable table({"Category", "Missed by PLUTO", "Missed by autoPar", "Missed by DiscoPoP"});
  for (const auto cat : categories) {
    auto row_count = [&](const char* tool) {
      auto it = missed.find(tool);
      if (it == missed.end()) return 0;
      auto jt = it->second.find(cat);
      return jt == it->second.end() ? 0 : jt->second;
    };
    table.add_row({std::string(loop_category_name(cat)), std::to_string(row_count("PLUTO")),
                   std::to_string(row_count("autoPar")),
                   std::to_string(row_count("DiscoPoP"))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("parallel-labeled loops in corpus: %d\n", data.corpus.count_parallel());
  std::printf(
      "\nPaper shape: every tool misses loops in every category; reductions and\n"
      "function calls dominate the static tools' misses, nested loops affect all three.\n\n");
}

// ---- §6.6 case study: the paper's Listings 1-8 ------------------------------

struct Listing {
  const char* name;
  const char* file;  // full TU (helpers + kernel); every listing is parallel
};

const Listing kListings[] = {
    {"Listing 1 (reduction + fabs)",
     "void kernel(double* a) {\n  int i;\n  double error = 0;\n"
     "  for (i = 0; i < 30000000; i++)\n    error = error + fabs(a[i] - a[i + 1]);\n}\n"},
    {"Listing 2 (reduction + abs + structs)",
     "struct pixel { int r; int g; int b; };\n"
     "void kernel(struct pixel* objetivo, struct pixel* individuo, int num_pixels) {\n"
     "  int fitness = 0;\n"
     "  for (int i = 0; i < num_pixels; i++) {\n"
     "    fitness += (abs(objetivo[i].r - individuo[i].r) +\n"
     "                abs(objetivo[i].g - individuo[i].g)) +\n"
     "               abs(objetivo[i].b - individuo[i].b);\n  }\n}\n"},
    {"Listing 3 (user function call)",
     "float square(int x) {\n  int k = 0;\n  while (k < 5000) k++;\n  return sqrt(x);\n}\n"
     "void kernel(float* vector, int size) {\n"
     "  for (int i = 0; i < size; i++) {\n    vector[i] = square(vector[i]);\n  }\n}\n"},
    {"Listing 4 (two-statement reduction)",
     "void kernel(int N, int step) {\n  int v = 0;\n"
     "  for (int i = 0; i < N; i += step) {\n    v += 2;\n    v = v + step;\n  }\n}\n"},
    {"Listing 5 (triple nested counter)",
     "void kernel(void) {\n  int i, j, k, l = 0;\n"
     "  for (j = 0; j < 4; j++)\n    for (i = 0; i < 5; i++)\n"
     "      for (k = 0; k < 6; k += 2)\n        l++;\n}\n"},
    {"Listing 6 (array + reduction)",
     "void kernel(int* a) {\n  int i, sum = 0;\n"
     "  for (i = 0; i < 1000; i++) {\n    a[i] = i * 2;\n    sum += i;\n  }\n}\n"},
    {"Listing 7 (row reduction)",
     "void kernel(double a[1000][1000], double* v, int i) {\n  int j;\n  double sum = 0;\n"
     "  for (j = 0; j < 1000; j++) {\n    sum += a[i][j] * v[j];\n  }\n}\n"},
    {"Listing 8 (nest + outer temp)",
     "void kernel(double a[12][12][12], double m) {\n  int i, j, k;\n  double tmp1;\n"
     "  for (i = 0; i < 12; i++) {\n    for (j = 0; j < 12; j++) {\n"
     "      for (k = 0; k < 12; k++) {\n        tmp1 = 6.0 / m;\n"
     "        a[i][j][k] = tmp1 + 4;\n      }\n    }\n  }\n}\n"},
};

void print_case_study(const Data& data, const ToolRunResults& tools, const Graph2ParModel& model,
                      const EvalReport& report, JsonMetrics& json) {
  std::printf("== Case study (Section 6.6): loops missed by all tools ==\n\n");
  // Corpus sweep: parallel test loops missed by every tool but caught by the
  // model — the paper finds 48 such loops.
  int missed_by_all_found_by_model = 0;
  int missed_by_all = 0;
  for (std::size_t i = 0; i < data.split.test.size(); ++i) {
    const auto idx = static_cast<std::size_t>(data.split.test[i]);
    if (!data.corpus.samples[idx].parallel) continue;
    bool any_tool = false;
    for (const auto& [tool, verdicts] : tools.by_tool) {
      any_tool |= verdicts[idx].detected_parallel();
    }
    if (any_tool) continue;
    ++missed_by_all;
    if (report.predicted_parallel[i]) ++missed_by_all_found_by_model;
  }
  std::printf("test loops missed by ALL three tools:           %d\n", missed_by_all);
  std::printf("...of which Graph2Par detects (paper: 48):      %d\n\n",
              missed_by_all_found_by_model);
  json.set("case_study_missed_by_all", missed_by_all);
  json.set("case_study_missed_by_all_graph2par_detected", missed_by_all_found_by_model);

  const auto analyzers = make_all_tools();
  TextTable table({"Listing", "PLUTO", "autoPar", "DiscoPoP", "Graph2Par"});
  AugAstBuilder builder(data.vocab, AugAstOptions{});
  int listings_detected = 0;
  for (const auto& listing : kListings) {
    auto parsed = parse_translation_unit(listing.file);
    const auto loops = extract_loops(*parsed.tu);
    const Stmt* loop = nullptr;
    for (const auto& l : loops) {
      if (l.loop->kind() == NodeKind::kForStmt) {
        loop = l.loop;
        break;
      }
    }
    if (!loop) loop = loops.front().loop;

    std::vector<std::string> cells = {listing.name};
    for (const auto& tool : analyzers) {
      const auto r = tool->analyze(*loop, parsed.tu, &parsed.structs);
      cells.push_back(!r.applicable ? "n/a" : (r.parallel ? "parallel" : "miss"));
    }
    const auto graph = builder.build(*loop, parsed.tu);
    const bool parallel =
        argmax_rows(model.task_logits(model.encode(graph.graph), PredictionTask::kParallel))[0] ==
        1;
    listings_detected += parallel;
    cells.push_back(parallel ? "parallel" : "miss");
    table.add_row(std::move(cells));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper: all eight listings are parallel; the algorithm-based tools miss them\n"
      "(Listings 1-5 motivate Section 2); Graph2Par detects them.\n");
  json.set("case_study_listings_graph2par_detected", listings_detected);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = json_path_from_args(argc, argv);
  const auto env = BenchEnv::from_env();
  const auto start = Clock::now();
  std::printf("== Paper reproduction (scale %.3g, %d epochs, seed %llu) ==\n\n", env.scale,
              env.epochs, static_cast<unsigned long long>(env.seed));

  Data data;
  data.corpus = CorpusGenerator(env.generator_config()).generate();
  data.split = data.corpus.split();
  data.vocab = build_corpus_vocab(data.corpus, data.split.train);
  std::printf("corpus: %d loops (%d parallel) | train %zu / val %zu / test %zu | vocab %d\n\n",
              data.corpus.size(), data.corpus.count_parallel(), data.split.train.size(),
              data.split.validation.size(), data.split.test.size(), data.vocab.size());

  // Graph2Par and PragFormer train on the same full aug-AST examples.
  const Examples full = prepare(data, AugAstOptions{});
  const Graph2ParModel g2p = train_hgt(data, full.train, env, "Graph2Par");
  const EvalReport g2p_report = evaluate_graph_model(g2p, full.test);
  const EvalReport token_report = [&] {
    PragFormerConfig pc;
    pc.vocab_size = data.vocab.size();
    Rng rng(env.seed);
    PragFormerModel pragformer(pc, rng);
    std::printf("training PragFormer on %zu loops (%d epochs)...\n", full.train.size(),
                env.epochs);
    train_token_model(pragformer, full.train, env.train_config());
    return evaluate_token_model(pragformer, full.test);
  }();

  // Edge ablation: the same HGT without one aug-AST edge family, and
  // without all three — the vanilla AST, i.e. the HGT-AST baseline.
  const struct {
    const char* name;
    const char* key;
    AugAstOptions options;
  } ablations[] = {
      {"- CFG edges", "no_cfg", AugAstOptions{.cfg_edges = false}},
      {"- lexical edges", "no_lexical", AugAstOptions{.lexical_edges = false}},
      {"- call edges", "no_call", AugAstOptions{.call_edges = false}},
      {"vanilla AST", "vanilla_ast",
       AugAstOptions{.cfg_edges = false, .lexical_edges = false, .call_edges = false}},
  };
  std::vector<EvalReport> ablation_reports;
  for (const auto& ablation : ablations) {
    const Examples examples = prepare(data, ablation.options);
    const auto model = train_hgt(data, examples.train, env, ablation.name);
    ablation_reports.push_back(evaluate_graph_model(model, examples.test));
  }
  const EvalReport& ast_report = ablation_reports.back();

  std::printf("running PLUTO / autoPar / DiscoPoP simulacra on %d loops...\n\n",
              data.corpus.size());
  const auto tools = run_tools_on_corpus(data.corpus);

  JsonMetrics json;
  set_common_header(json, "reproduction");
  json.set("scale", env.scale);
  json.set("epochs", env.epochs);
  json.set("seed", static_cast<std::int64_t>(env.seed));
  json.set("corpus_loops", data.corpus.size());
  json.set("test_loops", static_cast<std::int64_t>(data.split.test.size()));

  print_table1(env, data);
  print_fig2(data, tools);

  // ---- Table 2 ----
  std::printf("== Table 2: pragma existence prediction ==\n\n");
  {
    TextTable table({"Approach", "Precision", "Recall", "F1", "Accuracy"});
    auto add = [&](const char* name, const char* key, const BinaryMetrics& m) {
      table.add_row({name, pct(m.precision()), pct(m.recall()), pct(m.f1()), pct(m.accuracy())});
      set_metrics(json, std::string("table2_") + key, m);
    };
    add("AST (HGT)", "ast_hgt", ast_report.parallel());
    add("PragFormer", "pragformer", token_report.parallel());
    add("Graph2Par", "graph2par", g2p_report.parallel());
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Paper (Table 2):  AST 0.74/0.73/0.74/0.74 | PragFormer 0.81/0.81/0.80/0.80 |\n"
        "                  Graph2Par 0.92/0.82/0.87/0.85\n"
        "Expected shape: Graph2Par dominates both baselines on F1/accuracy; the aug-AST's\n"
        "CFG + lexical + call-site edges are what separate it from the vanilla AST.\n\n");
  }

  // ---- Table 3 ----
  std::printf("== Table 3: detected parallel loops ==\n\n");
  {
    int g2p_detected = 0, ast_detected = 0, parallel_total = 0;
    for (std::size_t i = 0; i < data.split.test.size(); ++i) {
      const bool actual =
          data.corpus.samples[static_cast<std::size_t>(data.split.test[i])].parallel;
      parallel_total += actual;
      g2p_detected += (g2p_report.predicted_parallel[i] && actual);
      ast_detected += (ast_report.predicted_parallel[i] && actual);
    }
    TextTable table({"Approach", "# detected parallel loops", "Paper"});
    auto add = [&](const char* name, int detected, const char* paper) {
      table.add_row({name, std::to_string(detected), paper});
      json.set("table3_" + key_part(name) + "_detected", detected);
    };
    add("Graph2Par", g2p_detected, "17563");
    add("HGT-AST", ast_detected, "16236");
    for (const auto& [tool, paper] : {std::pair{"DiscoPoP", "953"}, std::pair{"PLUTO", "1759"},
                                      std::pair{"autoPar", "6391"}}) {
      add(tool, count_detected(data.corpus, tools, tool, data.split.test), paper);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("parallel loops in test split: %d\n", parallel_total);
    json.set("table3_parallel_test_loops", parallel_total);
    std::printf(
        "\nPaper shape: the learned models detect several times more parallel loops than\n"
        "any algorithm-based tool; Graph2Par >= HGT-AST; autoPar > PLUTO > DiscoPoP.\n"
        "(Paper counts are over the full 18598-parallel-loop dataset; ours are over the\n"
        "test split at G2P_SCALE.)\n\n");
  }

  // ---- Table 4 ----
  std::printf("== Table 4: per-tool subset comparison ==\n\n");
  {
    std::map<int, bool> pred_of;  // corpus index -> Graph2Par prediction
    for (std::size_t i = 0; i < data.split.test.size(); ++i) {
      pred_of[data.split.test[i]] = g2p_report.predicted_parallel[i];
    }
    TextTable table({"Subset", "Approach", "TP", "TN", "FP", "FN", "Precision", "Recall", "F1",
                     "Accuracy(%)"});
    auto add_row = [&](const std::string& subset, const std::string& approach,
                       const std::string& key, const BinaryMetrics& m) {
      table.add_row({subset, approach, std::to_string(m.tp), std::to_string(m.tn),
                     std::to_string(m.fp), std::to_string(m.fn),
                     fmt_fixed(100.0 * m.precision(), 2), fmt_fixed(100.0 * m.recall(), 2),
                     fmt_fixed(100.0 * m.f1(), 2), fmt_fixed(100.0 * m.accuracy(), 2)});
      json.set(key + "_tp", m.tp);
      json.set(key + "_tn", m.tn);
      json.set(key + "_fp", m.fp);
      json.set(key + "_fn", m.fn);
      set_metrics(json, key, m);
    };
    for (const auto& cmp : build_subsets(data.corpus, tools, data.split.test)) {
      BinaryMetrics model_metrics;
      for (int idx : cmp.subset) {
        model_metrics.add(pred_of.at(idx),
                          data.corpus.samples[static_cast<std::size_t>(idx)].parallel);
      }
      const std::string subset_name =
          "Subset_" + cmp.tool + " (" + std::to_string(cmp.subset.size()) + ")";
      const std::string key = "table4_" + key_part(cmp.tool) + "_subset";
      json.set(key + "_loops", static_cast<std::int64_t>(cmp.subset.size()));
      add_row(subset_name, cmp.tool, key + "_" + key_part(cmp.tool), cmp.tool_metrics);
      add_row(subset_name, "Graph2Par", key + "_graph2par", model_metrics);
      if (cmp.tool_metrics.tp > 0) {
        std::printf("Graph2Par finds %.1fx the true positives of %s on its subset\n",
                    static_cast<double>(model_metrics.tp) / cmp.tool_metrics.tp,
                    cmp.tool.c_str());
      }
    }
    std::printf("\n%s\n", table.render().c_str());
    std::printf(
        "Paper (Table 4) shape: tools have 100%% precision (conservative, FP=0) but low\n"
        "recall (PLUTO 39.5, autoPar 14.4, DiscoPoP 54.9); Graph2Par achieves higher F1\n"
        "and accuracy on every subset and 1.2-5.2x the true positives.\n\n");
  }

  // ---- Table 5 ----
  std::printf("== Table 5: pragma clause prediction ==\n\n");
  {
    TextTable table({"Pragma", "Approach", "Precision", "Recall", "F1-score", "Accuracy"});
    const struct {
      PredictionTask task;
      const char* name;
    } tasks[] = {{PredictionTask::kPrivate, "private"},
                 {PredictionTask::kReduction, "reduction"},
                 {PredictionTask::kSimd, "SIMD"},
                 {PredictionTask::kTarget, "target"}};
    for (const auto& t : tasks) {
      for (const auto& [approach, report] :
           {std::pair{"Graph2Par", &g2p_report}, std::pair{"PragFormer", &token_report}}) {
        const auto& m = report->tasks[static_cast<std::size_t>(t.task)];
        table.add_row({t.name, approach, pct(m.precision()), pct(m.recall()), pct(m.f1()),
                       pct(m.accuracy())});
        set_metrics(json, "table5_" + key_part(t.name) + "_" + key_part(approach), m);
      }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Paper (Table 5): private G2P .88/.87/.87/.89 vs PF .86/.85/.86/.85;\n"
        "reduction G2P .90/.89/.91/.91 vs PF .89/.87/.87/.87; SIMD G2P .79/.76/.77/.77;\n"
        "target G2P .75/.74/.74/.74 (PragFormer N/A for simd/target in the paper).\n"
        "Shape: Graph2Par >= PragFormer on private/reduction; simd/target are harder.\n\n");
  }

  // ---- Edge ablation ----
  std::printf("== Ablation: aug-AST edge families ==\n\n");
  {
    TextTable table({"Variant", "Precision", "Recall", "F1", "Accuracy"});
    auto add = [&](const char* name, const char* key, const BinaryMetrics& m) {
      table.add_row({name, pct(m.precision()), pct(m.recall()), pct(m.f1()), pct(m.accuracy())});
      set_metrics(json, std::string("ablation_") + key, m);
    };
    add("full aug-AST", "full", g2p_report.parallel());
    for (std::size_t v = 0; v < std::size(ablations); ++v) {
      add(ablations[v].name, ablations[v].key, ablation_reports[v].parallel());
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Expected shape: the full aug-AST dominates; removing call edges hurts on the\n"
        "callee-dependent loops (Section 5.1.2), removing lexical edges hurts on the\n"
        "long-bodied loops (Section 5.1.3).\n\n");
  }

  print_case_study(data, tools, g2p, g2p_report, json);

  const double wall_s = seconds_since(start);
  std::printf("\nwall time: %.1f s (6 trainings, one tool sweep)\n", wall_s);
  json.set("wall_s", wall_s);
  if (!json.write(json_path)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
