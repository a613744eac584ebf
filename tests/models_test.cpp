#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include <unistd.h>  // truncate(), for the corrupt-checkpoint tests

#include "core/pipeline.h"
#include "dataset/generator.h"
#include "eval/comparison.h"
#include "eval/trainer.h"

namespace g2p {
namespace {

// Shared tiny corpus + examples for the model tests.
class ModelFixture : public ::testing::Test {
 protected:
  struct State {
    Corpus corpus;
    CorpusSplit split;
    Vocab vocab;
    std::vector<Example> train_examples;
    std::vector<Example> test_examples;
  };

  static const State& state() {
    static const State s = [] {
      GeneratorConfig cfg;
      cfg.scale = 0.02;
      State out;
      out.corpus = CorpusGenerator(cfg).generate();
      out.split = out.corpus.split();
      out.vocab = build_corpus_vocab(out.corpus, out.split.train);
      const AugAstOptions aug;
      out.train_examples = prepare_examples(out.corpus, out.split.train, out.vocab, aug);
      out.test_examples = prepare_examples(out.corpus, out.split.test, out.vocab, aug);
      return out;
    }();
    return s;
  }
};

TEST_F(ModelFixture, VocabularyCoversCommonTokens) {
  const auto& vocab = state().vocab;
  EXPECT_GT(vocab.size(), 50);
  EXPECT_NE(vocab.id("for"), Vocab::kUnk);
  EXPECT_NE(vocab.id("+="), Vocab::kUnk);
}

TEST_F(ModelFixture, ExamplesCarryGraphsAndTokens) {
  for (const auto& ex : state().train_examples) {
    EXPECT_GT(ex.graph.graph.num_nodes(), 3);
    EXPECT_TRUE(ex.graph.graph.valid());
    EXPECT_GT(ex.tokens.size(), 2u);
    if (ex.label_parallel == 0) {
      for (int c : ex.clause_labels) EXPECT_EQ(c, 0);
    }
  }
}

TEST_F(ModelFixture, Graph2ParLearnsParallelismDetection) {
  Rng rng(1);
  Graph2ParConfig mc;
  mc.vocab_size = state().vocab.size();
  Graph2ParModel model(mc, rng);

  TrainConfig tc;
  tc.epochs = 4;
  tc.seed = 11;
  train_graph_model(model, state().train_examples, tc);

  const auto report = evaluate_graph_model(model, state().test_examples);
  // On the template corpus a trained model must be far above chance.
  EXPECT_GT(report.parallel().accuracy(), 0.75)
      << "accuracy " << report.parallel().accuracy();
  EXPECT_GT(report.parallel().f1(), 0.7);
}

TEST_F(ModelFixture, Graph2ParPredictionsAlignWithEvaluate) {
  Rng rng(2);
  Graph2ParConfig mc;
  mc.vocab_size = state().vocab.size();
  Graph2ParModel model(mc, rng);
  TrainConfig tc;
  tc.epochs = 2;
  train_graph_model(model, state().train_examples, tc);

  // The report's per-example predictions are in input order: each equals
  // the parallel head on that example's graph alone, and together they
  // recount the report's parallel metrics.
  const auto& examples = state().test_examples;
  const auto report = evaluate_graph_model(model, examples);
  ASSERT_EQ(report.predicted_parallel.size(), examples.size());
  const NoGradGuard no_grad;
  BinaryMetrics recount;
  for (std::size_t i = 0; i < examples.size(); ++i) {
    const bool alone =
        argmax_rows(model.task_logits(model.encode(examples[i].graph.graph),
                                      PredictionTask::kParallel))[0] == 1;
    EXPECT_EQ(report.predicted_parallel[i], alone) << "example " << i;
    recount.add(report.predicted_parallel[i], examples[i].label_parallel == 1);
  }
  EXPECT_EQ(recount.tp, report.parallel().tp);
  EXPECT_EQ(recount.fp, report.parallel().fp);
  EXPECT_EQ(recount.tn, report.parallel().tn);
  EXPECT_EQ(recount.fn, report.parallel().fn);
}

TEST_F(ModelFixture, PragFormerLearnsAboveChance) {
  Rng rng(3);
  PragFormerConfig pc;
  pc.vocab_size = state().vocab.size();
  PragFormerModel model(pc, rng);
  TrainConfig tc;
  tc.epochs = 4;
  tc.seed = 13;
  train_token_model(model, state().train_examples, tc);
  const auto report = evaluate_token_model(model, state().test_examples);
  EXPECT_GT(report.parallel().accuracy(), 0.65);
}

TEST_F(ModelFixture, DeterministicTrainingGivesIdenticalModels) {
  auto build = [&] {
    Rng rng(4);
    Graph2ParConfig mc;
    mc.vocab_size = state().vocab.size();
    Graph2ParModel model(mc, rng);
    TrainConfig tc;
    tc.epochs = 1;
    train_graph_model(model, state().train_examples, tc);
    return evaluate_graph_model(model, state().test_examples).parallel().accuracy();
  };
  EXPECT_EQ(build(), build());
}

TEST_F(ModelFixture, PragFormerDeterministicTraining) {
  auto train = [&] {
    Rng rng(5);
    PragFormerConfig pc;
    pc.vocab_size = state().vocab.size();
    auto model = std::make_unique<PragFormerModel>(pc, rng);
    TrainConfig tc;
    tc.epochs = 1;
    tc.seed = 17;
    train_token_model(*model, state().train_examples, tc);
    return model;
  };
  const auto a = train();
  const auto b = train();
  ASSERT_EQ(a->parameters().size(), b->parameters().size());
  for (std::size_t p = 0; p < a->parameters().size(); ++p) {
    const auto& da = a->parameters()[p].data();
    const auto& db = b->parameters()[p].data();
    ASSERT_EQ(da.size(), db.size()) << "parameter " << p;
    EXPECT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(float)), 0)
        << "parameter " << p << " differs between two runs from one seed";
  }
}

TEST_F(ModelFixture, ComparisonHarnessShapes) {
  const auto& s = state();
  const auto results = run_tools_on_corpus(s.corpus);
  ASSERT_EQ(results.by_tool.size(), 3u);
  for (const auto& [tool, verdicts] : results.by_tool) {
    EXPECT_EQ(verdicts.size(), s.corpus.samples.size()) << tool;
  }

  const auto missed = missed_by_category(s.corpus, results);
  int total_missed = 0;
  for (const auto& [tool, buckets] : missed) {
    for (const auto& [cat, count] : buckets) total_missed += count;
  }
  EXPECT_GT(total_missed, 0);  // the paper's premise: tools miss loops

  const auto subsets = build_subsets(s.corpus, results, s.split.test);
  ASSERT_EQ(subsets.size(), 3u);
  for (const auto& cmp : subsets) {
    EXPECT_FALSE(cmp.subset.empty()) << cmp.tool;
    EXPECT_EQ(cmp.tool_metrics.fp, 0) << cmp.tool << " must be conservative";
  }
}

TEST(Pipeline, TrainSuggestAndRoundTrip) {
  Pipeline::Options options;
  options.corpus.scale = 0.015;
  options.train.epochs = 3;
  Pipeline pipeline = Pipeline::train(options);

  const std::string source =
      "void kernel(double* a, double* b, int n) {\n"
      "  int i;\n"
      "  double sum = 0;\n"
      "  for (i = 0; i < n; i++)\n"
      "    sum += a[i] * b[i];\n"
      "  for (i = 1; i < n; i++)\n"
      "    a[i] = a[i - 1] * 0.5;\n"
      "}\n";
  const auto suggestions = pipeline.suggest(source);
  ASSERT_EQ(suggestions.size(), 2u);
  EXPECT_EQ(suggestions[0].function_name, "kernel");
  for (const auto& s : suggestions) {
    EXPECT_GE(s.confidence, 0.0);
    EXPECT_LE(s.confidence, 1.0);
    if (s.parallel) {
      EXPECT_FALSE(s.suggested_pragma.empty());
    }
  }

  // Save / load round trip reproduces identical suggestions.
  const std::string model_path = "/tmp/g2p_test_model.bin";
  const std::string vocab_path = "/tmp/g2p_test_vocab.txt";
  ASSERT_TRUE(pipeline.save(model_path, vocab_path));
  auto restored = Pipeline::load(options, model_path, vocab_path);
  ASSERT_TRUE(restored.has_value());
  const auto restored_suggestions = restored->suggest(source);
  ASSERT_EQ(restored_suggestions.size(), suggestions.size());
  for (std::size_t i = 0; i < suggestions.size(); ++i) {
    EXPECT_EQ(restored_suggestions[i].parallel, suggestions[i].parallel);
    EXPECT_EQ(restored_suggestions[i].category, suggestions[i].category);
    EXPECT_EQ(restored_suggestions[i].suggested_pragma, suggestions[i].suggested_pragma);
    EXPECT_EQ(restored_suggestions[i].line, suggestions[i].line);
    EXPECT_NEAR(restored_suggestions[i].confidence, suggestions[i].confidence, 1e-5);
  }

  // Truncated model file: load fails soft with nullopt, never a crash.
  {
    std::FILE* f = std::fopen(model_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_GT(size, 64);
    ASSERT_EQ(truncate(model_path.c_str(), size / 2), 0);
    EXPECT_FALSE(Pipeline::load(options, model_path, vocab_path).has_value());
  }

  // Corrupt model file (garbage header): same soft failure.
  {
    std::FILE* f = std::fopen(model_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "definitely not a checkpoint";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
    EXPECT_FALSE(Pipeline::load(options, model_path, vocab_path).has_value());
  }

  // Corrupt vocab alongside a missing model: still nullopt.
  {
    std::FILE* f = std::fopen(vocab_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x01\x02 not a vocab \xff";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
    EXPECT_FALSE(
        Pipeline::load(options, "/nonexistent/model.bin", vocab_path).has_value());
  }

  std::remove(model_path.c_str());
  std::remove(vocab_path.c_str());
}

TEST(Pipeline, LoadMissingFilesReturnsNullopt) {
  Pipeline::Options options;
  EXPECT_FALSE(Pipeline::load(options, "/nonexistent/model.bin", "/nonexistent/vocab.txt")
                   .has_value());
}

TEST(Pipeline, SaveToUnwritablePathReturnsFalse) {
  Pipeline::Options options;
  options.corpus.scale = 0.01;
  options.train.epochs = 1;
  const Pipeline pipeline = Pipeline::train(options);
  // Unwritable model path: no vocab file may be left behind either.
  const std::string vocab_path = "/tmp/g2p_test_orphan_vocab.txt";
  std::remove(vocab_path.c_str());
  EXPECT_FALSE(pipeline.save("/nonexistent_dir/model.bin", vocab_path));
  std::FILE* orphan = std::fopen(vocab_path.c_str(), "rb");
  EXPECT_EQ(orphan, nullptr) << "save wrote a vocab after the model already failed";
  if (orphan) std::fclose(orphan);
  // Writable model path but unwritable vocab path.
  const std::string model_path = "/tmp/g2p_test_save_model.bin";
  EXPECT_FALSE(pipeline.save(model_path, "/nonexistent_dir/vocab.txt"));
  std::remove(model_path.c_str());
}

}  // namespace
}  // namespace g2p
