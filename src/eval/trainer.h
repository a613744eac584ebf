// Training and evaluation harness for the Graph2Par model and the
// PragFormer baseline ("Training and Prediction" stage of Figure 1).
//
// Examples are prepared once per representation (full aug-AST, vanilla AST,
// or token sequence) and reused across epochs; mini-batches of graphs are
// merged into one disjoint union so every HGT step is a single dense pass.
#pragma once

#include <array>
#include <vector>

#include "core/graph2par.h"
#include "core/pragformer.h"
#include "dataset/corpus.h"
#include "eval/metrics.h"

namespace g2p {

/// One model-ready example.
struct Example {
  int corpus_index = -1;
  LoopGraph graph;          // graph representations
  std::vector<int> tokens;  // token representation
  int label_parallel = 0;
  std::array<int, 4> clause_labels = {0, 0, 0, 0};  // private/reduction/simd/target
};

/// Shared vocabulary over node attributes and code tokens of the corpus
/// (built on training data only, in the paper's spirit).
Vocab build_corpus_vocab(const Corpus& corpus, const std::vector<int>& train_indices,
                         int min_freq = 2, int max_size = 6000);

/// Build examples for the given corpus rows. `aug` controls the edge
/// families (full aug-AST vs vanilla AST ablation). Token sequences are
/// always attached so the same examples serve PragFormer.
std::vector<Example> prepare_examples(const Corpus& corpus, const std::vector<int>& indices,
                                      const Vocab& vocab, const AugAstOptions& aug,
                                      int token_max_len = 128);

struct TrainConfig {
  int epochs = 6;
  int batch_size = 16;
  float lr = 3e-3f;
  float weight_decay = 1e-4f;
  float clip_norm = 5.0f;
  float clause_loss_weight = 0.5f;  // clause heads vs the parallel head
  std::uint64_t seed = 7;
  bool verbose = false;
};

/// Per-task metrics of one evaluation pass, plus the parallel head's
/// prediction for every example in input order (Table 3/4 counting).
struct EvalReport {
  std::array<BinaryMetrics, kNumPredictionTasks> tasks;
  std::vector<bool> predicted_parallel;
  const BinaryMetrics& parallel() const { return tasks[0]; }
};

// Graph2Par and PragFormer share one joint-task training loop and one
// evaluation loop; they differ only in how a batch of examples becomes
// pooled rows (one disjoint-union encode vs per-sequence encodes).

/// Train all heads jointly; clause heads see only parallel-labeled examples.
void train_graph_model(Graph2ParModel& model, const std::vector<Example>& train,
                       const TrainConfig& config);

EvalReport evaluate_graph_model(const Graph2ParModel& model,
                                const std::vector<Example>& examples, int batch_size = 32);

void train_token_model(PragFormerModel& model, const std::vector<Example>& train,
                       const TrainConfig& config);

/// Evaluates one sequence per step.
EvalReport evaluate_token_model(const PragFormerModel& model,
                                const std::vector<Example>& examples);

}  // namespace g2p
