#include "eval/trainer.h"

#include <algorithm>
#include <span>

#include "frontend/lexer.h"
#include "support/log.h"
#include "support/rng.h"
#include "tensor/optim.h"

namespace g2p {

Vocab build_corpus_vocab(const Corpus& corpus, const std::vector<int>& train_indices,
                         int min_freq, int max_size) {
  std::unordered_map<std::string, int> counts;
  for (int idx : train_indices) {
    const auto& sample = corpus.samples[static_cast<std::size_t>(idx)];
    // Node attributes of the whole file (covers callee bodies merged into
    // aug-ASTs) plus raw code tokens of the loop (PragFormer input).
    collect_text_attributes(*sample.parsed->tu, counts);
    try {
      Arena arena;
      for (const auto& token : lex_code_tokens(sample.loop_source, arena)) {
        ++counts[std::string(token.text)];
      }
    } catch (const std::exception&) {
    }
  }
  return Vocab::build(counts, min_freq, max_size);
}

std::vector<Example> prepare_examples(const Corpus& corpus, const std::vector<int>& indices,
                                      const Vocab& vocab, const AugAstOptions& aug,
                                      int token_max_len) {
  AugAstBuilder builder(vocab, aug);
  std::vector<Example> out;
  out.reserve(indices.size());
  for (int idx : indices) {
    const auto& sample = corpus.samples[static_cast<std::size_t>(idx)];
    Example ex;
    ex.corpus_index = idx;
    ex.graph = builder.build(*sample.loop, sample.parsed->tu);
    ex.tokens = tokenize_for_model(sample.loop_source, vocab, token_max_len);
    ex.label_parallel = sample.parallel ? 1 : 0;
    ex.clause_labels = {sample.category == PragmaCategory::kPrivate ? 1 : 0,
                        sample.category == PragmaCategory::kReduction ? 1 : 0,
                        sample.category == PragmaCategory::kSimd ? 1 : 0,
                        sample.category == PragmaCategory::kTarget ? 1 : 0};
    out.push_back(std::move(ex));
  }
  return out;
}

namespace {

using ExampleSpan = std::span<const Example* const>;

/// Cross-entropy restricted to rows where `mask` is true; null tensor if no
/// rows qualify.
Tensor masked_ce(const Tensor& logits, const std::vector<int>& labels,
                 const std::vector<bool>& mask) {
  std::vector<int> rows;
  std::vector<int> kept_labels;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      rows.push_back(static_cast<int>(i));
      kept_labels.push_back(labels[i]);
    }
  }
  if (rows.empty()) return Tensor();
  return cross_entropy(index_select_rows(logits, rows), kept_labels);
}

/// The joint-task training loop shared by every model: shuffled
/// mini-batches, the parallel head's loss plus the weighted clause losses,
/// Adam with gradient clipping. `pool_rows` turns a batch of examples into
/// pooled rows [batch, dim]; it is the only part that differs per model.
template <typename Model, typename PoolRows>
void train_jointly(Model& model, const std::vector<Example>& train, const TrainConfig& config,
                   const char* name, PoolRows pool_rows) {
  Rng rng(config.seed);
  Adam opt(model.parameters(), config.lr, 0.9f, 0.999f, 1e-8f, config.weight_decay);

  std::vector<int> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);

  std::vector<const Example*> batch;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    int batches = 0;
    for (std::size_t begin = 0; begin < order.size();
         begin += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t end =
          std::min(order.size(), begin + static_cast<std::size_t>(config.batch_size));

      batch.clear();
      std::vector<int> parallel_labels;
      std::vector<bool> is_parallel;
      std::array<std::vector<int>, 4> clause_labels;
      for (std::size_t k = begin; k < end; ++k) {
        const Example& ex = train[static_cast<std::size_t>(order[k])];
        batch.push_back(&ex);
        parallel_labels.push_back(ex.label_parallel);
        is_parallel.push_back(ex.label_parallel == 1);
        for (int c = 0; c < 4; ++c) {
          clause_labels[static_cast<std::size_t>(c)].push_back(
              ex.clause_labels[static_cast<std::size_t>(c)]);
        }
      }

      opt.zero_grad();
      const Tensor pooled = pool_rows(ExampleSpan(batch));
      Tensor loss = cross_entropy(model.task_logits(pooled, PredictionTask::kParallel),
                                  parallel_labels);
      // Clause heads: only parallel loops carry a clause label (§6.3).
      for (int c = 0; c < 4; ++c) {
        const Tensor clause_loss =
            masked_ce(model.task_logits(pooled, static_cast<PredictionTask>(c + 1)),
                      clause_labels[static_cast<std::size_t>(c)], is_parallel);
        if (clause_loss.defined()) {
          loss = add(loss, scale(clause_loss, config.clause_loss_weight));
        }
      }
      loss.backward();
      opt.clip_grad_norm(config.clip_norm);
      opt.step();
      epoch_loss += loss.item();
      ++batches;
    }
    if (config.verbose) {
      G2P_LOG_INFO << name << " epoch " << epoch + 1 << "/" << config.epochs
                   << " loss=" << (batches ? epoch_loss / batches : 0.0);
    }
  }
}

/// The evaluation loop shared by every model: contiguous batches of
/// `batch_size` examples through `pool_rows`, every head's argmax scored
/// against its label. Clause tasks are scored on parallel loops only
/// (§6.3 labeling rule).
template <typename Model, typename PoolRows>
EvalReport evaluate_jointly(const Model& model, const std::vector<Example>& examples,
                            int batch_size, PoolRows pool_rows) {
  EvalReport report;
  report.predicted_parallel.resize(examples.size());
  const NoGradGuard no_grad;
  std::vector<const Example*> batch;
  for (std::size_t begin = 0; begin < examples.size();
       begin += static_cast<std::size_t>(batch_size)) {
    const std::size_t end =
        std::min(examples.size(), begin + static_cast<std::size_t>(batch_size));
    batch.clear();
    for (std::size_t k = begin; k < end; ++k) batch.push_back(&examples[k]);
    const Tensor pooled = pool_rows(ExampleSpan(batch));
    std::array<std::vector<int>, kNumPredictionTasks> preds;
    for (int t = 0; t < kNumPredictionTasks; ++t) {
      preds[static_cast<std::size_t>(t)] =
          argmax_rows(model.task_logits(pooled, static_cast<PredictionTask>(t)));
    }
    for (std::size_t k = begin; k < end; ++k) {
      const Example& ex = examples[k];
      const std::size_t row = k - begin;
      const bool parallel = preds[0][row] == 1;
      report.predicted_parallel[k] = parallel;
      report.tasks[0].add(parallel, ex.label_parallel == 1);
      if (ex.label_parallel == 1) {
        for (int c = 0; c < 4; ++c) {
          report.tasks[static_cast<std::size_t>(c + 1)].add(
              preds[static_cast<std::size_t>(c + 1)][row] == 1,
              ex.clause_labels[static_cast<std::size_t>(c)] == 1);
        }
      }
    }
  }
  return report;
}

/// Graph2Par pools a batch through one disjoint union: every HGT layer of
/// the step shares its precomputed CSR. The union lives until the next call,
/// which frees it before building the next one, as a per-step local would.
/// Freeing it before the step's backward pass instead changed glibc's heap
/// trimming enough to slow training inside perfbench's process in 5 of 6
/// runs (up to +50%).
auto graph_rows(const Graph2ParModel& model) {
  return [&model, held = BatchedGraph{}](ExampleSpan batch) mutable {
    std::vector<const HetGraph*> graphs;
    graphs.reserve(batch.size());
    for (const Example* ex : batch) graphs.push_back(&ex->graph.graph);
    held = BatchedGraph{};
    held = batch_graphs(graphs);
    return model.encode(held);
  };
}

/// PragFormer encodes sequences one by one (ragged lengths) and
/// concatenates the pooled rows into one batch for the heads.
auto token_rows(const PragFormerModel& model) {
  return [&model](ExampleSpan batch) {
    std::vector<Tensor> rows;
    rows.reserve(batch.size());
    for (const Example* ex : batch) rows.push_back(model.encode(ex->tokens));
    return concat_rows(rows);
  };
}

}  // namespace

void train_graph_model(Graph2ParModel& model, const std::vector<Example>& train,
                       const TrainConfig& config) {
  train_jointly(model, train, config, "graph-model", graph_rows(model));
}

EvalReport evaluate_graph_model(const Graph2ParModel& model,
                                const std::vector<Example>& examples, int batch_size) {
  return evaluate_jointly(model, examples, batch_size, graph_rows(model));
}

void train_token_model(PragFormerModel& model, const std::vector<Example>& train,
                       const TrainConfig& config) {
  train_jointly(model, train, config, "token-model", token_rows(model));
}

EvalReport evaluate_token_model(const PragFormerModel& model,
                                const std::vector<Example>& examples) {
  return evaluate_jointly(model, examples, 1, token_rows(model));
}

}  // namespace g2p
