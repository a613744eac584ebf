#include "eval/trainer.h"

#include <algorithm>

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

/// Merge a shuffled mini-batch of example graphs into one indexed
/// BatchedGraph; every HGT layer of the step shares the precomputed CSR.
BatchedGraph batch_of(const std::vector<Example>& examples, std::span<const int> order,
                      std::size_t begin, std::size_t end) {
  std::vector<const HetGraph*> graphs;
  graphs.reserve(end - begin);
  for (std::size_t k = begin; k < end; ++k) {
    graphs.push_back(&examples[static_cast<std::size_t>(order[k])].graph.graph);
  }
  return batch_graphs(graphs);
}

/// Contiguous (unshuffled) batch for evaluation/prediction passes.
BatchedGraph batch_of(const std::vector<Example>& examples, std::size_t begin,
                      std::size_t end) {
  std::vector<const HetGraph*> graphs;
  graphs.reserve(end - begin);
  for (std::size_t k = begin; k < end; ++k) graphs.push_back(&examples[k].graph.graph);
  return batch_graphs(graphs);
}

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

}  // namespace

void train_graph_model(Graph2ParModel& model, const std::vector<Example>& train,
                       const TrainConfig& config) {
  Rng rng(config.seed);
  Adam opt(model.parameters(), config.lr, 0.9f, 0.999f, 1e-8f, config.weight_decay);

  std::vector<int> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    int batches = 0;
    for (std::size_t begin = 0; begin < order.size();
         begin += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t end =
          std::min(order.size(), begin + static_cast<std::size_t>(config.batch_size));
      const auto batch = batch_of(train, order, begin, end);

      std::vector<int> parallel_labels;
      std::vector<bool> is_parallel;
      std::array<std::vector<int>, 4> clause_labels;
      for (std::size_t k = begin; k < end; ++k) {
        const Example& ex = train[static_cast<std::size_t>(order[k])];
        parallel_labels.push_back(ex.label_parallel);
        is_parallel.push_back(ex.label_parallel == 1);
        for (int c = 0; c < 4; ++c) {
          clause_labels[static_cast<std::size_t>(c)].push_back(
              ex.clause_labels[static_cast<std::size_t>(c)]);
        }
      }

      opt.zero_grad();
      const Tensor pooled = model.encode(batch);
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
      G2P_LOG_INFO << "graph-model epoch " << epoch + 1 << "/" << config.epochs
                   << " loss=" << (batches ? epoch_loss / batches : 0.0);
    }
  }
}

EvalReport evaluate_graph_model(const Graph2ParModel& model,
                                const std::vector<Example>& examples, int batch_size) {
  EvalReport report;
  const NoGradGuard no_grad;
  for (std::size_t begin = 0; begin < examples.size();
       begin += static_cast<std::size_t>(batch_size)) {
    const std::size_t end =
        std::min(examples.size(), begin + static_cast<std::size_t>(batch_size));
    const auto batch = batch_of(examples, begin, end);
    const Tensor pooled = model.encode(batch);
    const auto parallel_pred =
        argmax_rows(model.task_logits(pooled, PredictionTask::kParallel));
    std::array<std::vector<int>, 4> clause_preds;
    for (int c = 0; c < 4; ++c) {
      clause_preds[static_cast<std::size_t>(c)] =
          argmax_rows(model.task_logits(pooled, static_cast<PredictionTask>(c + 1)));
    }
    for (std::size_t k = begin; k < end; ++k) {
      const Example& ex = examples[k];
      const std::size_t row = k - begin;
      report.tasks[0].add(parallel_pred[row] == 1, ex.label_parallel == 1);
      // Clause tasks are evaluated on parallel loops (§6.3 labeling rule).
      if (ex.label_parallel == 1) {
        for (int c = 0; c < 4; ++c) {
          report.tasks[static_cast<std::size_t>(c + 1)].add(
              clause_preds[static_cast<std::size_t>(c)][row] == 1,
              ex.clause_labels[static_cast<std::size_t>(c)] == 1);
        }
      }
    }
  }
  return report;
}

std::vector<bool> predict_parallel(const Graph2ParModel& model,
                                   const std::vector<Example>& examples, int batch_size) {
  std::vector<bool> out(examples.size());
  const NoGradGuard no_grad;
  for (std::size_t begin = 0; begin < examples.size();
       begin += static_cast<std::size_t>(batch_size)) {
    const std::size_t end =
        std::min(examples.size(), begin + static_cast<std::size_t>(batch_size));
    const auto batch = batch_of(examples, begin, end);
    const auto preds =
        argmax_rows(model.task_logits(model.encode(batch), PredictionTask::kParallel));
    for (std::size_t k = begin; k < end; ++k) out[k] = preds[k - begin] == 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// PragFormer
// ---------------------------------------------------------------------------

void train_token_model(PragFormerModel& model, const std::vector<Example>& train,
                       const TrainConfig& config) {
  Rng rng(config.seed);
  Adam opt(model.parameters(), config.lr, 0.9f, 0.999f, 1e-8f, config.weight_decay);

  std::vector<int> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    int batches = 0;
    for (std::size_t begin = 0; begin < order.size();
         begin += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t end =
          std::min(order.size(), begin + static_cast<std::size_t>(config.batch_size));

      // Sequences are encoded one by one (ragged lengths); pooled rows are
      // then concatenated into one batch for the heads.
      std::vector<Tensor> pooled_rows;
      std::vector<int> parallel_labels;
      std::vector<bool> is_parallel;
      std::array<std::vector<int>, 4> clause_labels;
      for (std::size_t k = begin; k < end; ++k) {
        const Example& ex = train[static_cast<std::size_t>(order[k])];
        pooled_rows.push_back(model.encode(ex.tokens));
        parallel_labels.push_back(ex.label_parallel);
        is_parallel.push_back(ex.label_parallel == 1);
        for (int c = 0; c < 4; ++c) {
          clause_labels[static_cast<std::size_t>(c)].push_back(
              ex.clause_labels[static_cast<std::size_t>(c)]);
        }
      }
      opt.zero_grad();
      const Tensor pooled = concat_rows(pooled_rows);
      Tensor loss = cross_entropy(model.task_logits(pooled, PredictionTask::kParallel),
                                  parallel_labels);
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
      G2P_LOG_INFO << "token-model epoch " << epoch + 1 << "/" << config.epochs
                   << " loss=" << (batches ? epoch_loss / batches : 0.0);
    }
  }
}

EvalReport evaluate_token_model(const PragFormerModel& model,
                                const std::vector<Example>& examples) {
  EvalReport report;
  const NoGradGuard no_grad;
  for (const Example& ex : examples) {
    const Tensor pooled = model.encode(ex.tokens);
    const bool parallel_pred =
        argmax_rows(model.task_logits(pooled, PredictionTask::kParallel))[0] == 1;
    report.tasks[0].add(parallel_pred, ex.label_parallel == 1);
    if (ex.label_parallel == 1) {
      for (int c = 0; c < 4; ++c) {
        const bool pred =
            argmax_rows(model.task_logits(pooled, static_cast<PredictionTask>(c + 1)))[0] == 1;
        report.tasks[static_cast<std::size_t>(c + 1)].add(
            pred, ex.clause_labels[static_cast<std::size_t>(c)] == 1);
      }
    }
  }
  return report;
}

}  // namespace g2p
