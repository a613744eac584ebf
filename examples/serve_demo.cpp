// serve_demo: the async micro-batching server in ~60 lines.
//
// Trains a small pipeline, stands up a SuggestServer, and fires a burst of
// concurrent requests at it from several client threads — including one
// request that fails to parse, to show per-request error isolation: the
// broken request's future throws, its batch-mates are unaffected. Prints
// each result and the server's serving stats.
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/server.h"

int main() {
  using namespace g2p;

  Pipeline::Options options;
  options.corpus.scale = 0.02;
  options.train.epochs = 2;
  std::printf("training pipeline...\n");
  SuggestServer::Options server_options;
  server_options.max_batch_requests = 16;
  SuggestServer server(Pipeline::train(options), server_options);

  const std::vector<std::string> requests = {
      "void scale(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) x[i] = x[i] * 2.0;\n"
      "}\n",
      "double dot(double* x, double* y, int n) {\n"
      "  int i;\n"
      "  double s = 0;\n"
      "  for (i = 0; i < n; i++) s += x[i] * y[i];\n"
      "  return s;\n"
      "}\n",
      "void shift(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 1; i < n; i++) x[i] = x[i - 1];\n"
      "}\n",
      "int broken( {\n",  // parse error: only this future throws
  };

  // Four clients submit concurrently; the scheduler merges their requests
  // into shared batches.
  std::vector<std::future<std::vector<LoopSuggestion>>> futures(requests.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back(
        [&server, &futures, &requests, i] { futures[i] = server.submit(requests[i]); });
  }
  for (auto& c : clients) c.join();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::printf("\n== request %zu ==\n", i);
    try {
      const auto suggestions = futures[i].get();
      if (suggestions.empty()) std::printf("no loops found\n");
      for (const auto& s : suggestions) {
        std::printf("loop at line %d: %s (confidence %.2f)%s%s\n", s.line,
                    s.parallel ? "parallelizable" : "not parallelizable", s.confidence,
                    s.parallel ? " -> " : "", s.parallel ? s.suggested_pragma.c_str() : "");
      }
    } catch (const std::exception& e) {
      std::printf("request failed: %s\n", e.what());
    }
  }

  const auto stats = server.stats();
  std::printf("\nserver stats: %llu submitted, %llu completed, %llu failed, %llu batches,"
              " mean batch %.2f, mean latency %.2f ms\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.batches), stats.mean_batch_size(),
              stats.mean_latency_us() / 1e3);
  return 0;
}
