// Microbench: matmul_auto vs a naive ascending-k loop, single-thread.
//
// Shapes are the serving projections of the HGT encoder: the fused
// per-node-type K/Q/V product ([N, dim]x[dim, 3*dim] at dim 32) and the
// "[N, 64]x[64, 256]-class" projections a larger config would run, plus a
// compute-bound square as the roofline reference. Every shape is at least
// one panel wide, so matmul_auto routes it to `project`. For each shape:
//   * naive — the ikj loop over k ascending (the backend contract), which
//             is also the correctness reference
//   * auto  — backend::matmul_auto: pack_projection(b) per call, then
//             Kernels::project with no epilogue
//
// Fails (exit 1) if
//   * auto diverges from the naive loop beyond 1e-4 relative, or
//   * the headline single-thread speedup (auto vs naive at the
//     [N, 64]x[64, 256] shape) misses the floor (default 2x,
//     G2P_GEMM_FLOOR overrides — CI runners pin a lenient value).
//
// Knobs: G2P_GEMM_REPS (timed repetitions, default 40), G2P_GEMM_FLOOR,
// G2P_BACKEND, --json <path>.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "support/rng.h"
#include "support/table.h"
#include "tensor/backend.h"

namespace {

using g2p::bench::Clock;
using g2p::bench::seconds_since;

/// Naive reference: ascending-k accumulation, the backend contract.
void naive_matmul(const std::vector<float>& a, const std::vector<float>& b,
                  std::vector<float>& out, int n, int k, int m) {
  std::fill(out.begin(), out.end(), 0.0f);
  for (int i = 0; i < n; ++i) {
    float* orow = out.data() + static_cast<std::size_t>(i) * m;
    for (int kk = 0; kk < k; ++kk) {
      const float av = a[static_cast<std::size_t>(i) * k + kk];
      const float* brow = b.data() + static_cast<std::size_t>(kk) * m;
      for (int j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

double max_rel_diff(const std::vector<float>& a, const std::vector<float>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double av = a[i], bv = b[i];
    const double scale = std::max({1.0, std::fabs(av), std::fabs(bv)});
    worst = std::max(worst, std::fabs(av - bv) / scale);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g2p;
  const std::string json_path = bench::json_path_from_args(argc, argv);

  int reps = 40;
  if (const char* s = std::getenv("G2P_GEMM_REPS")) reps = std::max(1, std::atoi(s));
  double floor = 2.0;
  if (const char* s = std::getenv("G2P_GEMM_FLOOR")) floor = std::atof(s);

  struct Shape {
    const char* name;
    int n, k, m;
    bool headline;  // the [N, 64]x[64, 256]-class floor shape
  };
  const Shape shapes[] = {
      {"kqv_dim32", 3200, 32, 96, false},   // fused K|Q|V at serving dim 32
      {"proj_dim64", 4096, 64, 256, true},  // [N, 64]x[64, 256]-class
      {"square256", 256, 256, 256, false},  // compute-bound roofline check
  };

  bench::JsonMetrics json;
  bench::set_common_header(json, "gemm");
  json.set("reps", reps);

  const auto time_best = [&](auto&& fn) {
    fn();  // warmup
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
      const auto start = Clock::now();
      fn();
      best = std::min(best, seconds_since(start));
    }
    return best;
  };

  TextTable table({"shape", "naive (µs)", "auto (µs)", "auto GF/s", "speedup"});
  bool ok = true;
  double headline_speedup = 0.0;
  Rng rng(20230509);
  for (const auto& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.n) * s.k);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.m);
    for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> out_naive(static_cast<std::size_t>(s.n) * s.m);
    std::vector<float> out_auto(out_naive.size());

    const double naive_s = time_best([&] { naive_matmul(a, b, out_naive, s.n, s.k, s.m); });
    const double auto_s = time_best(
        [&] { backend::matmul_auto(a.data(), b.data(), out_auto.data(), s.n, s.k, s.m); });

    const double diff = max_rel_diff(out_auto, out_naive);
    if (diff > 1e-4) {
      std::printf("FAIL: %s auto diverges from the naive reference (%.3g rel)\n", s.name, diff);
      ok = false;
    }

    const double flops = 2.0 * s.n * s.k * s.m;
    const double speedup = naive_s / auto_s;
    table.add_row({s.name, fmt_fixed(naive_s * 1e6, 1), fmt_fixed(auto_s * 1e6, 1),
                   fmt_fixed(flops / auto_s * 1e-9, 1), fmt_fixed(speedup, 2)});
    json.set(std::string(s.name) + "_naive_us", naive_s * 1e6);
    json.set(std::string(s.name) + "_auto_us", auto_s * 1e6);
    json.set(std::string(s.name) + "_auto_gflops", flops / auto_s * 1e-9);
    json.set(std::string(s.name) + "_speedup", speedup);
    if (s.headline) headline_speedup = speedup;
  }

  std::printf("%s", table.render().c_str());
  std::printf("backend: %s | matmul_auto speedup: %.2fx (floor %.2fx)\n", backend::active_name(),
              headline_speedup, floor);
  json.set("speedup", headline_speedup);
  json.set("floor", floor);

  if (headline_speedup < floor) {
    std::printf("FAIL: matmul_auto speedup %.2fx below the %.2fx floor\n", headline_speedup, floor);
    ok = false;
  }
  json.set("pass", ok);
  if (!json.write(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
