// The dense product kernels vs the scalar reference semantics.
//
// Kernels::project with no epilogue must agree with a naive ascending-k
// triple loop on every shape — including the ragged edges a register tile
// can mishandle (n = 0, k = 0/1/2/3, m = 0, odd m, partial row blocks and
// column panels, a deep k) — on every backend table this machine can
// dispatch to, and so must matmul_auto, which routes every product at
// least one panel wide to `project`, and the narrow Kernels::matmul on the
// shapes it serves (m < kProjectPanel). With its bias / residual /
// LayerNorm row epilogue, `project` must match a naive reference on every
// table, compute each row independently of the others in its call, and
// give the bare product's bits plus the same adds done separately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace g2p {
namespace {

/// Naive reference: ascending-k accumulation, the backend contract.
std::vector<float> naive_matmul(const std::vector<float>& a, const std::vector<float>& b,
                                int n, int k, int m) {
  std::vector<float> out(static_cast<std::size_t>(n) * m, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = a[static_cast<std::size_t>(i) * k + kk];
      for (int j = 0; j < m; ++j) {
        out[static_cast<std::size_t>(i) * m + j] +=
            av * b[static_cast<std::size_t>(kk) * m + j];
      }
    }
  }
  return out;
}

std::vector<float> random_values(Rng& rng, std::size_t count) {
  std::vector<float> v(count);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

double max_rel_diff(const std::vector<float>& got, const std::vector<float>& want) {
  EXPECT_EQ(got.size(), want.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double g = got[i], w = want[i];
    const double scale = std::max({1.0, std::fabs(g), std::fabs(w)});
    worst = std::max(worst, std::fabs(g - w) / scale);
  }
  return worst;
}

struct GemmShape {
  int n, k, m;
};

/// Adversarial shapes: empties, k = 1, odd m (partial tiles and panels),
/// odd n (partial row blocks), tall-skinny, wide, serving projection shapes,
/// a deep k, and few rows of a shallow k at and past one panel's width.
const GemmShape kShapes[] = {
    {0, 5, 7},    {3, 0, 9},     {4, 3, 0},     {1, 1, 1},    {7, 1, 13},
    {5, 17, 3},   {23, 9, 31},   {6, 16, 16},   {13, 8, 24},  {513, 16, 8},
    {9, 24, 250}, {300, 32, 96}, {128, 64, 256}, {37, 400, 19}, {1, 1, 16},
    {5, 2, 33},   {7, 3, 24},    {3, 1, 64},
};

// Tolerance for FMA-contracted register tiles vs the naive loop: both
// accumulate k ascending, so only contraction/vectorization rounding may
// differ.
constexpr double kTol = 2e-5;

std::vector<std::string> dispatchable_backends() {
  std::vector<std::string> names;
  for (const char* name : {"scalar", "avx2"}) {
    if (backend::by_name(name) != nullptr) names.emplace_back(name);
  }
  return names;
}

TEST(Gemm, ProjectMatchesNaiveOnEveryBackendAndShape) {
  Rng rng(20230509);
  for (const auto& name : dispatchable_backends()) {
    const backend::Kernels* kern = backend::by_name(name);
    ASSERT_NE(kern, nullptr);
    for (const auto& s : kShapes) {
      const auto a = random_values(rng, static_cast<std::size_t>(s.n) * s.k);
      const auto b = random_values(rng, static_cast<std::size_t>(s.k) * s.m);
      const auto want = naive_matmul(a, b, s.n, s.k, s.m);
      // Poison the output so "fully overwritten" is actually verified.
      std::vector<float> got(static_cast<std::size_t>(s.n) * s.m, 1e30f);
      const FloatVec panels = backend::pack_projection(b.data(), s.k, s.m);
      kern->project(a.data(), panels.data(), got.data(), s.n, s.k, s.m, backend::RowEpilogue{});
      EXPECT_LE(max_rel_diff(got, want), kTol)
          << name << " project [" << s.n << "," << s.k << "]x[" << s.k << "," << s.m << "]";
      // The narrow kernels define the same math on the widths they serve.
      if (s.m >= backend::kProjectPanel) continue;
      std::vector<float> narrow(static_cast<std::size_t>(s.n) * s.m, 1e30f);
      kern->matmul(a.data(), b.data(), narrow.data(), s.n, s.k, s.m);
      EXPECT_LE(max_rel_diff(narrow, want), kTol)
          << name << " matmul [" << s.n << "," << s.k << "]x[" << s.k << "," << s.m << "]";
    }
  }
}

TEST(Gemm, MatmulAutoMatchesNaive) {
  Rng rng(7);
  const std::string entry_backend = backend::active_name();
  for (const auto& name : dispatchable_backends()) {
    ASSERT_TRUE(backend::set_active(name));
    for (const auto& s : kShapes) {
      const auto a = random_values(rng, static_cast<std::size_t>(s.n) * s.k);
      const auto b = random_values(rng, static_cast<std::size_t>(s.k) * s.m);
      const auto want = naive_matmul(a, b, s.n, s.k, s.m);
      std::vector<float> got(static_cast<std::size_t>(s.n) * s.m, 1e30f);
      backend::matmul_auto(a.data(), b.data(), got.data(), s.n, s.k, s.m);
      EXPECT_LE(max_rel_diff(got, want), kTol)
          << name << " matmul_auto [" << s.n << "," << s.k << "]x[" << s.k << "," << s.m
          << "]";
    }
  }
  ASSERT_TRUE(backend::set_active(entry_backend));
}

/// Naive projection epilogue on top of naive_matmul: + bias, + residual,
/// then LayerNorm (two-pass mean / variance in double) when gamma is given.
std::vector<float> naive_project(const std::vector<float>& a, const std::vector<float>& w,
                                 int rows, int k, int m, const std::vector<float>& bias,
                                 const std::vector<float>* residual,
                                 const std::vector<float>* gamma,
                                 const std::vector<float>* beta) {
  auto out = naive_matmul(a, w, rows, k, m);
  for (int r = 0; r < rows; ++r) {
    float* row = out.data() + static_cast<std::size_t>(r) * m;
    for (int j = 0; j < m; ++j) {
      row[j] += bias[static_cast<std::size_t>(j)];
      if (residual != nullptr) row[j] += (*residual)[static_cast<std::size_t>(r) * m + j];
    }
    if (gamma == nullptr) continue;
    double mean = 0.0, var = 0.0;
    for (int j = 0; j < m; ++j) mean += row[j];
    mean /= m;
    for (int j = 0; j < m; ++j) var += (row[j] - mean) * (row[j] - mean);
    var /= m;
    const double istd = 1.0 / std::sqrt(var + 1e-5);
    for (int j = 0; j < m; ++j) {
      const auto js = static_cast<std::size_t>(j);
      row[j] = static_cast<float>((row[j] - mean) * istd * (*gamma)[js] + (*beta)[js]);
    }
  }
  return out;
}

enum class Epilogue { kBias, kBiasResidual, kBiasResidualNorm };

TEST(Project, MatchesNaiveOnEveryBackendShapeAndEpilogue) {
  // Row counts cover the empty call, every remainder of the 6-row AVX2
  // and 4-row scalar blocks, and large counts; m covers the square A
  // stage, the 3x-wide K|Q|V stage and a ragged last panel.
  Rng rng(26);
  std::vector<int> row_counts;
  for (int rows = 0; rows <= 13; ++rows) row_counts.push_back(rows);
  row_counts.push_back(64);
  row_counts.push_back(769);
  for (const auto& name : dispatchable_backends()) {
    const backend::Kernels* kern = backend::by_name(name);
    ASSERT_NE(kern, nullptr);
    for (const auto& [k, m] : {std::pair{32, 32}, {32, 96}, {32, 24}, {64, 64}, {64, 192},
                               {64, 24}}) {
      const auto w = random_values(rng, static_cast<std::size_t>(k) * m);
      const FloatVec panels = backend::pack_projection(w.data(), k, m);
      const auto bias = random_values(rng, static_cast<std::size_t>(m));
      const auto gamma = random_values(rng, static_cast<std::size_t>(m));
      const auto beta = random_values(rng, static_cast<std::size_t>(m));
      for (const int rows : row_counts) {
        const auto a = random_values(rng, static_cast<std::size_t>(rows) * k);
        const auto residual = random_values(rng, static_cast<std::size_t>(rows) * m);
        for (const auto epi : {Epilogue::kBias, Epilogue::kBiasResidual,
                               Epilogue::kBiasResidualNorm}) {
          const bool with_residual = epi != Epilogue::kBias;
          const bool with_norm = epi == Epilogue::kBiasResidualNorm;
          backend::RowEpilogue epilogue;
          epilogue.bias = bias.data();
          if (with_residual) epilogue.residual = residual.data();
          if (with_norm) {
            epilogue.ln_gamma = gamma.data();
            epilogue.ln_beta = beta.data();
          }
          const auto want =
              naive_project(a, w, rows, k, m, bias, with_residual ? &residual : nullptr,
                            with_norm ? &gamma : nullptr, with_norm ? &beta : nullptr);
          std::vector<float> got(static_cast<std::size_t>(rows) * m, 1e30f);
          kern->project(a.data(), panels.data(), got.data(), rows, k, m, epilogue);
          const std::string what = name + " project rows " + std::to_string(rows) + " k " +
                                   std::to_string(k) + " m " + std::to_string(m) +
                                   " epilogue " + std::to_string(static_cast<int>(epi));
          // LayerNorm divides by the row's spread, which scales the
          // product's rounding: compare normalized rows a little looser.
          EXPECT_LE(max_rel_diff(got, want), with_norm ? 1e-4 : kTol) << what;
          // Row independence: each row alone gives the same bits.
          for (int r = 0; r < rows; r += std::max(1, rows / 7)) {
            backend::RowEpilogue one = epilogue;
            if (with_residual) one.residual = residual.data() + static_cast<std::size_t>(r) * m;
            std::vector<float> single(static_cast<std::size_t>(m), 1e30f);
            kern->project(a.data() + static_cast<std::size_t>(r) * k, panels.data(),
                          single.data(), 1, k, m, one);
            for (int j = 0; j < m; ++j) {
              ASSERT_EQ(single[static_cast<std::size_t>(j)],
                        got[static_cast<std::size_t>(r) * m + j])
                  << what << " row " << r << " col " << j;
            }
          }
        }
      }
    }
  }
}

TEST(Project, EpilogueMatchesBareProductPlusSeparateAddsBitwise) {
  // The bias and residual adds follow the finished product chain, so the
  // fused epilogue gives the bits of the bare product (matmul_auto's route)
  // followed by separate bias and residual passes, on every table.
  Rng rng(2026);
  for (const auto& name : dispatchable_backends()) {
    const backend::Kernels* kern = backend::by_name(name);
    ASSERT_NE(kern, nullptr);
    for (const int m : {32, 96, 24}) {
      const int rows = 301, k = 32;
      const auto a = random_values(rng, static_cast<std::size_t>(rows) * k);
      const auto w = random_values(rng, static_cast<std::size_t>(k) * m);
      const auto bias = random_values(rng, static_cast<std::size_t>(m));
      const auto residual = random_values(rng, static_cast<std::size_t>(rows) * m);
      const FloatVec panels = backend::pack_projection(w.data(), k, m);
      std::vector<float> want(static_cast<std::size_t>(rows) * m);
      kern->project(a.data(), panels.data(), want.data(), rows, k, m, backend::RowEpilogue{});
      for (std::size_t i = 0; i < want.size(); ++i) {
        want[i] = want[i] + bias[i % static_cast<std::size_t>(m)] + residual[i];
      }
      backend::RowEpilogue epilogue;
      epilogue.bias = bias.data();
      epilogue.residual = residual.data();
      std::vector<float> got(want.size());
      kern->project(a.data(), panels.data(), got.data(), rows, k, m, epilogue);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << name << " m " << m << " at " << i;
      }
    }
  }
}

TEST(Gemm, PackedPanelScratchIsAligned) {
  // The AVX2 projection kernel loads packed panels with aligned vector
  // loads; FloatVec (tensor_pool) guarantees 64 bytes for every size class.
  for (const std::size_t count : {1u << 2, 1u << 10, 1u << 14, 1u << 16, 1u << 20}) {
    FloatVec v(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % tensor_pool::kAlignment, 0u)
        << count << " floats";
  }
}

}  // namespace
}  // namespace g2p
