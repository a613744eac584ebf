// Scalar reference kernels and the runtime dispatch table.
//
// The scalar matmul kernels serve the narrow products (m < kProjectPanel)
// that matmul_auto keeps off `project`: one output row of compile-time
// width accumulated in registers, a replicated-B kernel for the head
// matrices, and a generic ikj loop for odd widths. Every kernel sums k in
// ascending order, so all scalar paths produce bitwise-identical results.

#include "tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <vector>

#include "tensor/fastmath.h"

namespace g2p::backend {

// Implemented in backend_avx2.cpp (a TU compiled with -mavx2 -mfma when the
// toolchain supports it); returns nullptr when the TU was built without
// AVX2 support. CPU capability is checked at dispatch, not here.
const Kernels* avx2_table();

namespace {

// ---------------------------------------------------------------------------
// Scalar matmul: the narrow products, m < kProjectPanel
// ---------------------------------------------------------------------------

/// One output row accumulated in registers across the k loop.
template <int M>
void matmul_fixed_width(const float* __restrict a, const float* __restrict b,
                        float* __restrict out, int n, int k) {
  for (int i = 0; i < n; ++i) {
    float acc[M] = {};
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + static_cast<std::size_t>(kk) * M;
      for (int j = 0; j < M; ++j) acc[j] += av * brow[j];
    }
    float* orow = out + static_cast<std::size_t>(i) * M;
    for (int j = 0; j < M; ++j) orow[j] = acc[j];
  }
}

inline constexpr int kNarrowMaxK = 64;

/// Narrow outputs (m <= 8): a single m-wide FMA chain per row is latency-
/// bound, so process 32/m rows per pass against b replicated to width 32 —
/// one full-width FMA stream with independent per-row lanes (~7x faster at
/// m = 8 than the single-row kernel).
template <int M>
void matmul_fixed_narrow(const float* __restrict a, const float* __restrict b,
                         float* __restrict out, int n, int k) {
  constexpr int R = 32 / M;  // rows per vector pass
  float brep[kNarrowMaxK * 32];
  for (int kk = 0; kk < k; ++kk) {
    for (int r = 0; r < R; ++r) {
      for (int j = 0; j < M; ++j) brep[kk * 32 + r * M + j] = b[kk * M + j];
    }
  }
  int i = 0;
  for (; i + R <= n; i += R) {
    float acc[32] = {};
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      float av[32];
      for (int r = 0; r < R; ++r) {
        const float v = a0[static_cast<std::size_t>(r) * k + kk];
        for (int j = 0; j < M; ++j) av[r * M + j] = v;
      }
      const float* brow = brep + kk * 32;
      for (int j = 0; j < 32; ++j) acc[j] += av[j] * brow[j];
    }
    float* orow = out + static_cast<std::size_t>(i) * M;
    for (int j = 0; j < R * M; ++j) orow[j] = acc[j];
  }
  if (i < n) {
    matmul_fixed_width<M>(a + static_cast<std::size_t>(i) * k, b,
                          out + static_cast<std::size_t>(i) * M, n - i, k);
  }
}

void scalar_matmul(const float* a, const float* b, float* out, int n, int k, int m) {
  if (k <= kNarrowMaxK) {
    switch (m) {
      case 2: return matmul_fixed_narrow<2>(a, b, out, n, k);
      case 4: return matmul_fixed_narrow<4>(a, b, out, n, k);
      case 8: return matmul_fixed_narrow<8>(a, b, out, n, k);
      default: break;
    }
  }
  switch (m) {
    case 2: return matmul_fixed_width<2>(a, b, out, n, k);
    case 4: return matmul_fixed_width<4>(a, b, out, n, k);
    case 8: return matmul_fixed_width<8>(a, b, out, n, k);
    default: break;
  }
  // Generic ikj fallback for other widths (accumulates, so zero first).
  std::fill(out, out + static_cast<std::size_t>(n) * m, 0.0f);
  for (int i = 0; i < n; ++i) {
    float* orow = out + static_cast<std::size_t>(i) * m;
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + static_cast<std::size_t>(kk) * m;
      for (int j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar projection kernel (pack_projection layout, fused row epilogue)
// ---------------------------------------------------------------------------

/// Shape of the scalar register tile: rows x columns.
inline constexpr int kTileRows = 4;
inline constexpr int kTileCols = 8;

/// One 4x8 register tile over the full k depth. `pa` holds a 4-row block's
/// A values interleaved (the 4 values of each k contiguous, k ascending),
/// `w` is one 8-column half of a packed panel (rows kProjectPanel floats
/// apart), and the tile lands in `c` (row stride kProjectPanel). The 32
/// accumulators fit the 16 baseline-SSE2 XMM registers when the compiler
/// vectorizes the fixed-width inner loops, and the same code auto-vectorizes
/// to NEON on aarch64. Reading the A rows in place instead lets the
/// compiler vectorize the strided k loop, which runs ~10x slower. Left out
/// of line (GCC's choice for two call sites), the tile ran ~30% slower.
[[gnu::always_inline]] inline void project_tile(int k, const float* __restrict pa,
                                                const float* __restrict w,
                                                float* __restrict c) {
  float acc[kTileRows][kTileCols] = {};
  for (int kk = 0; kk < k; ++kk) {
    for (int r = 0; r < kTileRows; ++r) {
      const float av = pa[r];
      for (int j = 0; j < kTileCols; ++j) acc[r][j] += av * w[j];
    }
    pa += kTileRows;
    w += kProjectPanel;
  }
  for (int r = 0; r < kTileRows; ++r) {
    for (int j = 0; j < kTileCols; ++j) c[r * kProjectPanel + j] = acc[r][j];
  }
}

void scalar_project(const float* a, const float* w_panels, float* out, int rows, int k, int m,
                    const RowEpilogue& epi) {
  constexpr int P = kProjectPanel;
  static_assert(P == 2 * kTileCols, "a panel is two tile halves");
  const int panels = (m + P - 1) / P;
  FloatVec pa(static_cast<std::size_t>(kTileRows) * k);
  for (int r0 = 0; r0 < rows; r0 += kTileRows) {
    const int live_rows = std::min(kTileRows, rows - r0);
    // Interleave the block's A values once. Rows past `rows` are zero; no
    // row's chain reads another row's values.
    const float* ablock = a + static_cast<std::size_t>(r0) * k;
    for (int kk = 0; kk < k; ++kk) {
      float* dst = pa.data() + static_cast<std::size_t>(kk) * kTileRows;
      for (int r = 0; r < kTileRows; ++r) {
        dst[r] = r < live_rows ? ablock[static_cast<std::size_t>(r) * k + kk] : 0.0f;
      }
    }
    for (int p = 0; p < panels; ++p) {
      const float* w = w_panels + static_cast<std::size_t>(p) * k * P;
      alignas(64) float tile[kTileRows * P];
      project_tile(k, pa.data(), w, tile);
      project_tile(k, pa.data(), w + kTileCols, tile + kTileCols);
      const int col = p * P;
      const int live = std::min(P, m - col);
      // Copy, then each add in a loop of its own (the same order of adds
      // per element): one loop with per-element branches ran ~20% slower
      // at k = 32 in the portable build.
      for (int r = 0; r < live_rows; ++r) {
        const std::size_t at = static_cast<std::size_t>(r0 + r) * m + col;
        float* orow = out + at;
        const float* trow = tile + r * P;
        for (int c = 0; c < live; ++c) orow[c] = trow[c];
        if (epi.bias != nullptr) {
          for (int c = 0; c < live; ++c) orow[c] += epi.bias[col + c];
        }
        if (epi.residual != nullptr) {
          const float* res = epi.residual + at;
          for (int c = 0; c < live; ++c) orow[c] += res[c];
        }
      }
    }
    if (epi.ln_gamma != nullptr) {
      for (int r = 0; r < live_rows; ++r) {
        float* orow = out + static_cast<std::size_t>(r0 + r) * m;
        const auto [mean, istd] = row_moments(orow, m, epi.ln_eps);
        for (int j = 0; j < m; ++j) {
          const float y = (orow[j] - mean) * istd;
          orow[j] = y * epi.ln_gamma[j] + epi.ln_beta[j];
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar fused-HGT primitives
// ---------------------------------------------------------------------------

float scalar_dot(const float* a, const float* b, int d) {
  float acc = 0.0f;
  for (int j = 0; j < d; ++j) acc += a[j] * b[j];
  return acc;
}

void scalar_row_dot(const float* a, const float* b, float* out, int n, int d) {
  for (int i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * d;
    out[i] = scalar_dot(a + row, b + row, d);
  }
}

inline constexpr int kMaxHeadDim = 64;

void scalar_hgt_logits(const float* k_all, const float* q, const float* w_att,
                       const int* srcs, const int* dsts, const int* metas, const float* mu,
                       int count, int heads, int hd, int stride, float scale, float* logits,
                       float* node_max) {
  float mk_stack[kMaxHeadDim];
  std::vector<float> mk_heap(hd > kMaxHeadDim ? static_cast<std::size_t>(hd) : 0);
  float* const mk = hd > kMaxHeadDim ? mk_heap.data() : mk_stack;
  for (int p = 0; p < count; ++p) {
    const float* krow = k_all + static_cast<std::size_t>(srcs[p]) * stride;
    const float* qrow = q + static_cast<std::size_t>(dsts[p]) * stride;
    const float mu_e = mu[metas[p]];
    float* lrow = logits + static_cast<std::size_t>(p) * heads;
    float* mrow = node_max + static_cast<std::size_t>(dsts[p]) * heads;
    for (int h = 0; h < heads; ++h) {
      const float* kh = krow + h * hd;
      const float* wh = w_att + static_cast<std::size_t>(h) * hd * hd;
      for (int j = 0; j < hd; ++j) mk[j] = 0.0f;
      for (int kk = 0; kk < hd; ++kk) {
        const float kv = kh[kk];
        const float* wrow = wh + static_cast<std::size_t>(kk) * hd;
        for (int j = 0; j < hd; ++j) mk[j] += kv * wrow[j];
      }
      const float l = scalar_dot(mk, qrow + h * hd, hd) * scale * mu_e;
      lrow[h] = l;
      mrow[h] = std::max(mrow[h], l);
    }
  }
}

void scalar_hgt_accumulate(const float* v_all, const float* w_msg, const int* srcs,
                           const int* dsts, int count, const float* logits,
                           const float* node_max, int heads, int hd, int stride, float* out,
                           float* denom) {
  const int dim = heads * hd;
  float mv_stack[kMaxHeadDim];
  std::vector<float> mv_heap(hd > kMaxHeadDim ? static_cast<std::size_t>(hd) : 0);
  float* const mv = hd > kMaxHeadDim ? mv_heap.data() : mv_stack;
  for (int p = 0; p < count; ++p) {
    const float* vrow = v_all + static_cast<std::size_t>(srcs[p]) * stride;
    const float* lrow = logits + static_cast<std::size_t>(p) * heads;
    const float* mrow = node_max + static_cast<std::size_t>(dsts[p]) * heads;
    float* drow = denom + static_cast<std::size_t>(dsts[p]) * heads;
    float* orow = out + static_cast<std::size_t>(dsts[p]) * dim;
    for (int h = 0; h < heads; ++h) {
      const float* vh = vrow + h * hd;
      const float* wh = w_msg + static_cast<std::size_t>(h) * hd * hd;
      for (int j = 0; j < hd; ++j) mv[j] = 0.0f;
      for (int kk = 0; kk < hd; ++kk) {
        const float vv = vh[kk];
        const float* wrow = wh + static_cast<std::size_t>(kk) * hd;
        for (int j = 0; j < hd; ++j) mv[j] += vv * wrow[j];
      }
      const float w = fast_expf(lrow[h] - mrow[h]);
      drow[h] += w;
      float* oo = orow + h * hd;
      for (int j = 0; j < hd; ++j) oo[j] += w * mv[j];
    }
  }
}

void scalar_gelu(const float* x, float* out, int n) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    out[i] = 0.5f * v * (1.0f + fast_tanhf(kC * (v + kA * v * v * v)));
  }
}

// ---------------------------------------------------------------------------
// Scalar segment kernels (check-free: ids validated by the caller)
// ---------------------------------------------------------------------------

void scalar_segment_softmax(const float* logits, const int* seg, int e, int num_segments,
                            float* out) {
  std::vector<float> seg_max(static_cast<std::size_t>(num_segments),
                             -std::numeric_limits<float>::infinity());
  for (int i = 0; i < e; ++i) {
    auto& m = seg_max[static_cast<std::size_t>(seg[i])];
    m = std::max(m, logits[i]);
  }
  std::vector<float> denom(static_cast<std::size_t>(num_segments), 0.0f);
  for (int i = 0; i < e; ++i) {
    const auto s = static_cast<std::size_t>(seg[i]);
    out[i] = fast_expf(logits[i] - seg_max[s]);
    denom[s] += out[i];
  }
  for (int i = 0; i < e; ++i) {
    out[i] /= std::max(denom[static_cast<std::size_t>(seg[i])], 1e-12f);
  }
}

void scalar_segment_weighted_sum_rows(const float* x, const float* w, const int* seg, int n,
                                      int d, int num_segments, float* out) {
  std::fill(out, out + static_cast<std::size_t>(num_segments) * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    const float wi = w[i];
    const float* src = x + static_cast<std::size_t>(i) * d;
    float* dst = out + static_cast<std::size_t>(seg[i]) * d;
    for (int j = 0; j < d; ++j) dst[j] += wi * src[j];
  }
}

constexpr Kernels kScalar = {
    "scalar",
    scalar_matmul,
    scalar_project,
    scalar_hgt_logits,
    scalar_hgt_accumulate,
    scalar_row_dot,
    scalar_gelu,
    scalar_segment_softmax,
    scalar_segment_weighted_sum_rows,
};

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const Kernels* resolve_auto() {
  if (cpu_has_avx2_fma()) {
    if (const Kernels* t = avx2_table()) return t;
  }
  return &kScalar;
}

const Kernels* resolve_from_env() {
  if (const char* e = std::getenv("G2P_BACKEND")) {
    const std::string_view want(e);
    if (!want.empty() && want != "auto") {
      if (const Kernels* t = by_name(want)) return t;
      std::fprintf(stderr, "g2p: G2P_BACKEND=%s unavailable, using auto dispatch\n", e);
    }
  }
  return resolve_auto();
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const Kernels* by_name(std::string_view name) {
  if (name == "scalar") return &kScalar;
  if (name == "auto") return resolve_auto();
  if (name == "avx2") return cpu_has_avx2_fma() ? avx2_table() : nullptr;
  return nullptr;
}

const Kernels& active() {
  const Kernels* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: concurrent first calls resolve to the same table.
    t = resolve_from_env();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

const Kernels& scalar() { return kScalar; }

const char* active_name() { return active().name; }

bool set_active(std::string_view name) {
  const Kernels* t = by_name(name);
  if (t == nullptr) return false;
  g_active.store(t, std::memory_order_release);
  return true;
}

FloatVec pack_projection(const float* w, int k, int m) {
  constexpr int P = kProjectPanel;
  const int panels = (m + P - 1) / P;
  FloatVec packed(static_cast<std::size_t>(panels) * k * P);
  float* dst = packed.data();
  for (int p = 0; p < panels; ++p) {
    const int col = p * P;
    const int live = std::min(P, m - col);
    for (int kk = 0; kk < k; ++kk) {
      const float* wrow = w + static_cast<std::size_t>(kk) * m + col;
      for (int c = 0; c < live; ++c) dst[c] = wrow[c];
      for (int c = live; c < P; ++c) dst[c] = 0.0f;
      dst += P;
    }
  }
  return packed;
}

RowMoments row_moments(const float* row, int m, float eps) {
  float mean = 0.0f;
  for (int j = 0; j < m; ++j) mean += row[j];
  mean /= static_cast<float>(m);
  float var = 0.0f;
  for (int j = 0; j < m; ++j) {
    const float c = row[j] - mean;
    var += c * c;
  }
  var /= static_cast<float>(m);
  return {mean, 1.0f / std::sqrt(var + eps)};
}

void matmul_auto(const float* a, const float* b, float* out, int n, int k, int m) {
  const Kernels& kern = active();
  if (m < kProjectPanel) return kern.matmul(a, b, out, n, k, m);
  const FloatVec panels = pack_projection(b, k, m);
  kern.project(a, panels.data(), out, n, k, m, RowEpilogue{});
}

}  // namespace g2p::backend
