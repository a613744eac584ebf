// AVX2 + FMA kernel table.
//
// This translation unit is compiled with -mavx2 -mfma (set per-file in
// CMakeLists.txt when the toolchain supports it, independent of G2P_NATIVE)
// and is only ever *executed* after backend.cpp's CPUID check confirms the
// machine has AVX2 and FMA — so the intrinsics here never fault on older
// hardware even in portable builds.
//
// Reduction order matches the scalar kernels (k ascending); FMA contraction
// and 8-lane partial sums can differ from scalar results in the last ulps,
// which is why cross-backend comparisons use tolerances.

#include "tensor/backend.h"

#if defined(G2P_BACKEND_AVX2_ENABLED)

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "tensor/fastmath.h"

namespace g2p::backend {

namespace {

// ---------------------------------------------------------------------------
// Dense matmul: the m == 8 head maps, scalar table for the other narrow widths
// ---------------------------------------------------------------------------

/// Four rows x one eight-lane block: the m == 8 head-matrix shape.
void matmul_m8(const float* a, const float* b, float* out, int n, int k) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    for (int kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_loadu_ps(b + static_cast<std::size_t>(kk) * 8);
      acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + kk), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + kk), bv, acc1);
      acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a2 + kk), bv, acc2);
      acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a3 + kk), bv, acc3);
    }
    float* orow = out + static_cast<std::size_t>(i) * 8;
    _mm256_storeu_ps(orow, acc0);
    _mm256_storeu_ps(orow + 8, acc1);
    _mm256_storeu_ps(orow + 16, acc2);
    _mm256_storeu_ps(orow + 24, acc3);
  }
  for (; i < n; ++i) {
    __m256 acc = _mm256_setzero_ps();
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + kk),
                            _mm256_loadu_ps(b + static_cast<std::size_t>(kk) * 8), acc);
    }
    _mm256_storeu_ps(out + static_cast<std::size_t>(i) * 8, acc);
  }
}

void avx2_matmul(const float* a, const float* b, float* out, int n, int k, int m) {
  if (m == 8) return matmul_m8(a, b, out, n, k);
  scalar().matmul(a, b, out, n, k, m);
}

// ---------------------------------------------------------------------------
// Lane-parallel exp: the fastmath.h construction (clamp, split-ln2 range
// reduction, degree-6 Taylor, exponent-bit scaling) with nearest-even
// rounding in the reduction — within ~1e-7 relative of the scalar kernel.
// NaN lanes propagate via the unordered-compare blend, matching fast_expf.
// ---------------------------------------------------------------------------

inline __m256 exp256(__m256 x) {
  const __m256 clamped =
      _mm256_min_ps(_mm256_set1_ps(87.0f), _mm256_max_ps(_mm256_set1_ps(-87.0f), x));
  const __m256 fi = _mm256_mul_ps(clamped, _mm256_set1_ps(1.442695040888963f));
  const __m256 ri = _mm256_round_ps(fi, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256 f = _mm256_sub_ps(
      _mm256_sub_ps(clamped, _mm256_mul_ps(ri, _mm256_set1_ps(0.693359375f))),
      _mm256_mul_ps(ri, _mm256_set1_ps(-2.12194440e-4f)));
  __m256 p = _mm256_set1_ps(1.0f / 5040.0f);
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f / 720.0f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f / 120.0f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f / 24.0f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f / 6.0f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(0.5f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(ri), _mm256_set1_epi32(127)), 23);
  const __m256 result = _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
  return _mm256_blendv_ps(result, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

inline __m128 exp128(__m128 x) {
  const __m128 clamped =
      _mm_min_ps(_mm_set1_ps(87.0f), _mm_max_ps(_mm_set1_ps(-87.0f), x));
  const __m128 fi = _mm_mul_ps(clamped, _mm_set1_ps(1.442695040888963f));
  const __m128 ri = _mm_round_ps(fi, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m128 f =
      _mm_sub_ps(_mm_sub_ps(clamped, _mm_mul_ps(ri, _mm_set1_ps(0.693359375f))),
                 _mm_mul_ps(ri, _mm_set1_ps(-2.12194440e-4f)));
  __m128 p = _mm_set1_ps(1.0f / 5040.0f);
  p = _mm_fmadd_ps(p, f, _mm_set1_ps(1.0f / 720.0f));
  p = _mm_fmadd_ps(p, f, _mm_set1_ps(1.0f / 120.0f));
  p = _mm_fmadd_ps(p, f, _mm_set1_ps(1.0f / 24.0f));
  p = _mm_fmadd_ps(p, f, _mm_set1_ps(1.0f / 6.0f));
  p = _mm_fmadd_ps(p, f, _mm_set1_ps(0.5f));
  p = _mm_fmadd_ps(p, f, _mm_set1_ps(1.0f));
  p = _mm_fmadd_ps(p, f, _mm_set1_ps(1.0f));
  const __m128i bits =
      _mm_slli_epi32(_mm_add_epi32(_mm_cvtps_epi32(ri), _mm_set1_epi32(127)), 23);
  const __m128 result = _mm_mul_ps(p, _mm_castsi128_ps(bits));
  return _mm_blendv_ps(result, x, _mm_cmpunord_ps(x, x));
}

inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 1));
  return _mm_cvtss_f32(sum);
}

float avx2_dot(const float* a, const float* b, int d) {
  if (d == 8) {
    // The head_dim fast path: one load pair, horizontal sum.
    return hsum8(_mm256_mul_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b)));
  }
  __m256 acc = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= d; j += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j), acc);
  }
  float total = hsum8(acc);
  for (; j < d; ++j) total += a[j] * b[j];
  return total;
}

void avx2_row_dot(const float* a, const float* b, float* out, int n, int d) {
  for (int i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * d;
    out[i] = avx2_dot(a + row, b + row, d);
  }
}

// ---------------------------------------------------------------------------
// Projection kernel: A rows read in place, W from 16-column packed panels
// ---------------------------------------------------------------------------

/// LayerNorm of one row in place, mean and variance as 8-lane partial sums
/// (a different reduction order from the scalar table's sequential sums;
/// the row's result does not depend on any other row).
void layer_norm_row(float* row, int m, const RowEpilogue& epi) {
  __m256 sum8 = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= m; j += 8) sum8 = _mm256_add_ps(sum8, _mm256_loadu_ps(row + j));
  float sum = hsum8(sum8);
  for (; j < m; ++j) sum += row[j];
  const float mean = sum / static_cast<float>(m);
  const __m256 vmean = _mm256_set1_ps(mean);
  __m256 sq8 = _mm256_setzero_ps();
  j = 0;
  for (; j + 8 <= m; j += 8) {
    const __m256 c = _mm256_sub_ps(_mm256_loadu_ps(row + j), vmean);
    sq8 = _mm256_fmadd_ps(c, c, sq8);
  }
  float sq = hsum8(sq8);
  for (; j < m; ++j) sq += (row[j] - mean) * (row[j] - mean);
  const float istd = 1.0f / std::sqrt(sq / static_cast<float>(m) + epi.ln_eps);
  const __m256 vistd = _mm256_set1_ps(istd);
  j = 0;
  for (; j + 8 <= m; j += 8) {
    const __m256 y = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + j), vmean), vistd);
    _mm256_storeu_ps(row + j, _mm256_fmadd_ps(y, _mm256_loadu_ps(epi.ln_gamma + j),
                                              _mm256_loadu_ps(epi.ln_beta + j)));
  }
  for (; j < m; ++j) row[j] = (row[j] - mean) * istd * epi.ln_gamma[j] + epi.ln_beta[j];
}

/// R rows (R <= 6) against every panel: 2R YMM accumulators + 2 panel
/// loads + 1 broadcast stay inside the 16 registers, and every cycle feeds
/// both FMA pipes. A is read in place; panels are 64-byte aligned, so the
/// panel loads are aligned. Each element is the fmadd chain over k from
/// zero, then the bias and residual adds when set, whatever R is.
template <int R>
void project_rows(const float* a, const float* w_panels, float* out, int k, int m,
                  const RowEpilogue& epi) {
  const float* bias = epi.bias;
  const float* residual = epi.residual;
  constexpr int P = kProjectPanel;
  const int panels = (m + P - 1) / P;
  for (int p = 0; p < panels; ++p) {
    const float* w = w_panels + static_cast<std::size_t>(p) * k * P;
    __m256 acc[R][2];
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    }
    for (int kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_load_ps(w);
      const __m256 b1 = _mm256_load_ps(w + 8);
      w += P;
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(a + static_cast<std::size_t>(r) * k + kk);
        acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
      }
    }
    // Spill the tile once per panel; the epilogue reads it back. Indexing
    // `acc` by a runtime row in the epilogue would make the compiler keep
    // the accumulators in memory across the whole k loop.
    alignas(32) float tile[R][P];
    for (int r = 0; r < R; ++r) {
      _mm256_store_ps(tile[r], acc[r][0]);
      _mm256_store_ps(tile[r] + 8, acc[r][1]);
    }
    const int col = p * P;
    if (m - col >= P) {
      __m256 bias0 = _mm256_setzero_ps(), bias1 = _mm256_setzero_ps();
      if (bias != nullptr) {
        bias0 = _mm256_loadu_ps(bias + col);
        bias1 = _mm256_loadu_ps(bias + col + 8);
      }
      for (int r = 0; r < R; ++r) {
        float* orow = out + static_cast<std::size_t>(r) * m + col;
        __m256 v0 = _mm256_load_ps(tile[r]);
        __m256 v1 = _mm256_load_ps(tile[r] + 8);
        if (bias != nullptr) {
          v0 = _mm256_add_ps(v0, bias0);
          v1 = _mm256_add_ps(v1, bias1);
        }
        if (residual != nullptr) {
          const float* rrow = residual + static_cast<std::size_t>(r) * m + col;
          v0 = _mm256_add_ps(v0, _mm256_loadu_ps(rrow));
          v1 = _mm256_add_ps(v1, _mm256_loadu_ps(rrow + 8));
        }
        _mm256_storeu_ps(orow, v0);
        _mm256_storeu_ps(orow + 8, v1);
      }
    } else {
      // Ragged last panel: the same adds, lane by lane, on the live columns.
      const int live = m - col;
      for (int r = 0; r < R; ++r) {
        float* orow = out + static_cast<std::size_t>(r) * m + col;
        const float* rrow =
            residual != nullptr ? residual + static_cast<std::size_t>(r) * m + col : nullptr;
        for (int c = 0; c < live; ++c) {
          float v = tile[r][c];
          if (bias != nullptr) v += bias[col + c];
          if (rrow != nullptr) v += rrow[c];
          orow[c] = v;
        }
      }
    }
  }
  if (epi.ln_gamma != nullptr) {
    for (int r = 0; r < R; ++r) layer_norm_row(out + static_cast<std::size_t>(r) * m, m, epi);
  }
}

void avx2_project(const float* a, const float* w_panels, float* out, int rows, int k, int m,
                  const RowEpilogue& epi) {
  constexpr int R = 6;
  RowEpilogue block = epi;  // residual advanced to the block's first row
  int r = 0;
  for (; r + R <= rows; r += R) {
    if (epi.residual != nullptr) block.residual = epi.residual + static_cast<std::size_t>(r) * m;
    project_rows<R>(a + static_cast<std::size_t>(r) * k, w_panels,
                    out + static_cast<std::size_t>(r) * m, k, m, block);
  }
  if (r == rows) return;
  if (epi.residual != nullptr) block.residual = epi.residual + static_cast<std::size_t>(r) * m;
  const float* ar = a + static_cast<std::size_t>(r) * k;
  float* outr = out + static_cast<std::size_t>(r) * m;
  switch (rows - r) {
    case 5: return project_rows<5>(ar, w_panels, outr, k, m, block);
    case 4: return project_rows<4>(ar, w_panels, outr, k, m, block);
    case 3: return project_rows<3>(ar, w_panels, outr, k, m, block);
    case 2: return project_rows<2>(ar, w_panels, outr, k, m, block);
    default: return project_rows<1>(ar, w_panels, outr, k, m, block);
  }
}

// ---------------------------------------------------------------------------
// Fused-HGT edge kernels
// ---------------------------------------------------------------------------

/// Serving-shape (heads 4, hd 8) logits: each head's mapped K row is built
/// in one YMM register (8 fmadds against the cached weight block, L1
/// resident), then dotted with Q; the four head dots of one edge reduce
/// together (hadd tree), and the logits and the per-destination max are
/// handled as 4-lane vectors.
void hgt_logits_h4d8(const float* k_all, const float* q, const float* w_att, const int* srcs,
                     const int* dsts, const int* metas, const float* mu, int count, int stride,
                     float scale, float* logits, float* node_max) {
  for (int p = 0; p < count; ++p) {
    const float* krow = k_all + static_cast<std::size_t>(srcs[p]) * stride;
    const float* qrow = q + static_cast<std::size_t>(dsts[p]) * stride;
    __m256 prod[4];
    for (int h = 0; h < 4; ++h) {
      const float* kh = krow + h * 8;
      const float* wh = w_att + static_cast<std::size_t>(h) * 64;
      __m256 mk = _mm256_setzero_ps();
      for (int kk = 0; kk < 8; ++kk) {
        mk = _mm256_fmadd_ps(_mm256_broadcast_ss(kh + kk),
                             _mm256_loadu_ps(wh + static_cast<std::size_t>(kk) * 8), mk);
      }
      prod[h] = _mm256_mul_ps(mk, _mm256_loadu_ps(qrow + h * 8));
    }
    // hadd tree: lane l of (low128 + high128) ends up dot(prod[l]).
    const __m256 s = _mm256_hadd_ps(_mm256_hadd_ps(prod[0], prod[1]),
                                    _mm256_hadd_ps(prod[2], prod[3]));
    const __m128 dots = _mm_add_ps(_mm256_castps256_ps128(s), _mm256_extractf128_ps(s, 1));
    const __m128 l = _mm_mul_ps(dots, _mm_set1_ps(scale * mu[metas[p]]));
    _mm_storeu_ps(logits + static_cast<std::size_t>(p) * 4, l);
    float* mrow = node_max + static_cast<std::size_t>(dsts[p]) * 4;
    _mm_storeu_ps(mrow, _mm_max_ps(_mm_loadu_ps(mrow), l));
  }
}

void avx2_hgt_logits(const float* k_all, const float* q, const float* w_att, const int* srcs,
                     const int* dsts, const int* metas, const float* mu, int count, int heads,
                     int hd, int stride, float scale, float* logits, float* node_max) {
  if (heads == 4 && hd == 8) {
    return hgt_logits_h4d8(k_all, q, w_att, srcs, dsts, metas, mu, count, stride, scale,
                           logits, node_max);
  }
  scalar().hgt_logits(k_all, q, w_att, srcs, dsts, metas, mu, count, heads, hd, stride, scale,
                      logits, node_max);
}

/// Serving-shape accumulate: mapped V row per head in one register, the
/// four head weights from one 4-lane exp, the denominator row updated as one
/// vector, and each head's scatter a single fmadd.
void hgt_accumulate_h4d8(const float* v_all, const float* w_msg, const int* srcs,
                         const int* dsts, int count, const float* logits,
                         const float* node_max, int stride, float* out, float* denom) {
  for (int p = 0; p < count; ++p) {
    const float* vrow = v_all + static_cast<std::size_t>(srcs[p]) * stride;
    const std::size_t d = static_cast<std::size_t>(dsts[p]);
    const __m128 l = _mm_loadu_ps(logits + static_cast<std::size_t>(p) * 4);
    const __m128 w = exp128(_mm_sub_ps(l, _mm_loadu_ps(node_max + d * 4)));
    float* drow = denom + d * 4;
    _mm_storeu_ps(drow, _mm_add_ps(_mm_loadu_ps(drow), w));
    alignas(16) float ws[4];
    _mm_store_ps(ws, w);
    float* orow = out + d * 32;
    for (int h = 0; h < 4; ++h) {
      const float* vh = vrow + h * 8;
      const float* wh = w_msg + static_cast<std::size_t>(h) * 64;
      __m256 mv = _mm256_setzero_ps();
      for (int kk = 0; kk < 8; ++kk) {
        mv = _mm256_fmadd_ps(_mm256_broadcast_ss(vh + kk),
                             _mm256_loadu_ps(wh + static_cast<std::size_t>(kk) * 8), mv);
      }
      _mm256_storeu_ps(orow + h * 8,
                       _mm256_fmadd_ps(_mm256_set1_ps(ws[h]), mv,
                                       _mm256_loadu_ps(orow + h * 8)));
    }
  }
}

void avx2_hgt_accumulate(const float* v_all, const float* w_msg, const int* srcs,
                         const int* dsts, int count, const float* logits,
                         const float* node_max, int heads, int hd, int stride, float* out,
                         float* denom) {
  if (heads == 4 && hd == 8) {
    return hgt_accumulate_h4d8(v_all, w_msg, srcs, dsts, count, logits, node_max, stride, out,
                               denom);
  }
  scalar().hgt_accumulate(v_all, w_msg, srcs, dsts, count, logits, node_max, heads, hd, stride,
                          out, denom);
}

void avx2_gelu(const float* x, float* out, int n) {
  const __m256 kC = _mm256_set1_ps(0.7978845608028654f);  // sqrt(2/pi)
  const __m256 kA = _mm256_set1_ps(0.044715f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 v3 = _mm256_mul_ps(_mm256_mul_ps(v, v), v);
    const __m256 u = _mm256_mul_ps(kC, _mm256_fmadd_ps(kA, v3, v));
    // tanh(u) = 1 - 2 / (1 + exp(2u))
    const __m256 t =
        _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(one, exp256(_mm256_mul_ps(two, u)))));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)));
  }
  if (i < n) scalar().gelu(x + i, out + i, n - i);
}

// ---------------------------------------------------------------------------
// Segment kernel: sequential over rows (order is part of the numerics
// contract), vectorized across the feature axis
// ---------------------------------------------------------------------------

void avx2_segment_weighted_sum_rows(const float* x, const float* w, const int* seg, int n,
                                    int d, int num_segments, float* out) {
  const std::size_t total = static_cast<std::size_t>(num_segments) * d;
  std::size_t z = 0;
  const __m256 zero = _mm256_setzero_ps();
  for (; z + 8 <= total; z += 8) _mm256_storeu_ps(out + z, zero);
  for (; z < total; ++z) out[z] = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float wi = w[i];
    const __m256 vw = _mm256_set1_ps(wi);
    const float* src = x + static_cast<std::size_t>(i) * d;
    float* dst = out + static_cast<std::size_t>(seg[i]) * d;
    int j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(dst + j, _mm256_fmadd_ps(vw, _mm256_loadu_ps(src + j),
                                                _mm256_loadu_ps(dst + j)));
    }
    for (; j < d; ++j) dst[j] += wi * src[j];
  }
}

const Kernels kAvx2 = {
    "avx2",
    avx2_matmul,
    avx2_project,
    avx2_hgt_logits,
    avx2_hgt_accumulate,
    avx2_row_dot,
    avx2_gelu,
    // Per-segment softmax is gather/scatter-bound with a fixed accumulation
    // order; the scalar kernel (auto-vectorized where profitable) is used.
    nullptr,  // patched to scalar().segment_softmax in avx2_table()
    avx2_segment_weighted_sum_rows,
};

}  // namespace

const Kernels* avx2_table() {
  static Kernels table = [] {
    Kernels t = kAvx2;
    t.segment_softmax = scalar().segment_softmax;
    return t;
  }();
  return &table;
}

}  // namespace g2p::backend

#else  // !G2P_BACKEND_AVX2_ENABLED

namespace g2p::backend {
const Kernels* avx2_table() { return nullptr; }
}  // namespace g2p::backend

#endif
