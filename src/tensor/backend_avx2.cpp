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

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/fastmath.h"
#include "tensor/gemm_blocked.h"
#include "tensor/gemm_s8.h"

namespace g2p::backend {

namespace {

// ---------------------------------------------------------------------------
// Dense matmul: m % 8 == 0 fast paths, scalar table fallback otherwise
// ---------------------------------------------------------------------------

/// Two output rows x MV eight-lane column blocks held in registers across
/// the k loop (MV=4 covers m=32 with 8 accumulators + 2 broadcasts in
/// flight — comfortably inside the 16 YMM registers).
template <int MV>
void matmul_rows2(const float* a, const float* b, float* out, int n, int k) {
  constexpr int M = MV * 8;
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    __m256 acc0[MV], acc1[MV];
    for (int v = 0; v < MV; ++v) {
      acc0[v] = _mm256_setzero_ps();
      acc1[v] = _mm256_setzero_ps();
    }
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    const float* a1 = a0 + k;
    for (int kk = 0; kk < k; ++kk) {
      const __m256 v0 = _mm256_broadcast_ss(a0 + kk);
      const __m256 v1 = _mm256_broadcast_ss(a1 + kk);
      const float* brow = b + static_cast<std::size_t>(kk) * M;
      for (int v = 0; v < MV; ++v) {
        const __m256 bv = _mm256_loadu_ps(brow + v * 8);
        acc0[v] = _mm256_fmadd_ps(v0, bv, acc0[v]);
        acc1[v] = _mm256_fmadd_ps(v1, bv, acc1[v]);
      }
    }
    float* o0 = out + static_cast<std::size_t>(i) * M;
    float* o1 = o0 + M;
    for (int v = 0; v < MV; ++v) {
      _mm256_storeu_ps(o0 + v * 8, acc0[v]);
      _mm256_storeu_ps(o1 + v * 8, acc1[v]);
    }
  }
  if (i < n) {
    __m256 acc[MV];
    for (int v = 0; v < MV; ++v) acc[v] = _mm256_setzero_ps();
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const __m256 v0 = _mm256_broadcast_ss(a0 + kk);
      const float* brow = b + static_cast<std::size_t>(kk) * M;
      for (int v = 0; v < MV; ++v) {
        acc[v] = _mm256_fmadd_ps(v0, _mm256_loadu_ps(brow + v * 8), acc[v]);
      }
    }
    float* o0 = out + static_cast<std::size_t>(i) * M;
    for (int v = 0; v < MV; ++v) _mm256_storeu_ps(o0 + v * 8, acc[v]);
  }
}

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
  switch (m) {
    case 8: return matmul_m8(a, b, out, n, k);
    case 16: return matmul_rows2<2>(a, b, out, n, k);
    case 32: return matmul_rows2<4>(a, b, out, n, k);
    case 64: return matmul_rows2<8>(a, b, out, n, k);
    default: break;
  }
  if (m % 8 == 0 && m <= 256) {
    // Generic multiple-of-8 width: one row in flight, column blocks of 8.
    for (int i = 0; i < n; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * k;
      float* orow = out + static_cast<std::size_t>(i) * m;
      for (int j = 0; j < m; j += 8) {
        __m256 acc = _mm256_setzero_ps();
        for (int kk = 0; kk < k; ++kk) {
          acc = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + kk),
                                _mm256_loadu_ps(b + static_cast<std::size_t>(kk) * m + j),
                                acc);
        }
        _mm256_storeu_ps(orow + j, acc);
      }
    }
    return;
  }
  scalar().matmul(a, b, out, n, k, m);
}

// ---------------------------------------------------------------------------
// Blocked GEMM micro-kernel (gemm_blocked.h drives the blocking)
// ---------------------------------------------------------------------------

/// 6x16 register tile: 12 YMM accumulators + 2 packed-B vectors + 1 A
/// broadcast stay inside the 16 architectural registers, and every cycle
/// feeds both FMA pipes — the configuration the legacy single-row kernels
/// (one latency-bound chain per column block) cannot reach. Packed B panels
/// are 64-byte aligned (tensor_pool scratch), so the B loads are aligned.
struct Avx2Micro {
  static constexpr int MR = 6;
  static constexpr int NR = 16;
  static void run(int kc, const float* __restrict pa, const float* __restrict pb,
                  float* __restrict c, int ldc, bool accumulate) {
    __m256 acc[MR][2];
    for (int r = 0; r < MR; ++r) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    }
    for (int kk = 0; kk < kc; ++kk) {
      const __m256 b0 = _mm256_load_ps(pb);
      const __m256 b1 = _mm256_load_ps(pb + 8);
      pb += NR;
      for (int r = 0; r < MR; ++r) {
        const __m256 av = _mm256_broadcast_ss(pa + r);
        acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
      }
      pa += MR;
    }
    for (int r = 0; r < MR; ++r) {
      float* crow = c + static_cast<std::size_t>(r) * ldc;
      if (accumulate) {
        _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
        _mm256_storeu_ps(crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]));
      } else {
        _mm256_storeu_ps(crow, acc[r][0]);
        _mm256_storeu_ps(crow + 8, acc[r][1]);
      }
    }
  }
};

void avx2_gemm(const float* a, const float* b, float* out, int n, int k, int m) {
  detail::gemm_blocked<Avx2Micro>(a, b, out, n, k, m);
}

// ---------------------------------------------------------------------------
// Quantized GEMM micro-kernel (gemm_s8.h drives blocking and packing)
// ---------------------------------------------------------------------------

/// 4x16 int32 tile on the maddubs/madd pair: per depth group of four, one
/// u32 broadcast of a row's four activation bytes meets two packed weight
/// vectors (16 columns x 4 k-bytes each); vpmaddubsw forms the u8*s8 pair
/// sums in int16 — exact, because activations are capped at 127
/// (gemm_s8.h) so 127*127*2 < 2^15 never saturates — and vpmaddwd folds
/// them into one int32 per column. 8 accumulators + 2 B vectors + 1
/// broadcast + the ones constant stay well inside the 16 YMM registers.
struct Avx2S8Micro {
  static constexpr int MR = 4;
  static constexpr int NR = 16;
  static void run(int kc4, const std::uint8_t* __restrict pa, const std::int8_t* __restrict pb,
                  std::int32_t* __restrict c, int ldc, bool accumulate) {
    __m256i acc[MR][2];
    for (int r = 0; r < MR; ++r) {
      acc[r][0] = _mm256_setzero_si256();
      acc[r][1] = _mm256_setzero_si256();
    }
    const __m256i ones = _mm256_set1_epi16(1);
    for (int kb = 0; kb < kc4; ++kb) {
      const __m256i b0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(pb));
      const __m256i b1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(pb + 32));
      for (int r = 0; r < MR; ++r) {
        std::int32_t a4;
        std::memcpy(&a4, pa + r * 4, sizeof(a4));
        const __m256i av = _mm256_set1_epi32(a4);
        const __m256i p0 = _mm256_maddubs_epi16(av, b0);
        const __m256i p1 = _mm256_maddubs_epi16(av, b1);
        acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(p0, ones));
        acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(p1, ones));
      }
      pa += MR * 4;
      pb += NR * 4;
    }
    for (int r = 0; r < MR; ++r) {
      std::int32_t* crow = c + static_cast<std::size_t>(r) * ldc;
      __m256i* crow0 = reinterpret_cast<__m256i*>(crow);
      __m256i* crow1 = reinterpret_cast<__m256i*>(crow + 8);
      if (accumulate) {
        _mm256_storeu_si256(crow0, _mm256_add_epi32(_mm256_loadu_si256(crow0), acc[r][0]));
        _mm256_storeu_si256(crow1, _mm256_add_epi32(_mm256_loadu_si256(crow1), acc[r][1]));
      } else {
        _mm256_storeu_si256(crow0, acc[r][0]);
        _mm256_storeu_si256(crow1, acc[r][1]);
      }
    }
  }
};

void avx2_gemm_s8(const std::uint8_t* a, int lda, const std::int8_t* b, std::int32_t* out,
                  int ldc, int n, int k, int m) {
  detail::gemm_s8_blocked<Avx2S8Micro>(a, lda, b, out, ldc, n, k, m);
}

/// Horizontal min / max of one YMM.
inline float hmin_ps(__m256 v) {
  __m128 lo = _mm_min_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  lo = _mm_min_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_min_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}
inline float hmax_ps(__m256 v) {
  __m128 lo = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

/// Per-row dynamic activation quantizer: vectorized min/max scan, then
/// (x - lo) * inv + 0.5 truncated to u8 with a float-side upper clamp
/// (the value is >= 0.5 by construction, so no lower clamp). Min/max are
/// exact in any lane order — scales and zero-points match the scalar
/// reference bitwise; code rounding matches up to fp32 contraction ties.
void avx2_quantize_rows(const float* src, const int* rows, int count, int dim,
                        std::uint8_t* qa, float* scales, float* zeros) {
  // i32 (a0 b0 a1 b1 | a2 b2 a3 b3) -> packed u8 lane order after the two
  // in-lane pack steps; this permute restores ascending element order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 cap = _mm256_set1_ps(127.0f);
  for (int i = 0; i < count; ++i) {
    const int row = rows != nullptr ? rows[i] : i;
    const float* x = src + static_cast<std::size_t>(row) * dim;
    std::uint8_t* dst = qa + static_cast<std::size_t>(i) * dim;
    if (dim == 0) {
      scales[i] = 0.0f;
      zeros[i] = 0.0f;
      continue;
    }
    float lo, hi;
    int j = 0;
    if (dim >= 8) {
      __m256 vlo = _mm256_loadu_ps(x);
      __m256 vhi = vlo;
      for (j = 8; j + 8 <= dim; j += 8) {
        const __m256 v = _mm256_loadu_ps(x + j);
        vlo = _mm256_min_ps(vlo, v);
        vhi = _mm256_max_ps(vhi, v);
      }
      lo = hmin_ps(vlo);
      hi = hmax_ps(vhi);
    } else {
      lo = hi = x[0];
      j = 1;
    }
    for (; j < dim; ++j) {
      lo = std::min(lo, x[j]);
      hi = std::max(hi, x[j]);
    }
    zeros[i] = lo;
    scales[i] = (hi - lo) / 127.0f;
    const float inv = scales[i] > 0.0f ? 127.0f / (hi - lo) : 0.0f;
    const __m256 vlo8 = _mm256_set1_ps(lo);
    const __m256 vinv = _mm256_set1_ps(inv);
    j = 0;
    for (; j + 32 <= dim; j += 32) {
      __m256i q[4];
      for (int t = 0; t < 4; ++t) {
        const __m256 v = _mm256_loadu_ps(x + j + t * 8);
        const __m256 scaled =
            _mm256_min_ps(_mm256_add_ps(_mm256_mul_ps(_mm256_sub_ps(v, vlo8), vinv), half),
                          cap);
        q[t] = _mm256_cvttps_epi32(scaled);
      }
      const __m256i p01 = _mm256_packs_epi32(q[0], q[1]);   // i16, in-lane interleave
      const __m256i p23 = _mm256_packs_epi32(q[2], q[3]);
      const __m256i bytes = _mm256_packus_epi16(p01, p23);  // u8, in-lane interleave
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j),
                          _mm256_permutevar8x32_epi32(bytes, order));
    }
    for (; j < dim; ++j) {
      const float q = std::min((x[j] - lo) * inv + 0.5f, 127.0f);
      dst[j] = static_cast<std::uint8_t>(static_cast<int>(q));
    }
  }
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
// Fused-HGT edge kernels
// ---------------------------------------------------------------------------

/// Serving-shape (heads 4, hd 8) logits: each head's mapped K row is built
/// in one YMM register (8 fmadds against the cached weight block, L1
/// resident), then dotted with Q; the four head dots of one edge reduce
/// together (hadd tree), and the logits and the per-destination max are
/// handled as 4-lane vectors.
void hgt_logits_h4d8(const float* k_all, const float* q, const float* w_att, const int* srcs,
                     const int* dsts, const int* metas, const float* mu, int count,
                     float scale, float* logits, float* node_max) {
  for (int p = 0; p < count; ++p) {
    const float* krow = k_all + static_cast<std::size_t>(srcs[p]) * 32;
    const float* qrow = q + static_cast<std::size_t>(dsts[p]) * 32;
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
                     int hd, float scale, float* logits, float* node_max) {
  if (heads == 4 && hd == 8) {
    return hgt_logits_h4d8(k_all, q, w_att, srcs, dsts, metas, mu, count, scale, logits,
                           node_max);
  }
  scalar().hgt_logits(k_all, q, w_att, srcs, dsts, metas, mu, count, heads, hd, scale, logits,
                      node_max);
}

/// Serving-shape accumulate: mapped V row per head in one register, the
/// four head weights from one 4-lane exp, the denominator row updated as one
/// vector, and each head's scatter a single fmadd.
void hgt_accumulate_h4d8(const float* v_all, const float* w_msg, const int* srcs,
                         const int* dsts, int count, const float* logits,
                         const float* node_max, float* out, float* denom) {
  for (int p = 0; p < count; ++p) {
    const float* vrow = v_all + static_cast<std::size_t>(srcs[p]) * 32;
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
                         const float* node_max, int heads, int hd, float* out, float* denom) {
  if (heads == 4 && hd == 8) {
    return hgt_accumulate_h4d8(v_all, w_msg, srcs, dsts, count, logits, node_max, out, denom);
  }
  scalar().hgt_accumulate(v_all, w_msg, srcs, dsts, count, logits, node_max, heads, hd, out,
                          denom);
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
// Segment kernels: sequential over rows (order is part of the numerics
// contract), vectorized across the feature axis
// ---------------------------------------------------------------------------

void avx2_segment_sum_rows(const float* x, const int* seg, int n, int d, int num_segments,
                           float* out) {
  const std::size_t total = static_cast<std::size_t>(num_segments) * d;
  std::size_t z = 0;
  const __m256 zero = _mm256_setzero_ps();
  for (; z + 8 <= total; z += 8) _mm256_storeu_ps(out + z, zero);
  for (; z < total; ++z) out[z] = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float* src = x + static_cast<std::size_t>(i) * d;
    float* dst = out + static_cast<std::size_t>(seg[i]) * d;
    int j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(dst + j, _mm256_add_ps(_mm256_loadu_ps(dst + j),
                                              _mm256_loadu_ps(src + j)));
    }
    for (; j < d; ++j) dst[j] += src[j];
  }
}

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
    avx2_gemm,
    avx2_gemm_s8,
    avx2_quantize_rows,
    avx2_hgt_logits,
    avx2_hgt_accumulate,
    avx2_row_dot,
    avx2_gelu,
    // Per-segment softmax is gather/scatter-bound with a fixed accumulation
    // order; the scalar kernel (auto-vectorized where profitable) is used.
    nullptr,  // patched to scalar().segment_softmax in avx2_table()
    avx2_segment_sum_rows,
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
