// Scalar reference kernels, NEON variants, and the runtime dispatch table.
//
// The scalar matmul specializations moved here from ops.cpp unchanged: one
// output row of compile-time width accumulated in registers, a 4-row variant
// whose independent FMA chains hide multiply-add latency, and a replicated-B
// kernel for narrow head matrices. Every kernel sums k in ascending order,
// so all scalar paths produce bitwise-identical results.

#include "tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <vector>

#include "support/thread_pool.h"
#include "tensor/fastmath.h"
#include "tensor/gemm_blocked.h"
#include "tensor/gemm_s8.h"

#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace g2p::backend {

// Implemented in backend_avx2.cpp (a TU compiled with -mavx2 -mfma when the
// toolchain supports it); returns nullptr when the TU was built without
// AVX2 support. CPU capability is checked at dispatch, not here.
const Kernels* avx2_table();

namespace {

// ---------------------------------------------------------------------------
// Scalar matmul (moved verbatim from ops.cpp)
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

/// Four output rows in flight — independent FMA chains hide the multiply-add
/// latency that serializes the single-row kernel.
template <int M>
void matmul_fixed_width_x4(const float* __restrict a, const float* __restrict b,
                           float* __restrict out, int n, int k) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    float acc0[M] = {}, acc1[M] = {}, acc2[M] = {}, acc3[M] = {};
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    for (int kk = 0; kk < k; ++kk) {
      const float* brow = b + static_cast<std::size_t>(kk) * M;
      const float v0 = a0[kk], v1 = a1[kk], v2 = a2[kk], v3 = a3[kk];
      for (int j = 0; j < M; ++j) {
        const float bj = brow[j];
        acc0[j] += v0 * bj;
        acc1[j] += v1 * bj;
        acc2[j] += v2 * bj;
        acc3[j] += v3 * bj;
      }
    }
    float* orow = out + static_cast<std::size_t>(i) * M;
    for (int j = 0; j < M; ++j) orow[j] = acc0[j];
    for (int j = 0; j < M; ++j) orow[M + j] = acc1[j];
    for (int j = 0; j < M; ++j) orow[2 * M + j] = acc2[j];
    for (int j = 0; j < M; ++j) orow[3 * M + j] = acc3[j];
  }
  if (i < n) {
    matmul_fixed_width<M>(a + static_cast<std::size_t>(i) * k, b,
                          out + static_cast<std::size_t>(i) * M, n - i, k);
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
    case 16: return matmul_fixed_width_x4<16>(a, b, out, n, k);
    case 32: return matmul_fixed_width_x4<32>(a, b, out, n, k);
    case 64: return matmul_fixed_width<64>(a, b, out, n, k);
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
// Scalar blocked GEMM micro-kernel (gemm_blocked.h drives the blocking)
// ---------------------------------------------------------------------------

/// 4x8 register tile: 32 accumulators fit the 16 baseline-SSE2 XMM registers
/// when the compiler vectorizes the fixed-width inner loops, and the same
/// code auto-vectorizes to NEON on aarch64.
struct ScalarMicro {
  static constexpr int MR = 4;
  static constexpr int NR = 8;
  static void run(int kc, const float* __restrict pa, const float* __restrict pb,
                  float* __restrict c, int ldc, bool accumulate) {
    float acc[MR][NR] = {};
    for (int kk = 0; kk < kc; ++kk) {
      for (int r = 0; r < MR; ++r) {
        const float av = pa[r];
        for (int j = 0; j < NR; ++j) acc[r][j] += av * pb[j];
      }
      pa += MR;
      pb += NR;
    }
    for (int r = 0; r < MR; ++r) {
      float* crow = c + static_cast<std::size_t>(r) * ldc;
      if (accumulate) {
        for (int j = 0; j < NR; ++j) crow[j] += acc[r][j];
      } else {
        for (int j = 0; j < NR; ++j) crow[j] = acc[r][j];
      }
    }
  }
};

void scalar_gemm(const float* a, const float* b, float* out, int n, int k, int m) {
  detail::gemm_blocked<ScalarMicro>(a, b, out, n, k, m);
}

// ---------------------------------------------------------------------------
// Scalar quantized GEMM micro-kernel (gemm_s8.h drives blocking and packing)
// ---------------------------------------------------------------------------

/// 4x8 int32 tile over the depth-grouped panels — the reference semantics
/// for Kernels::gemm_s8. Every product is exact in int32 and integer
/// addition is associative, so the AVX2 maddubs tile (whose u8 operands are
/// capped at 127 — see gemm_s8.h) reproduces it bitwise. The fixed-width
/// inner loops auto-vectorize (including to NEON, which reuses this tile).
struct ScalarS8Micro {
  static constexpr int MR = 4;
  static constexpr int NR = 8;
  static void run(int kc4, const std::uint8_t* __restrict pa, const std::int8_t* __restrict pb,
                  std::int32_t* __restrict c, int ldc, bool accumulate) {
    std::int32_t acc[MR][NR] = {};
    for (int kb = 0; kb < kc4; ++kb) {
      for (int r = 0; r < MR; ++r) {
        const std::uint8_t* ar = pa + r * detail::kQuantKP;
        const std::int32_t a0 = ar[0], a1 = ar[1], a2 = ar[2], a3 = ar[3];
        for (int j = 0; j < NR; ++j) {
          const std::int8_t* bj = pb + j * detail::kQuantKP;
          acc[r][j] += a0 * bj[0] + a1 * bj[1] + a2 * bj[2] + a3 * bj[3];
        }
      }
      pa += MR * detail::kQuantKP;
      pb += NR * detail::kQuantKP;
    }
    for (int r = 0; r < MR; ++r) {
      std::int32_t* crow = c + static_cast<std::size_t>(r) * ldc;
      if (accumulate) {
        for (int j = 0; j < NR; ++j) crow[j] += acc[r][j];
      } else {
        for (int j = 0; j < NR; ++j) crow[j] = acc[r][j];
      }
    }
  }
};

void scalar_gemm_s8(const std::uint8_t* a, int lda, const std::int8_t* b, std::int32_t* out,
                    int ldc, int n, int k, int m) {
  detail::gemm_s8_blocked<ScalarS8Micro>(a, lda, b, out, ldc, n, k, m);
}

/// Reference per-row activation quantizer: one quantize_row_u8 (gemm_s8.h)
/// per selected row. The branch-free inner clamp keeps the row loop
/// auto-vectorizable on targets whose compiler flags allow it.
void scalar_quantize_rows(const float* src, const int* rows, int count, int dim,
                          std::uint8_t* qa, float* scales, float* zeros) {
  for (int i = 0; i < count; ++i) {
    const int row = rows != nullptr ? rows[i] : i;
    detail::quantize_row_u8(src + static_cast<std::size_t>(row) * dim, dim,
                            qa + static_cast<std::size_t>(i) * dim, scales[i], zeros[i]);
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
                       int count, int heads, int hd, float scale, float* logits,
                       float* node_max) {
  const int dim = heads * hd;
  float mk_stack[kMaxHeadDim];
  std::vector<float> mk_heap(hd > kMaxHeadDim ? static_cast<std::size_t>(hd) : 0);
  float* const mk = hd > kMaxHeadDim ? mk_heap.data() : mk_stack;
  for (int p = 0; p < count; ++p) {
    const float* krow = k_all + static_cast<std::size_t>(srcs[p]) * dim;
    const float* qrow = q + static_cast<std::size_t>(dsts[p]) * dim;
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
                           const float* node_max, int heads, int hd, float* out,
                           float* denom) {
  const int dim = heads * hd;
  float mv_stack[kMaxHeadDim];
  std::vector<float> mv_heap(hd > kMaxHeadDim ? static_cast<std::size_t>(hd) : 0);
  float* const mv = hd > kMaxHeadDim ? mv_heap.data() : mv_stack;
  for (int p = 0; p < count; ++p) {
    const float* vrow = v_all + static_cast<std::size_t>(srcs[p]) * dim;
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

void scalar_segment_sum_rows(const float* x, const int* seg, int n, int d, int num_segments,
                             float* out) {
  std::fill(out, out + static_cast<std::size_t>(num_segments) * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    const float* src = x + static_cast<std::size_t>(i) * d;
    float* dst = out + static_cast<std::size_t>(seg[i]) * d;
    for (int j = 0; j < d; ++j) dst[j] += src[j];
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
    scalar_gemm,
    scalar_gemm_s8,
    scalar_quantize_rows,
    scalar_hgt_logits,
    scalar_hgt_accumulate,
    scalar_row_dot,
    scalar_gelu,
    scalar_segment_softmax,
    scalar_segment_sum_rows,
    scalar_segment_weighted_sum_rows,
};

// ---------------------------------------------------------------------------
// NEON (aarch64: baseline feature, no extra compile flags needed)
// ---------------------------------------------------------------------------

#if defined(__ARM_NEON)

float neon_dot(const float* a, const float* b, int d) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int j = 0;
  for (; j + 4 <= d; j += 4) {
    acc = vmlaq_f32(acc, vld1q_f32(a + j), vld1q_f32(b + j));
  }
  float sum = vaddvq_f32(acc);
  for (; j < d; ++j) sum += a[j] * b[j];
  return sum;
}

void neon_row_dot(const float* a, const float* b, float* out, int n, int d) {
  for (int i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * d;
    out[i] = neon_dot(a + row, b + row, d);
  }
}

constexpr Kernels kNeon = {
    "neon",
    scalar_matmul,   // the tuned scalar kernels auto-vectorize on aarch64
    scalar_gemm,     // ScalarMicro's fixed-width tile vectorizes likewise
    scalar_gemm_s8,  // ScalarS8Micro's int32 tile vectorizes (smull/sadalp class)
    scalar_quantize_rows,  // min/max scan + branch-free clamp vectorize likewise
    scalar_hgt_logits,  // per-edge register map: auto-vectorizes on aarch64
    scalar_hgt_accumulate,
    neon_row_dot,
    scalar_gelu,  // aarch64 compilers auto-vectorize the polynomial well
    scalar_segment_softmax,
    scalar_segment_sum_rows,
    scalar_segment_weighted_sum_rows,
};

#endif  // __ARM_NEON

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
#if defined(__ARM_NEON)
  return &kNeon;
#endif
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
#if defined(__ARM_NEON)
  if (name == "neon") return &kNeon;
#else
  if (name == "neon") return nullptr;
#endif
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

namespace {

/// Where the blocked GEMM starts beating the legacy kernels: the packed
/// panels cost two extra passes over A and B, so tiny products stay on the
/// register-specialized paths, as do the narrow head matrices (m <= 8) whose
/// replicated-B kernels the tile can't match. Thresholds picked by
/// bench_gemm sweeps on the serving shapes.
bool gemm_profitable(int n, int k, int m) {
  if (m < 16 || n < 8 || k < 4) return false;
  return static_cast<std::size_t>(n) * static_cast<std::size_t>(k) *
             static_cast<std::size_t>(m) >=
         (1u << 15);
}

/// Row panels a threaded GEMM over `n` rows fans out to on `pool`: one per
/// worker, but each at least kMinRowsPerChunk rows — below that the
/// per-chunk B re-pack and queue round trip outweigh the parallelism. 0 or 1
/// means run inline.
std::size_t row_panels(int n, const ThreadPool* pool) {
  constexpr int kMinRowsPerChunk = 64;
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  return std::min<std::size_t>(workers, static_cast<std::size_t>(n) / kMinRowsPerChunk);
}

}  // namespace

void matmul_auto(const float* a, const float* b, float* out, int n, int k, int m) {
  const Kernels& kern = active();
  if (gemm_profitable(n, k, m)) {
    kern.gemm(a, b, out, n, k, m);
  } else {
    kern.matmul(a, b, out, n, k, m);
  }
}

void matmul_mt(const float* a, const float* b, float* out, int n, int k, int m,
               ThreadPool* pool) {
  const std::size_t chunks = row_panels(n, pool);
  if (chunks <= 1) {
    matmul_auto(a, b, out, n, k, m);
    return;
  }
  // Pick the kernel once, on the FULL shape: re-running the heuristic on
  // each chunk's smaller n could route chunks to the other kernel, whose
  // rounding differs in the last ulps — breaking the bitwise
  // single-vs-threaded guarantee.
  const Kernels& kern = active();
  const auto kernel = gemm_profitable(n, k, m) ? kern.gemm : kern.matmul;
  const std::size_t per_chunk =
      (static_cast<std::size_t>(n) + chunks - 1) / chunks;
  pool->parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * per_chunk;
    if (begin >= static_cast<std::size_t>(n)) return;
    const std::size_t rows =
        std::min(per_chunk, static_cast<std::size_t>(n) - begin);
    kernel(a + begin * static_cast<std::size_t>(k), b,
           out + begin * static_cast<std::size_t>(m), static_cast<int>(rows), k, m);
  });
}

void gemm_s8_mt(const std::uint8_t* a, int lda, const std::int8_t* b, std::int32_t* out,
                int ldc, int n, int k, int m, ThreadPool* pool) {
  // Same chunking policy as matmul_mt; the int32 accumulators make the row
  // split bitwise-neutral, so no full-shape kernel pinning is needed.
  const std::size_t chunks = row_panels(n, pool);
  const auto kernel = active().gemm_s8;
  if (chunks <= 1) {
    kernel(a, lda, b, out, ldc, n, k, m);
    return;
  }
  const std::size_t per_chunk = (static_cast<std::size_t>(n) + chunks - 1) / chunks;
  pool->parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * per_chunk;
    if (begin >= static_cast<std::size_t>(n)) return;
    const std::size_t rows = std::min(per_chunk, static_cast<std::size_t>(n) - begin);
    kernel(a + begin * static_cast<std::size_t>(lda), lda, b,
           out + begin * static_cast<std::size_t>(ldc), ldc, static_cast<int>(rows), k, m);
  });
}

}  // namespace g2p::backend
