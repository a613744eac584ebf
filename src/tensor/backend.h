// Runtime-dispatched SIMD backend for the dense tensor kernels.
//
// The tensor ops used to be compiled in-place in ops.cpp, which meant the
// binary only vectorized when built with -march=native. This seam moves the
// hot forward kernels behind a table of function pointers resolved once at
// startup: an AVX2+FMA implementation compiled in its own translation unit
// with -mavx2 -mfma (selected via CPUID, so portable binaries still run on
// pre-AVX2 machines), a NEON variant on aarch64, and a scalar fallback that
// is always available and defines the reference semantics. The fused HGT
// inference kernel (nn/hgt.cpp) and the autograd forward passes (ops.cpp)
// both draw their inner loops from here; future backends (BLAS, GPU) slot in
// as another Kernels table.
//
// Numerics: every kernel reduces the k/depth axis in ascending index order,
// so scalar and SIMD backends agree to float rounding (FMA contraction and
// lane-wise partial sums may differ in the last ulp or two — callers that
// compare across backends use tolerances, never bitwise equality). Within
// one backend, results are deterministic.
//
// GEMM routing is a function of the shape and the pool alone: matmul_auto
// picks the blocked `gemm` or the legacy `matmul` kernels from the product's
// shape, and matmul_mt / gemm_s8_mt fan row panels out over at most the
// pool's width (a one-thread pool pins them to the calling thread).
//
// Environment (every G2P_* runtime knob is documented in docs/tuning.md):
//   G2P_BACKEND = auto (default) | scalar | avx2 | neon
//     "auto" picks the best table the CPU supports; naming an unavailable
//     backend falls back to auto with a stderr note. Read once, at the first
//     call to active().
//   G2P_PRECISION = fp32 | int8 (serving precision override; read once in
//     nn/hgt.cpp — the int8 path dispatches through Kernels::gemm_s8 below).
//   G2P_FAILPOINTS = site=action[@p[,seed]][;...] (fault injection into the
//     serving path, including this layer's pool.acquire seam; grammar in
//     support/failpoint.h, semantics in docs/serving.md).
#pragma once

#include <cstdint>
#include <string_view>

namespace g2p {
class ThreadPool;
}

namespace g2p::backend {

/// One backend's kernel table. All pointers are always non-null.
struct Kernels {
  const char* name;

  /// Row-major [n,k] x [k,m] -> [n,m]; out is fully overwritten. The legacy
  /// width-specialized register kernels: unbeatable on the narrow head
  /// matrices (m <= 8, k <= 64) and cheap on small inputs, but neither
  /// cache-blocked nor packed — prefer matmul_auto(), which routes large
  /// shapes to `gemm`.
  void (*matmul)(const float* a, const float* b, float* out, int n, int k, int m);

  /// Same contract as `matmul`, computed by the cache-blocked packed GEMM
  /// (gemm_blocked.h): GotoBLAS-style panel packing into 64-byte-aligned
  /// tensor_pool scratch with a per-backend register-tiled micro-kernel
  /// (6x16 AVX2+FMA, 4x8 scalar/NEON). Wins once B no longer fits L1 and/or
  /// n is large enough to amortize packing; matmul_auto() holds the shape
  /// heuristic so callers don't choose by hand.
  void (*gemm)(const float* a, const float* b, float* out, int n, int k, int m);

  /// Quantized GEMM: row-major u8 activations [n, k] (row stride lda,
  /// values in [0, 127] — the 7-bit activation range of the int8 serving
  /// contract, see gemm_s8.h) times s8 weights [k, m] (contiguous), into
  /// exact int32 accumulators [n, m] (row stride ldc), fully overwritten.
  /// Same GotoBLAS-style packed/blocked driver as `gemm`
  /// (gemm_s8_blocked<Micro> in gemm_s8.h) with a vpmaddubsw/vpmaddwd
  /// micro-kernel on AVX2 and a scalar reference tile that defines the
  /// semantics. Integer accumulation is exact, so every backend — and any
  /// row-panel split (gemm_s8_mt) — is bitwise-identical. Scales,
  /// zero-points, and the fp32 dequant epilogue are the caller's (the fused
  /// HGT forward folds dequant into its bias+residual scatters).
  void (*gemm_s8)(const std::uint8_t* a, int lda, const std::int8_t* b,
                  std::int32_t* out, int ldc, int n, int k, int m);

  /// Dynamic per-row activation quantization for the int8 serving path
  /// (the gather half of the quantize-and-pack step): for each i in
  /// [0, count), read the [dim] fp32 row `src + rows[i]*dim` (or row i when
  /// `rows` is null), scan its min/max, and emit u8 codes in [0, 127] into
  /// `qa + i*dim` with scales[i]/zeros[i] such that
  ///   src[row, j] ~= zeros[i] + scales[i] * qa[i, j]
  /// (asymmetric, 7-bit — see gemm_s8.h for why 127). Min/max are exact in
  /// any evaluation order, so scales and zero-points are bitwise-identical
  /// across backends; the fp32 rounding into codes may differ by one step
  /// on half-ulp ties (callers compare dequantized values with tolerances,
  /// like every other fp32 kernel here).
  void (*quantize_rows)(const float* src, const int* rows, int count, int dim,
                        std::uint8_t* qa, float* scales, float* zeros);

  /// Fused-HGT attention logits for one edge type's whole CSR block
  /// (`count` edges, all heads, one call). Each edge applies the cached
  /// per-edge-type weight blocks `w_att` (`heads` dense [hd, hd] blocks back
  /// to back) to its source's K row in registers, then dots with Q:
  ///   mk[h, :] = k_all[srcs[p]*dim + h*hd ..] · w_att[h]
  ///   logits[p*heads + h] = dot(mk[h, :], q[dsts[p]*dim + h*hd ..])
  ///                         * scale * mu[metas[p]]        (dim = heads*hd)
  /// and node_max[dsts[p]*heads + h] streams the running per-destination
  /// per-head maximum (callers seed it with -inf once per forward — the
  /// online-softmax max pass, shared across edge types). The map reduces k
  /// in ascending order, like every other kernel here.
  void (*hgt_logits)(const float* k_all, const float* q, const float* w_att, const int* srcs,
                     const int* dsts, const int* metas, const float* mu, int count, int heads,
                     int hd, float scale, float* logits, float* node_max);

  /// Fused-HGT weighted message scatter for the same block: maps the
  /// source's V row through `w_msg` in registers, then
  ///   w = exp(logits[p*heads + h] - node_max[dsts[p]*heads + h]);
  ///   denom[dsts[p]*heads + h] += w;
  ///   out[dsts[p]*dim + h*hd ..] += w * (v_all[srcs[p]*dim + h*hd ..] · w_msg[h])
  /// `out` accumulates the un-normalized aggregate; the caller divides by
  /// denom per (destination, head) afterwards (the online-softmax sum pass).
  void (*hgt_accumulate)(const float* v_all, const float* w_msg, const int* srcs,
                         const int* dsts, int count, const float* logits,
                         const float* node_max, int heads, int hd, float* out, float* denom);

  /// out[i] = dot(a[i,:], b[i,:]) for [n,d] inputs.
  void (*row_dot)(const float* a, const float* b, float* out, int n, int d);

  /// Elementwise tanh-approximation GELU:
  ///   out[i] = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
  /// with tanh via the exp identity — the same construction as
  /// fastmath.h's fast_tanhf, but vectorizable (SIMD backends use a
  /// lane-parallel exp with nearest-even rounding in the range reduction;
  /// agreement with the scalar kernel is ~1e-7 relative, not bitwise).
  void (*gelu)(const float* x, float* out, int n);

  /// Per-segment softmax over rank-1 logits. Segment ids must already be
  /// validated in [0, num_segments) — this is the check-free inner kernel.
  void (*segment_softmax)(const float* logits, const int* seg, int e, int num_segments,
                          float* out);

  /// out[seg[i], :] += x[i, :]; out is [num_segments, d], fully overwritten
  /// (zeroed first). Check-free: segment ids validated by the caller.
  void (*segment_sum_rows)(const float* x, const int* seg, int n, int d, int num_segments,
                           float* out);

  /// out[seg[i], :] += w[i] * x[i, :]; same contract as segment_sum_rows.
  void (*segment_weighted_sum_rows)(const float* x, const float* w, const int* seg, int n,
                                    int d, int num_segments, float* out);
};

/// The dispatch-selected table (CPUID + G2P_BACKEND, resolved once).
const Kernels& active();

/// The scalar reference table (always available; defines the semantics).
const Kernels& scalar();

/// Name of the active table ("scalar", "avx2", "neon").
const char* active_name();

/// Force a specific backend in-process (tests/bench only; not thread-safe
/// against concurrent forwards). Returns false and leaves the active table
/// unchanged if `name` is unknown or unsupported on this CPU.
bool set_active(std::string_view name);

/// The table `name` resolves to on this machine, or nullptr if unavailable.
const Kernels* by_name(std::string_view name);

/// Single-thread matmul with automatic kernel selection on the active table:
/// the blocked/packed `gemm` when the shape is large enough to amortize
/// panel packing, the legacy width-specialized `matmul` kernels otherwise
/// (narrow head matrices and small products). This is what the autograd
/// forward kernels (ops.cpp) call.
void matmul_auto(const float* a, const float* b, float* out, int n, int k, int m);

/// Multithreaded matmul: splits the row dimension into per-worker panels on
/// `pool` and runs the active table's kernel (via matmul_auto) on each slice
/// concurrently. Output is identical to the single-thread kernel — row
/// panels don't change any element's reduction order. Null pool, a
/// single-thread pool, or tiny n degrade to one inline matmul_auto call. Re-entrancy-safe: called from one of `pool`'s own
/// workers, parallel_for runs the slices inline (no deadlock at
/// saturation), so nested use under a parallel encode is harmless.
void matmul_mt(const float* a, const float* b, float* out, int n, int k, int m,
               ThreadPool* pool);

/// Multithreaded quantized GEMM: the matmul_mt row-panel fan-out over the
/// active table's gemm_s8 (same pool-width and min-rows chunking).
/// Integer accumulation makes the split bitwise-neutral; null pool, tiny n,
/// or a single worker degrade to one inline kernel call.
void gemm_s8_mt(const std::uint8_t* a, int lda, const std::int8_t* b, std::int32_t* out,
                int ldc, int n, int k, int m, ThreadPool* pool);

}  // namespace g2p::backend
