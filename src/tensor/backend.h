// Runtime-dispatched SIMD backend for the dense tensor kernels.
//
// The tensor ops used to be compiled in-place in ops.cpp, which meant the
// binary only vectorized when built with -march=native. This seam moves the
// hot forward kernels behind a table of function pointers resolved once at
// startup: an AVX2+FMA implementation compiled in its own translation unit
// with -mavx2 -mfma (selected via CPUID, so portable binaries still run on
// pre-AVX2 machines), and a scalar fallback that is always available,
// defines the reference semantics and serves every other CPU (aarch64
// included). The fused HGT inference kernel (nn/hgt.cpp) and the autograd
// forward passes (ops.cpp) both draw their inner loops from here; future
// backends (BLAS, GPU) slot in as another Kernels table. Every dense
// product runs through one of two kernels by its width: `project` on
// weights packed by `pack_projection` for every product at least one panel
// (kProjectPanel columns) wide, the narrow `matmul` kernels below that. The
// fused encoder's per-node-type projections pack once per weight
// generation; the autograd ops go through matmul_auto, which packs per call.
//
// Numerics: every kernel reduces the k/depth axis in ascending index order,
// so scalar and SIMD backends agree to float rounding (FMA contraction and
// lane-wise partial sums may differ in the last ulp or two — callers that
// compare across backends use tolerances, never bitwise equality). Within
// one backend, results are deterministic.
//
// Product routing is a function of the output width alone: matmul_auto runs
// `project` (with no epilogue) when m >= kProjectPanel and `matmul`
// otherwise. The backend runs on the calling thread; the encoder
// parallelizes over node-budget tiles of whole graphs instead.
//
// Environment (every G2P_* runtime knob is documented in docs/tuning.md):
//   G2P_BACKEND = auto (default) | scalar | avx2
//     "auto" picks the best table the CPU supports; naming an unavailable
//     backend falls back to auto with a stderr note. Read once, at the first
//     call to active().
//   G2P_FAILPOINTS = site=action[@p[,seed]][;...] (fault injection into the
//     serving path, including the pool.acquire tensor-buffer allocation
//     seam in tensor.cpp; grammar in support/failpoint.h, semantics in
//     docs/serving.md).
#pragma once

#include <string_view>

#include "tensor/tensor.h"

namespace g2p::backend {

/// Column width of the packed projection weight panels `project` reads.
inline constexpr int kProjectPanel = 16;

/// Row-major W [k, m] packed for `project`: ceil(m / kProjectPanel) panels
/// back to back, each holding kProjectPanel columns for every k (k
/// ascending, the panel's columns contiguous), zero-padded past column m.
/// 64-byte aligned, so SIMD tables load panel rows aligned. Pack once per
/// weight generation; the layout is the same for every backend table.
FloatVec pack_projection(const float* w, int k, int m);

/// What `project` does to each finished output row, in this order:
/// add `bias` [m] when set, add the row's `residual` ([rows, m], row stride
/// m) when set, then LayerNorm the row with `ln_gamma` / `ln_beta` [m] and
/// `ln_eps` when `ln_gamma` is set (the same formula as ops.h's layer_norm).
/// The default epilogue leaves the bare product.
struct RowEpilogue {
  const float* bias = nullptr;
  const float* residual = nullptr;
  const float* ln_gamma = nullptr;
  const float* ln_beta = nullptr;
  float ln_eps = 1e-5f;
};

/// Mean and 1 / sqrt(variance + eps) of one row of `m` floats, both sums
/// sequential in column order: the scalar LayerNorm reduction. ops.h's
/// layer_norm and the scalar `project` epilogue both call it, so the two
/// normalize a row to the same bits.
struct RowMoments {
  float mean;
  float istd;
};
RowMoments row_moments(const float* row, int m, float eps);

/// One backend's kernel table. All pointers are always non-null.
struct Kernels {
  const char* name;

  /// Row-major [n,k] x [k,m] -> [n,m] for narrow outputs, m <
  /// kProjectPanel; out is fully overwritten. Width-specialized register
  /// kernels for the head matrices (m = 2, 4, 8), a generic loop for the
  /// other widths. Wider products belong to `project`; matmul_auto()
  /// routes between the two.
  void (*matmul)(const float* a, const float* b, float* out, int n, int k, int m);

  /// Per-node-type projection with a fused row epilogue:
  ///   out[r, :] = epilogue(a[r, :] · W)   for r < rows
  /// `a` is [rows, k] row-major; `w_panels` is W [k, m] in
  /// pack_projection's layout; `out` is [rows, m], fully overwritten. Each
  /// output element is one product chain over k ascending starting from
  /// zero, then `+ bias`, then `+ residual`, each only when set; with the
  /// default epilogue the output is the bare product. Every row is computed
  /// independently of which other rows share the call, so a row's bits do
  /// not depend on `rows`. Register tiles: 6 rows x 16 columns on AVX2 (A
  /// read in place), 4 rows x 8 columns on the scalar table (A interleaved
  /// per 4-row block into per-call scratch). k may be 0: the product is
  /// then zero and `a` / `w_panels` are not read.
  void (*project)(const float* a, const float* w_panels, float* out, int rows, int k, int m,
                  const RowEpilogue& epilogue);

  /// Fused-HGT attention logits for one edge type's whole CSR block
  /// (`count` edges, all heads, one call). `srcs` / `dsts` index rows of the
  /// K and Q tables, each `stride` floats apart (the fused layer passes the
  /// K and Q column blocks of one position-order [N, 3*dim] K|Q|V buffer,
  /// stride 3*dim). Each edge applies the cached per-edge-type weight blocks
  /// `w_att` (`heads` dense [hd, hd] blocks back to back) to its source's K
  /// row in registers, then dots with Q:
  ///   mk[h, :] = k_all[srcs[p]*stride + h*hd ..] · w_att[h]
  ///   logits[p*heads + h] = dot(mk[h, :], q[dsts[p]*stride + h*hd ..])
  ///                         * scale * mu[metas[p]]
  /// and node_max[dsts[p]*heads + h] streams the running per-destination
  /// per-head maximum (callers seed it with -inf once per forward — the
  /// online-softmax max pass, shared across edge types). The map reduces k
  /// in ascending order, like every other kernel here.
  void (*hgt_logits)(const float* k_all, const float* q, const float* w_att, const int* srcs,
                     const int* dsts, const int* metas, const float* mu, int count, int heads,
                     int hd, int stride, float scale, float* logits, float* node_max);

  /// Fused-HGT weighted message scatter for the same block: maps the
  /// source's V row (rows `stride` floats apart, as in hgt_logits) through
  /// `w_msg` in registers, then
  ///   w = exp(logits[p*heads + h] - node_max[dsts[p]*heads + h]);
  ///   denom[dsts[p]*heads + h] += w;
  ///   out[dsts[p]*dim + h*hd ..] += w * (v_all[srcs[p]*stride + h*hd ..] · w_msg[h])
  /// where `out` is a dense [N, dim] buffer (dim = heads*hd). `out`
  /// accumulates the un-normalized aggregate; the caller divides by denom
  /// per (destination, head) afterwards (the online-softmax sum pass).
  void (*hgt_accumulate)(const float* v_all, const float* w_msg, const int* srcs,
                         const int* dsts, int count, const float* logits,
                         const float* node_max, int heads, int hd, int stride, float* out,
                         float* denom);

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

  /// out[seg[i], :] += w[i] * x[i, :], rows in ascending i; out is
  /// [num_segments, d], fully overwritten (zeroed first). Check-free:
  /// segment ids validated by the caller.
  void (*segment_weighted_sum_rows)(const float* x, const float* w, const int* seg, int n,
                                    int d, int num_segments, float* out);
};

/// The dispatch-selected table (CPUID + G2P_BACKEND, resolved once).
const Kernels& active();

/// The scalar reference table (always available; defines the semantics).
const Kernels& scalar();

/// Name of the active table ("scalar", "avx2").
const char* active_name();

/// Force a specific backend in-process (tests/bench only; not thread-safe
/// against concurrent forwards). Returns false and leaves the active table
/// unchanged if `name` is unknown or unsupported on this CPU.
bool set_active(std::string_view name);

/// The table `name` resolves to on this machine, or nullptr if unavailable.
const Kernels* by_name(std::string_view name);

/// Single-thread matmul on the active table, routed by the output width:
/// `pack_projection(b)` then `project` with no epilogue when m >=
/// kProjectPanel, the narrow `matmul` kernels otherwise. This is what the
/// autograd forward passes (ops.cpp) call.
void matmul_auto(const float* a, const float* b, float* out, int n, int k, int m);

}  // namespace g2p::backend
