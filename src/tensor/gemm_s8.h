// Int8 quantized GEMM: the gemm_blocked.h loop nest over 8-bit operands,
// plus the quantize/dequantize helpers that define the serving contract.
//
// The quantization scheme (scalar micro-kernel in backend.cpp is the
// reference semantics; the AVX2 maddubs kernel is bitwise-identical):
//
//   * Activations are quantized dynamically per row, asymmetric, to the
//     unsigned 7-bit range [0, 127]:  a[i,k] ~= zero[i] + scale[i]*qa[i,k].
//     Seven bits — not eight — is what makes vpmaddubsw exact: u8 in
//     [0,127] times s8 in [-127,127], two products summed, stays inside
//     int16 (127*127*2 = 32258 < 32767), so the SIMD pair-sum never
//     saturates and integer accumulators match the scalar reference
//     bitwise. The asymmetric zero-point also fits the model's activation
//     distributions (GELU outputs, embeddings) better than a symmetric
//     clamp would.
//   * Weights are quantized ahead of time per output channel (per column
//     of the row-major [k, m] operand — each column is one logical weight
//     row of the Linear), symmetric:  w[kk,j] ~= scale[j] * qw[kk,j] with
//     qw clamped to [-127, 127].
//   * The integer GEMM computes exact int32  acc[i,j] = sum_k qa * qw;
//     the caller dequantizes in its epilogue (fused with bias/residual):
//       out[i,j] = a_scale[i]*(w.scale[j]*acc[i,j]) + a_zero[i]*w.zcomp[j]
//     where zcomp[j] = scale[j] * sum_k qw[kk,j] folds the activation
//     zero-point through the weight column once, at repack time.
//
// The driver packs both operands into 64-byte-aligned U8Vec/I8Vec scratch
// with the depth axis grouped in fours (kQuantKP): a micro-panel step holds
// MR (or NR) groups of four consecutive-k bytes, which is exactly the
// operand order vpmaddubsw/vpmaddwd reduce in one instruction pair. Depth
// is zero-padded to a multiple of four (zero bytes contribute nothing), so
// odd k needs no scalar tail anywhere.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <vector>

#include "tensor/gemm_blocked.h"  // block constants kGemmMC/KC/NC
#include "tensor/tensor.h"

namespace g2p::backend::detail {

/// Depth-group width of the packed int8 panels (the maddubs pair width
/// times the madd pair width).
inline constexpr int kQuantKP = 4;

using U8Vec = std::vector<std::uint8_t, UninitAllocator<std::uint8_t>>;
using I8Vec = std::vector<std::int8_t, UninitAllocator<std::int8_t>>;
using I32Vec = std::vector<std::int32_t, UninitAllocator<std::int32_t>>;

/// Quantize one activation row to u8 in [0, 127] (asymmetric, dynamic):
/// src[kk] ~= zero + scale * dst[kk]. A constant row (including all-zero —
/// the scale guard) quantizes to scale 0 with every code 0, which
/// dequantizes exactly through the zcomp term.
inline void quantize_row_u8(const float* src, int k, std::uint8_t* dst, float& scale,
                            float& zero) {
  float lo = 0.0f, hi = 0.0f;
  if (k > 0) {
    lo = hi = src[0];
    for (int kk = 1; kk < k; ++kk) {
      lo = std::min(lo, src[kk]);
      hi = std::max(hi, src[kk]);
    }
  }
  zero = lo;
  scale = (hi - lo) / 127.0f;
  const float inv = scale > 0.0f ? 127.0f / (hi - lo) : 0.0f;
  // (src-lo)*inv is in [0, 127] up to rounding, so a float-side upper clamp
  // is the only guard needed; the branch-free min keeps this loop
  // vectorizable (cvt + packus on AVX2, a straight lane loop elsewhere).
  for (int kk = 0; kk < k; ++kk) {
    const float q = std::min((src[kk] - lo) * inv + 0.5f, 127.0f);
    dst[kk] = static_cast<std::uint8_t>(static_cast<int>(q));
  }
}

/// A pre-quantized weight operand: the int8 image of a row-major [k, m]
/// GEMM rhs with its per-output-channel dequant scales and the activation
/// zero-point compensation (see file comment). Lives in HgtLayer's fused
/// weight cache next to the fp32 repacks.
struct QuantOperand {
  I8Vec q;        // row-major [k, m]
  FloatVec scale;   // [m]: w[kk,j] ~= scale[j] * q[kk,j]
  FloatVec zcomp;   // [m]: scale[j] * sum_k q[kk,j]
  int k = 0, m = 0;
};

/// Symmetric per-output-channel int8 quantization of a row-major [k, m]
/// weight block. An all-zero column gets scale 0 (guarded divide); values
/// that round past the representable range clamp to +-127.
inline void quantize_weights(const float* w, int k, int m, QuantOperand& out) {
  out.k = k;
  out.m = m;
  out.q.resize(static_cast<std::size_t>(k) * static_cast<std::size_t>(m));
  out.scale.assign(static_cast<std::size_t>(m), 0.0f);
  out.zcomp.assign(static_cast<std::size_t>(m), 0.0f);
  for (int j = 0; j < m; ++j) {
    float absmax = 0.0f;
    for (int kk = 0; kk < k; ++kk) {
      absmax = std::max(absmax, std::fabs(w[static_cast<std::size_t>(kk) * m + j]));
    }
    const float scale = absmax / 127.0f;
    const float inv = scale > 0.0f ? 127.0f / absmax : 0.0f;
    out.scale[static_cast<std::size_t>(j)] = scale;
    std::int32_t colsum = 0;
    for (int kk = 0; kk < k; ++kk) {
      const float v = w[static_cast<std::size_t>(kk) * m + j] * inv;
      const int q = std::clamp(static_cast<int>(std::lrintf(v)), -127, 127);
      out.q[static_cast<std::size_t>(kk) * m + j] = static_cast<std::int8_t>(q);
      colsum += q;
    }
    out.zcomp[static_cast<std::size_t>(j)] = scale * static_cast<float>(colsum);
  }
}

/// Pack a u8 activation block [rows, kc] (leading dimension lda) into
/// MR-row micro-panels with the depth axis grouped by kQuantKP: one panel
/// step is MR runs of four consecutive-k bytes (row r's group is
/// broadcast-loadable as one u32). Rows past `rows` and depths past `kc`
/// are zero-filled.
template <int MR>
inline void pack_a_s8(const std::uint8_t* a, int lda, int rows, int kc, std::uint8_t* dst) {
  const int kc4 = (kc + kQuantKP - 1) / kQuantKP;
  const int kc4_full = kc / kQuantKP;  // groups with no depth padding
  for (int ir = 0; ir < rows; ir += MR) {
    const int mr = std::min(MR, rows - ir);
    const std::uint8_t* ablock = a + static_cast<std::size_t>(ir) * lda;
    if (mr == MR) {
      // Interior strip: every (row, group) step is a straight 4-byte copy.
      for (int kb = 0; kb < kc4_full; ++kb) {
        const int k0 = kb * kQuantKP;
        for (int r = 0; r < MR; ++r) {
          std::memcpy(dst, ablock + static_cast<std::size_t>(r) * lda + k0, kQuantKP);
          dst += kQuantKP;
        }
      }
      for (int kb = kc4_full; kb < kc4; ++kb) {  // ragged depth tail, zero-padded
        const int k0 = kb * kQuantKP;
        for (int r = 0; r < MR; ++r) {
          const std::uint8_t* arow = ablock + static_cast<std::size_t>(r) * lda;
          for (int t = 0; t < kQuantKP; ++t) dst[t] = k0 + t < kc ? arow[k0 + t] : 0;
          dst += kQuantKP;
        }
      }
      continue;
    }
    for (int kb = 0; kb < kc4; ++kb) {
      const int k0 = kb * kQuantKP;
      for (int r = 0; r < MR; ++r) {
        const std::uint8_t* arow = ablock + static_cast<std::size_t>(r) * lda;
        for (int t = 0; t < kQuantKP; ++t) {
          dst[t] = (r < mr && k0 + t < kc) ? arow[k0 + t] : 0;
        }
        dst += kQuantKP;
      }
    }
  }
}

/// Pack an s8 weight block [kc, cols] (leading dimension ldb) into NR-col
/// micro-panels, depth grouped by kQuantKP: one panel step is NR runs of
/// four consecutive-k bytes of one column — the vpmaddubsw operand order.
/// Columns past `cols` and depths past `kc` are zero-filled.
template <int NR>
inline void pack_b_s8(const std::int8_t* b, int ldb, int kc, int cols, std::int8_t* dst) {
  const int kc4 = (kc + kQuantKP - 1) / kQuantKP;
  const int kc4_full = kc / kQuantKP;
  for (int jr = 0; jr < cols; jr += NR) {
    const int nr = std::min(NR, cols - jr);
    const std::int8_t* bblock = b + jr;
    if (nr == NR) {
      // Interior strip: branch-free column gather down four rows of b.
      for (int kb = 0; kb < kc4_full; ++kb) {
        const std::int8_t* brow = bblock + static_cast<std::size_t>(kb * kQuantKP) * ldb;
        for (int j = 0; j < NR; ++j) {
          dst[0] = brow[j];
          dst[1] = brow[static_cast<std::size_t>(ldb) + j];
          dst[2] = brow[2 * static_cast<std::size_t>(ldb) + j];
          dst[3] = brow[3 * static_cast<std::size_t>(ldb) + j];
          dst += kQuantKP;
        }
      }
      for (int kb = kc4_full; kb < kc4; ++kb) {
        const int k0 = kb * kQuantKP;
        for (int j = 0; j < NR; ++j) {
          for (int t = 0; t < kQuantKP; ++t) {
            dst[t] = k0 + t < kc ? bblock[static_cast<std::size_t>(k0 + t) * ldb + j] : 0;
          }
          dst += kQuantKP;
        }
      }
      continue;
    }
    for (int kb = 0; kb < kc4; ++kb) {
      const int k0 = kb * kQuantKP;
      for (int j = 0; j < NR; ++j) {
        for (int t = 0; t < kQuantKP; ++t) {
          dst[t] = (j < nr && k0 + t < kc)
                       ? bblock[static_cast<std::size_t>(k0 + t) * ldb + j]
                       : 0;
        }
        dst += kQuantKP;
      }
    }
  }
}

/// Row-major u8 [n,k] (values <= 127, lda row stride) x s8 [k,m] -> exact
/// int32 [n,m] (ldc row stride), out fully overwritten. Same jc/pc/ic nest
/// as gemm_blocked; `Micro` supplies the register tile:
///   Micro::MR, Micro::NR    — tile shape
///   Micro::run(kc4, pa, pb, c, ldc, accumulate)
///     — one MR x NR int32 tile over kc4 packed depth groups; adds onto the
///       existing values when `accumulate`.
/// Integer accumulation is associative, so any backend's tile — and any
/// row-panel split over it — produces bitwise-identical results.
template <class Micro>
void gemm_s8_blocked(const std::uint8_t* a, int lda, const std::int8_t* b,
                     std::int32_t* out, int ldc, int n, int k, int m) {
  constexpr int MR = Micro::MR;
  constexpr int NR = Micro::NR;
  if (n == 0 || m == 0) return;
  if (k == 0) {
    for (int i = 0; i < n; ++i) {
      std::fill_n(out + static_cast<std::size_t>(i) * ldc, m, 0);
    }
    return;
  }

  const int kc_max = std::min(kGemmKC, k);
  const int mc_max = std::min(kGemmMC, n);
  const int nc_max = std::min(kGemmNC, m);
  const auto round_up = [](int v, int q) { return (v + q - 1) / q * q; };
  const int kc4_max = (kc_max + kQuantKP - 1) / kQuantKP;
  U8Vec pa_buf(static_cast<std::size_t>(round_up(mc_max, MR)) * kc4_max * kQuantKP);
  I8Vec pb_buf(static_cast<std::size_t>(round_up(nc_max, NR)) * kc4_max * kQuantKP);

  for (int jc = 0; jc < m; jc += kGemmNC) {
    const int nc = std::min(kGemmNC, m - jc);
    for (int pc = 0; pc < k; pc += kGemmKC) {
      const int kc = std::min(kGemmKC, k - pc);
      const int kc4 = (kc + kQuantKP - 1) / kQuantKP;
      const bool accumulate = pc > 0;
      pack_b_s8<NR>(b + static_cast<std::size_t>(pc) * m + jc, m, kc, nc, pb_buf.data());
      for (int ic = 0; ic < n; ic += kGemmMC) {
        const int mc = std::min(kGemmMC, n - ic);
        pack_a_s8<MR>(a + static_cast<std::size_t>(ic) * lda + pc, lda, mc, kc,
                      pa_buf.data());
        for (int jr = 0; jr < nc; jr += NR) {
          const int nr = std::min(NR, nc - jr);
          const std::int8_t* pb =
              pb_buf.data() + static_cast<std::size_t>(jr) * kc4 * kQuantKP;
          for (int ir = 0; ir < mc; ir += MR) {
            const int mr = std::min(MR, mc - ir);
            const std::uint8_t* pa =
                pa_buf.data() + static_cast<std::size_t>(ir) * kc4 * kQuantKP;
            std::int32_t* c = out + static_cast<std::size_t>(ic + ir) * ldc + jc + jr;
            if (mr == MR && nr == NR) {
              Micro::run(kc4, pa, pb, c, ldc, accumulate);
            } else {
              // Ragged edge: full zero-padded tile off to the side, fold
              // the live mr x nr corner into C.
              alignas(64) std::int32_t tile[MR * NR];
              Micro::run(kc4, pa, pb, tile, NR, false);
              for (int r = 0; r < mr; ++r) {
                std::int32_t* crow = c + static_cast<std::size_t>(r) * ldc;
                const std::int32_t* trow = tile + r * NR;
                if (accumulate) {
                  for (int j = 0; j < nr; ++j) crow[j] += trow[j];
                } else {
                  for (int j = 0; j < nr; ++j) crow[j] = trow[j];
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace g2p::backend::detail
