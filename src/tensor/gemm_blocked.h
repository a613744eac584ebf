// Cache-blocked, packed GEMM: the GotoBLAS/BLIS loop nest, shared by every
// backend table.
//
// The legacy `Kernels::matmul` specializations keep one or two output rows
// in registers and stream B from cache once per row — fine while B fits L1,
// but at serving projection shapes ([N, 64]x[64, 256]-class) B is rereads
// from L2 per row and the single accumulator chain per column block leaves
// the FMA pipes mostly idle. This driver restores the classical structure:
//
//   for jc (NC cols)            B panel      [KC, NC] packed, L2/L3
//     for pc (KC depth)
//       for ic (MC rows)        A panel      [MC, KC] packed, L2
//         for jr (NR cols)      B micro-panel [KC, NR]        L1
//           for ir (MR rows)    A micro-panel [MR, KC]        L1
//             micro-kernel: MR x NR register tile over the full KC depth
//
// Panels are packed into 64-byte-aligned FloatVec scratch (pack_a /
// pack_b zero-pad to full MR/NR strips, so the micro-kernel never sees a
// ragged edge and SIMD backends may use aligned loads on B). The micro-
// kernel is the only backend-specific part; it is injected as a policy
// (`Micro::MR`, `Micro::NR`, `Micro::run`).
//
// Numerics: for every output element the k axis accumulates in ascending
// index order (pc blocks ascend, the micro-kernel walks kc ascending, and
// later pc blocks add onto the stored partials), matching the backend
// contract. FMA contraction and register-tile evaluation order still differ
// from the legacy kernels in the last ulps — cross-kernel comparisons use
// tolerances, as everywhere else in backend.h.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/tensor.h"

namespace g2p::backend::detail {

// Block sizes (float32). KC x NR B micro-panels and MR x KC A micro-panels
// must stay L1-resident; MC x KC A panels target L2. The serving shapes
// (k <= 64, m <= 256) take a single pc/jc pass — the outer blocking only
// engages on the large square/tall shapes the bench and tests cover.
inline constexpr int kGemmMC = 120;
inline constexpr int kGemmKC = 320;
inline constexpr int kGemmNC = 2048;

/// Pack a row-major A block [rows, kc] (leading dimension lda) into MR-row
/// micro-panels: within one panel the MR values of each k are contiguous,
/// k ascending. Rows past `rows` are zero-filled.
template <int MR>
inline void pack_a(const float* a, int lda, int rows, int kc, float* dst) {
  for (int ir = 0; ir < rows; ir += MR) {
    const int mr = std::min(MR, rows - ir);
    const float* ablock = a + static_cast<std::size_t>(ir) * lda;
    for (int kk = 0; kk < kc; ++kk) {
      for (int r = 0; r < mr; ++r) dst[r] = ablock[static_cast<std::size_t>(r) * lda + kk];
      for (int r = mr; r < MR; ++r) dst[r] = 0.0f;
      dst += MR;
    }
  }
}

/// Pack a row-major B block [kc, cols] (leading dimension ldb) into NR-col
/// micro-panels: per panel the NR values of each k are contiguous, k
/// ascending. Columns past `cols` are zero-filled.
template <int NR>
inline void pack_b(const float* b, int ldb, int kc, int cols, float* dst) {
  for (int jr = 0; jr < cols; jr += NR) {
    const int nr = std::min(NR, cols - jr);
    const float* bblock = b + jr;
    for (int kk = 0; kk < kc; ++kk) {
      const float* brow = bblock + static_cast<std::size_t>(kk) * ldb;
      for (int c = 0; c < nr; ++c) dst[c] = brow[c];
      for (int c = nr; c < NR; ++c) dst[c] = 0.0f;
      dst += NR;
    }
  }
}

/// Row-major [n,k] x [k,m] -> [n,m], out fully overwritten. `Micro` supplies
/// the register tile:
///   Micro::MR, Micro::NR     — tile shape
///   Micro::run(kc, pa, pb, c, ldc, accumulate)
///     — one MR x NR tile over kc packed depths; stores into c (row stride
///       ldc), adding onto the existing values when `accumulate`.
template <class Micro>
void gemm_blocked(const float* a, const float* b, float* out, int n, int k, int m) {
  constexpr int MR = Micro::MR;
  constexpr int NR = Micro::NR;
  if (n == 0 || m == 0) return;
  if (k == 0) {
    std::fill(out, out + static_cast<std::size_t>(n) * m, 0.0f);
    return;
  }

  const int kc_max = std::min(kGemmKC, k);
  const int mc_max = std::min(kGemmMC, n);
  const int nc_max = std::min(kGemmNC, m);
  const auto round_up = [](int v, int q) { return (v + q - 1) / q * q; };
  // FloatVec scratch: 64-byte aligned (the SIMD micro-kernels load packed
  // B panels with aligned loads).
  FloatVec pa_buf(static_cast<std::size_t>(round_up(mc_max, MR)) * kc_max);
  FloatVec pb_buf(static_cast<std::size_t>(round_up(nc_max, NR)) * kc_max);

  for (int jc = 0; jc < m; jc += kGemmNC) {
    const int nc = std::min(kGemmNC, m - jc);
    for (int pc = 0; pc < k; pc += kGemmKC) {
      const int kc = std::min(kGemmKC, k - pc);
      const bool accumulate = pc > 0;
      pack_b<NR>(b + static_cast<std::size_t>(pc) * m + jc, m, kc, nc, pb_buf.data());
      for (int ic = 0; ic < n; ic += kGemmMC) {
        const int mc = std::min(kGemmMC, n - ic);
        pack_a<MR>(a + static_cast<std::size_t>(ic) * k + pc, k, mc, kc, pa_buf.data());
        for (int jr = 0; jr < nc; jr += NR) {
          const int nr = std::min(NR, nc - jr);
          const float* pb = pb_buf.data() + static_cast<std::size_t>(jr) * kc;
          for (int ir = 0; ir < mc; ir += MR) {
            const int mr = std::min(MR, mc - ir);
            const float* pa = pa_buf.data() + static_cast<std::size_t>(ir) * kc;
            float* c = out + static_cast<std::size_t>(ic + ir) * m + jc + jr;
            if (mr == MR && nr == NR) {
              Micro::run(kc, pa, pb, c, m, accumulate);
            } else {
              // Ragged edge: compute the full zero-padded tile off to the
              // side, then fold only the live mr x nr corner into C.
              alignas(64) float tile[MR * NR];
              Micro::run(kc, pa, pb, tile, NR, false);
              for (int r = 0; r < mr; ++r) {
                float* crow = c + static_cast<std::size_t>(r) * m;
                const float* trow = tile + r * NR;
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
