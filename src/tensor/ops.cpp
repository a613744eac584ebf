#include "tensor/ops.h"

#include "tensor/backend.h"
#include "tensor/fastmath.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace g2p {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

/// Accumulate `src` into parent's grad buffer (allocating it first).
void accumulate(const std::shared_ptr<TensorImpl>& parent, const FloatVec& src) {
  parent->ensure_grad();
  for (std::size_t i = 0; i < src.size(); ++i) parent->grad[i] += src[i];
}

int rows_of(const Tensor& t) { return t.rank() == 1 ? 1 : t.dim(0); }
int cols_of(const Tensor& t) { return t.rank() == 1 ? t.dim(0) : t.dim(1); }

// The dense forward kernels (backend::matmul_auto, row_dot, the segment
// inner loops) live behind the runtime-dispatched backend table in
// tensor/backend.{h,cpp}: AVX2+FMA where the CPU has it, the tuned scalar
// kernels otherwise. ops.cpp keeps shape checks, autograd taping, and the
// backward passes.

/// Backward of out = a · b ([n,k] x [k,m]): dA += dOut · B^T, then
/// dB += A^T · dOut.
void matmul_backward(const FloatVec& grad, TensorImpl& a, TensorImpl& b, int n, int k, int m) {
  a.ensure_grad();
  b.ensure_grad();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      const float g = grad[static_cast<std::size_t>(i) * m + j];
      if (g == 0.0f) continue;
      for (int kk = 0; kk < k; ++kk) {
        a.grad[static_cast<std::size_t>(i) * k + kk] +=
            g * b.data[static_cast<std::size_t>(kk) * m + j];
      }
    }
  }
  for (int kk = 0; kk < k; ++kk) {
    for (int i = 0; i < n; ++i) {
      const float av = a.data[static_cast<std::size_t>(i) * k + kk];
      if (av == 0.0f) continue;
      const std::size_t grow = static_cast<std::size_t>(i) * m;
      const std::size_t brow = static_cast<std::size_t>(kk) * m;
      for (int j = 0; j < m; ++j) b.grad[brow + j] += av * grad[grow + j];
    }
  }
}

/// Validate all segment ids in one pass (a branch-free min/max scan the
/// compiler vectorizes) so the hot per-row kernels can run check-free —
/// the previous per-element checks branched on every edge row.
void validate_segment_ids(std::span<const int> segment, int num_segments, const char* op) {
  int lo = 0, hi = -1;
  for (const int s : segment) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  if (lo < 0 || hi >= num_segments) {
    throw std::out_of_range(std::string(op) + ": bad segment id");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  FloatVec out(a.numel());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a.data()[i] + b.data()[i];
  auto pa = a.impl();
  auto pb = b.impl();
  return make_result(a.shape(), std::move(out), {a, b}, [pa, pb](const TensorImpl& self) {
    accumulate(pa, self.grad);
    accumulate(pb, self.grad);
  });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  FloatVec out(a.numel());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a.data()[i] * b.data()[i];
  auto pa = a.impl();
  auto pb = b.impl();
  return make_result(a.shape(), std::move(out), {a, b}, [pa, pb](const TensorImpl& self) {
    pa->ensure_grad();
    pb->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      pa->grad[i] += self.grad[i] * pb->data[i];
      pb->grad[i] += self.grad[i] * pa->data[i];
    }
  });
}

Tensor scale(const Tensor& a, float factor) {
  FloatVec out(a.numel());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a.data()[i] * factor;
  auto pa = a.impl();
  return make_result(a.shape(), std::move(out), {a}, [pa, factor](const TensorImpl& self) {
    pa->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) pa->grad[i] += self.grad[i] * factor;
  });
}

Tensor add_rowvec(const Tensor& x, const Tensor& bias) {
  if (x.rank() != 2 || bias.rank() != 1 || x.dim(1) != bias.dim(0)) {
    throw std::invalid_argument("add_rowvec: need [N,D] + [D]");
  }
  const int n = x.dim(0);
  const int d = x.dim(1);
  FloatVec out(x.numel());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) {
      out[static_cast<std::size_t>(i) * d + j] =
          x.data()[static_cast<std::size_t>(i) * d + j] + bias.data()[static_cast<std::size_t>(j)];
    }
  }
  auto px = x.impl();
  auto pb = bias.impl();
  return make_result(x.shape(), std::move(out), {x, bias},
                     [px, pb, n, d](const TensorImpl& self) {
                       px->ensure_grad();
                       pb->ensure_grad();
                       for (int i = 0; i < n; ++i) {
                         for (int j = 0; j < d; ++j) {
                           const float g = self.grad[static_cast<std::size_t>(i) * d + j];
                           px->grad[static_cast<std::size_t>(i) * d + j] += g;
                           pb->grad[static_cast<std::size_t>(j)] += g;
                         }
                       }
                     });
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

Tensor gelu(const Tensor& x) {
  // tanh approximation: 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))),
  // computed by the backend (lane-parallel exp on SIMD targets — GELU is
  // the single hottest elementwise op in the batched forward).
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  FloatVec out(x.numel());
  backend::active().gelu(x.data().data(), out.data(), static_cast<int>(x.numel()));
  auto px = x.impl();
  return make_result(x.shape(), std::move(out), {x}, [px](const TensorImpl& self) {
    px->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      const float v = px->data[i];
      const float u = kC * (v + kA * v * v * v);
      const float t = fast_tanhf(u);
      const float du = kC * (1.0f + 3.0f * kA * v * v);
      const float dgelu = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
      px->grad[i] += self.grad[i] * dgelu;
    }
  });
}

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " + shape_to_string(a.shape()) +
                                " x " + shape_to_string(b.shape()));
  }
  const int n = a.dim(0), k = a.dim(1), m = b.dim(1);
  FloatVec out(static_cast<std::size_t>(n) * m);
  backend::matmul_auto(a.data().data(), b.data().data(), out.data(), n, k, m);
  auto pa = a.impl();
  auto pb = b.impl();
  return make_result({n, m}, std::move(out), {a, b}, [pa, pb, n, k, m](const TensorImpl& self) {
    matmul_backward(self.grad, *pa, *pb, n, k, m);
  });
}

Tensor matmul_bias(const Tensor& x, const Tensor& w, const Tensor& bias) {
  if (x.rank() != 2 || w.rank() != 2 || x.dim(1) != w.dim(0) || bias.rank() != 1 ||
      bias.dim(0) != w.dim(1)) {
    throw std::invalid_argument("matmul_bias: incompatible shapes");
  }
  const int n = x.dim(0), k = x.dim(1), m = w.dim(1);
  FloatVec out(static_cast<std::size_t>(n) * m);
  backend::matmul_auto(x.data().data(), w.data().data(), out.data(), n, k, m);
  const float* bptr = bias.data().data();
  for (int i = 0; i < n; ++i) {
    float* orow = out.data() + static_cast<std::size_t>(i) * m;
    for (int j = 0; j < m; ++j) orow[j] += bptr[j];
  }
  if (!grad_enabled()) return make_result({n, m}, std::move(out), {}, nullptr);
  auto px = x.impl();
  auto pw = w.impl();
  auto pb = bias.impl();
  return make_result(
      {n, m}, std::move(out), {x, w, bias}, [px, pw, pb, n, k, m](const TensorImpl& self) {
        matmul_backward(self.grad, *px, *pw, n, k, m);
        // db = column sums of dOut
        pb->ensure_grad();
        for (int i = 0; i < n; ++i) {
          const std::size_t grow = static_cast<std::size_t>(i) * m;
          for (int j = 0; j < m; ++j) {
            pb->grad[static_cast<std::size_t>(j)] += self.grad[grow + j];
          }
        }
      });
}

Tensor transpose(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("transpose: rank-2 only");
  const int n = a.dim(0), m = a.dim(1);
  FloatVec out(a.numel());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      out[static_cast<std::size_t>(j) * n + i] = a.data()[static_cast<std::size_t>(i) * m + j];
    }
  }
  auto pa = a.impl();
  return make_result({m, n}, std::move(out), {a}, [pa, n, m](const TensorImpl& self) {
    pa->ensure_grad();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        pa->grad[static_cast<std::size_t>(i) * m + j] +=
            self.grad[static_cast<std::size_t>(j) * n + i];
      }
    }
  });
}

Tensor reshape(const Tensor& a, Shape new_shape) {
  if (shape_numel(new_shape) != a.numel()) {
    throw std::invalid_argument("reshape: numel mismatch");
  }
  auto pa = a.impl();
  FloatVec out = a.data();
  return make_result(std::move(new_shape), std::move(out), {a}, [pa](const TensorImpl& self) {
    accumulate(pa, self.grad);
  });
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Tensor sum_all(const Tensor& x) {
  float total = 0.0f;
  for (float v : x.data()) total += v;
  auto px = x.impl();
  return make_result({1}, {total}, {x}, [px](const TensorImpl& self) {
    px->ensure_grad();
    for (auto& g : px->grad) g += self.grad[0];
  });
}

// ---------------------------------------------------------------------------
// Softmax & losses
// ---------------------------------------------------------------------------

Tensor softmax_rows(const Tensor& x) {
  if (x.rank() != 2) throw std::invalid_argument("softmax_rows: rank-2 only");
  const int n = x.dim(0), c = x.dim(1);
  FloatVec out(x.numel());
  for (int i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * c;
    float mx = x.data()[row];
    for (int j = 1; j < c; ++j) mx = std::max(mx, x.data()[row + j]);
    float denom = 0.0f;
    for (int j = 0; j < c; ++j) {
      out[row + j] = fast_expf(x.data()[row + j] - mx);
      denom += out[row + j];
    }
    for (int j = 0; j < c; ++j) out[row + j] /= denom;
  }
  auto px = x.impl();
  return make_result(x.shape(), std::move(out), {x}, [px, n, c](const TensorImpl& self) {
    px->ensure_grad();
    for (int i = 0; i < n; ++i) {
      const std::size_t row = static_cast<std::size_t>(i) * c;
      float dot = 0.0f;
      for (int j = 0; j < c; ++j) dot += self.grad[row + j] * self.data[row + j];
      for (int j = 0; j < c; ++j) {
        px->grad[row + j] += self.data[row + j] * (self.grad[row + j] - dot);
      }
    }
  });
}

Tensor cross_entropy(const Tensor& logits, std::span<const int> labels) {
  if (logits.rank() != 2) throw std::invalid_argument("cross_entropy: rank-2 logits");
  const int n = logits.dim(0), c = logits.dim(1);
  if (static_cast<int>(labels.size()) != n) {
    throw std::invalid_argument("cross_entropy: labels size != batch");
  }
  // Forward: mean of -log softmax[label].
  auto probs = std::make_shared<std::vector<float>>(logits.numel());
  std::vector<int> labels_copy(labels.begin(), labels.end());
  float loss = 0.0f;
  for (int i = 0; i < n; ++i) {
    const int label = labels_copy[static_cast<std::size_t>(i)];
    if (label < 0 || label >= c) throw std::invalid_argument("cross_entropy: label out of range");
    const std::size_t row = static_cast<std::size_t>(i) * c;
    float mx = logits.data()[row];
    for (int j = 1; j < c; ++j) mx = std::max(mx, logits.data()[row + j]);
    float denom = 0.0f;
    for (int j = 0; j < c; ++j) {
      (*probs)[row + j] = std::exp(logits.data()[row + j] - mx);
      denom += (*probs)[row + j];
    }
    for (int j = 0; j < c; ++j) (*probs)[row + j] /= denom;
    loss -= std::log(std::max((*probs)[row + static_cast<std::size_t>(label)], 1e-12f));
  }
  const float count = n > 0 ? static_cast<float>(n) : 1.0f;
  loss /= count;

  auto pl = logits.impl();
  return make_result(
      {1}, {loss}, {logits}, [pl, probs, labels_copy, n, c, count](const TensorImpl& self) {
        pl->ensure_grad();
        const float gscale = self.grad[0] / count;
        for (int i = 0; i < n; ++i) {
          const int label = labels_copy[static_cast<std::size_t>(i)];
          const std::size_t row = static_cast<std::size_t>(i) * c;
          for (int j = 0; j < c; ++j) {
            const float indicator = (j == label) ? 1.0f : 0.0f;
            pl->grad[row + j] += gscale * ((*probs)[row + j] - indicator);
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Irregular / graph ops
// ---------------------------------------------------------------------------

Tensor index_select_rows(const Tensor& x, std::span<const int> index) {
  if (x.rank() != 2) throw std::invalid_argument("index_select_rows: rank-2 only");
  const int n = x.dim(0), d = x.dim(1);
  FloatVec out(index.size() * static_cast<std::size_t>(d));
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (index[i] < 0 || index[i] >= n) throw std::out_of_range("index_select_rows: bad index");
    std::copy_n(x.data().begin() + static_cast<std::ptrdiff_t>(index[i]) * d, d,
                out.begin() + static_cast<std::ptrdiff_t>(i) * d);
  }
  if (!grad_enabled()) {
    return make_result({static_cast<int>(index.size()), d}, std::move(out), {}, nullptr);
  }
  std::vector<int> idx(index.begin(), index.end());
  auto px = x.impl();
  return make_result({static_cast<int>(idx.size()), d}, std::move(out), {x},
                     [px, idx, d](const TensorImpl& self) {
                       px->ensure_grad();
                       for (std::size_t i = 0; i < idx.size(); ++i) {
                         const std::size_t src = i * static_cast<std::size_t>(d);
                         const std::size_t dst = static_cast<std::size_t>(idx[i]) * d;
                         for (int j = 0; j < d; ++j) px->grad[dst + j] += self.grad[src + j];
                       }
                     });
}

Tensor segment_softmax(const Tensor& logits, std::span<const int> segment, int num_segments) {
  if (logits.rank() != 1) throw std::invalid_argument("segment_softmax: rank-1 logits");
  const int e = logits.dim(0);
  if (static_cast<int>(segment.size()) != e) {
    throw std::invalid_argument("segment_softmax: segment size != entries");
  }
  // Numerically stable per-segment softmax: ids validated once, then the
  // backend's check-free kernel runs the max/exp/normalize passes.
  validate_segment_ids(segment, num_segments, "segment_softmax");
  FloatVec out(static_cast<std::size_t>(e));
  backend::active().segment_softmax(logits.data().data(), segment.data(), e, num_segments,
                                    out.data());
  if (!grad_enabled()) return make_result({e}, std::move(out), {}, nullptr);
  std::vector<int> seg(segment.begin(), segment.end());
  auto pl = logits.impl();
  return make_result(
      {e}, std::move(out), {logits}, [pl, seg, num_segments](const TensorImpl& self) {
        pl->ensure_grad();
        // d logits_i = y_i * (g_i - sum_{j in seg} g_j y_j)
        std::vector<float> seg_dot(static_cast<std::size_t>(num_segments), 0.0f);
        for (std::size_t i = 0; i < seg.size(); ++i) {
          seg_dot[static_cast<std::size_t>(seg[i])] += self.grad[i] * self.data[i];
        }
        for (std::size_t i = 0; i < seg.size(); ++i) {
          pl->grad[i] +=
              self.data[i] * (self.grad[i] - seg_dot[static_cast<std::size_t>(seg[i])]);
        }
      });
}

Tensor segment_sum_rows(const Tensor& x, std::span<const int> segment, int num_segments) {
  if (x.rank() != 2) throw std::invalid_argument("segment_sum_rows: rank-2 only");
  const int n = x.dim(0), d = x.dim(1);
  if (static_cast<int>(segment.size()) != n) {
    throw std::invalid_argument("segment_sum_rows: segment size != rows");
  }
  validate_segment_ids(segment, num_segments, "segment_sum_rows");
  FloatVec out(static_cast<std::size_t>(num_segments) * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    const std::size_t src = static_cast<std::size_t>(i) * d;
    const std::size_t dst = static_cast<std::size_t>(segment[static_cast<std::size_t>(i)]) * d;
    for (int j = 0; j < d; ++j) out[dst + j] += x.data()[src + j];
  }
  if (!grad_enabled()) return make_result({num_segments, d}, std::move(out), {}, nullptr);
  std::vector<int> seg(segment.begin(), segment.end());
  auto px = x.impl();
  return make_result({num_segments, d}, std::move(out), {x},
                     [px, seg, d](const TensorImpl& self) {
                       px->ensure_grad();
                       for (std::size_t i = 0; i < seg.size(); ++i) {
                         const std::size_t src = static_cast<std::size_t>(seg[i]) * d;
                         const std::size_t dst = i * static_cast<std::size_t>(d);
                         for (int j = 0; j < d; ++j) {
                           px->grad[dst + j] += self.grad[src + j];
                         }
                       }
                     });
}

Tensor segment_mean_rows(const Tensor& x, std::span<const int> segment, int num_segments) {
  if (x.rank() != 2) throw std::invalid_argument("segment_mean_rows: rank-2 only");
  const int n = x.dim(0), d = x.dim(1);
  if (static_cast<int>(segment.size()) != n) {
    throw std::invalid_argument("segment_mean_rows: segment size != rows");
  }
  std::vector<float> counts(static_cast<std::size_t>(num_segments), 0.0f);
  for (int i = 0; i < n; ++i) {
    if (segment[static_cast<std::size_t>(i)] < 0 ||
        segment[static_cast<std::size_t>(i)] >= num_segments) {
      throw std::out_of_range("segment_mean_rows: bad segment id");
    }
    counts[static_cast<std::size_t>(segment[static_cast<std::size_t>(i)])] += 1.0f;
  }
  FloatVec out(static_cast<std::size_t>(num_segments) * d, 0.0f);
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(segment[static_cast<std::size_t>(i)]);
    const float inv = 1.0f / std::max(counts[s], 1.0f);
    const std::size_t src = static_cast<std::size_t>(i) * d;
    const std::size_t dst = s * static_cast<std::size_t>(d);
    for (int j = 0; j < d; ++j) out[dst + j] += x.data()[src + j] * inv;
  }
  if (!grad_enabled()) return make_result({num_segments, d}, std::move(out), {}, nullptr);
  std::vector<int> seg(segment.begin(), segment.end());
  auto px = x.impl();
  auto counts_shared = std::make_shared<std::vector<float>>(std::move(counts));
  return make_result({num_segments, d}, std::move(out), {x},
                     [px, seg, counts_shared, d](const TensorImpl& self) {
                       px->ensure_grad();
                       for (std::size_t i = 0; i < seg.size(); ++i) {
                         const auto s = static_cast<std::size_t>(seg[i]);
                         const float inv = 1.0f / std::max((*counts_shared)[s], 1.0f);
                         const std::size_t src = s * static_cast<std::size_t>(d);
                         const std::size_t dst = i * static_cast<std::size_t>(d);
                         for (int j = 0; j < d; ++j) {
                           px->grad[dst + j] += self.grad[src + j] * inv;
                         }
                       }
                     });
}

Tensor segment_weighted_sum_rows(const Tensor& x, const Tensor& w,
                                 std::span<const int> segment, int num_segments) {
  if (x.rank() != 2 || w.rank() != 1 || x.dim(0) != w.dim(0)) {
    throw std::invalid_argument("segment_weighted_sum_rows: need [N,D] and [N]");
  }
  const int n = x.dim(0), d = x.dim(1);
  if (static_cast<int>(segment.size()) != n) {
    throw std::invalid_argument("segment_weighted_sum_rows: segment size != rows");
  }
  validate_segment_ids(segment, num_segments, "segment_weighted_sum_rows");
  FloatVec out(static_cast<std::size_t>(num_segments) * d);  // kernel zero-fills
  backend::active().segment_weighted_sum_rows(x.data().data(), w.data().data(),
                                              segment.data(), n, d, num_segments, out.data());
  if (!grad_enabled()) return make_result({num_segments, d}, std::move(out), {}, nullptr);
  std::vector<int> seg(segment.begin(), segment.end());
  auto px = x.impl();
  auto pw = w.impl();
  return make_result({num_segments, d}, std::move(out), {x, w},
                     [px, pw, seg, d](const TensorImpl& self) {
                       px->ensure_grad();
                       pw->ensure_grad();
                       for (std::size_t i = 0; i < seg.size(); ++i) {
                         const std::size_t src = static_cast<std::size_t>(seg[i]) * d;
                         const std::size_t dst = i * static_cast<std::size_t>(d);
                         const float wi = pw->data[i];
                         float dot = 0.0f;
                         for (int j = 0; j < d; ++j) {
                           px->grad[dst + j] += self.grad[src + j] * wi;
                           dot += self.grad[src + j] * px->data[dst + j];
                         }
                         pw->grad[i] += dot;
                       }
                     });
}

Tensor scale_rows(const Tensor& x, const Tensor& w) {
  if (x.rank() != 2 || w.rank() != 1 || x.dim(0) != w.dim(0)) {
    throw std::invalid_argument("scale_rows: need [N,D] and [N]");
  }
  const int n = x.dim(0), d = x.dim(1);
  FloatVec out(x.numel());
  for (int i = 0; i < n; ++i) {
    const float wi = w.data()[static_cast<std::size_t>(i)];
    const std::size_t row = static_cast<std::size_t>(i) * d;
    for (int j = 0; j < d; ++j) out[row + j] = x.data()[row + j] * wi;
  }
  auto px = x.impl();
  auto pw = w.impl();
  return make_result(x.shape(), std::move(out), {x, w}, [px, pw, n, d](const TensorImpl& self) {
    px->ensure_grad();
    pw->ensure_grad();
    for (int i = 0; i < n; ++i) {
      const std::size_t row = static_cast<std::size_t>(i) * d;
      const float wi = pw->data[static_cast<std::size_t>(i)];
      float dot = 0.0f;
      for (int j = 0; j < d; ++j) {
        px->grad[row + j] += self.grad[row + j] * wi;
        dot += self.grad[row + j] * px->data[row + j];
      }
      pw->grad[static_cast<std::size_t>(i)] += dot;
    }
  });
}

Tensor row_dot(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "row_dot");
  if (a.rank() != 2) throw std::invalid_argument("row_dot: rank-2 only");
  const int n = a.dim(0), d = a.dim(1);
  FloatVec out(static_cast<std::size_t>(n));
  backend::active().row_dot(a.data().data(), b.data().data(), out.data(), n, d);
  auto pa = a.impl();
  auto pb = b.impl();
  return make_result({n}, std::move(out), {a, b}, [pa, pb, n, d](const TensorImpl& self) {
    pa->ensure_grad();
    pb->ensure_grad();
    for (int i = 0; i < n; ++i) {
      const float g = self.grad[static_cast<std::size_t>(i)];
      const std::size_t row = static_cast<std::size_t>(i) * d;
      for (int j = 0; j < d; ++j) {
        pa->grad[row + j] += g * pb->data[row + j];
        pb->grad[row + j] += g * pa->data[row + j];
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Shape surgery
// ---------------------------------------------------------------------------

Tensor col_slice(const Tensor& x, int start, int len) {
  if (x.rank() != 2) throw std::invalid_argument("col_slice: rank-2 only");
  const int n = x.dim(0), d = x.dim(1);
  if (start < 0 || len <= 0 || start + len > d) {
    throw std::out_of_range("col_slice: bad range");
  }
  FloatVec out(static_cast<std::size_t>(n) * len);
  for (int i = 0; i < n; ++i) {
    std::copy_n(x.data().begin() + static_cast<std::ptrdiff_t>(i) * d + start, len,
                out.begin() + static_cast<std::ptrdiff_t>(i) * len);
  }
  auto px = x.impl();
  return make_result({n, len}, std::move(out), {x}, [px, n, d, start, len](const TensorImpl& self) {
    px->ensure_grad();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < len; ++j) {
        px->grad[static_cast<std::size_t>(i) * d + start + j] +=
            self.grad[static_cast<std::size_t>(i) * len + j];
      }
    }
  });
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_cols: no parts");
  const int n = parts[0].dim(0);
  int total = 0;
  for (const auto& p : parts) {
    if (p.rank() != 2 || p.dim(0) != n) throw std::invalid_argument("concat_cols: shape mismatch");
    total += p.dim(1);
  }
  FloatVec out(static_cast<std::size_t>(n) * total);
  int offset = 0;
  for (const auto& p : parts) {
    const int d = p.dim(1);
    for (int i = 0; i < n; ++i) {
      std::copy_n(p.data().begin() + static_cast<std::ptrdiff_t>(i) * d, d,
                  out.begin() + static_cast<std::ptrdiff_t>(i) * total + offset);
    }
    offset += d;
  }
  std::vector<std::shared_ptr<TensorImpl>> impls;
  std::vector<int> widths;
  for (const auto& p : parts) {
    impls.push_back(p.impl());
    widths.push_back(p.dim(1));
  }
  return make_result({n, total}, std::move(out), parts,
                     [impls, widths, n, total](const TensorImpl& self) {
                       int offset = 0;
                       for (std::size_t pi = 0; pi < impls.size(); ++pi) {
                         impls[pi]->ensure_grad();
                         const int d = widths[pi];
                         for (int i = 0; i < n; ++i) {
                           for (int j = 0; j < d; ++j) {
                             impls[pi]->grad[static_cast<std::size_t>(i) * d + j] +=
                                 self.grad[static_cast<std::size_t>(i) * total + offset + j];
                           }
                         }
                         offset += d;
                       }
                     });
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_rows: no parts");
  const int d = parts[0].dim(1);
  int total = 0;
  for (const auto& p : parts) {
    if (p.rank() != 2 || p.dim(1) != d) throw std::invalid_argument("concat_rows: shape mismatch");
    total += p.dim(0);
  }
  FloatVec out;
  out.reserve(static_cast<std::size_t>(total) * d);
  for (const auto& p : parts) out.insert(out.end(), p.data().begin(), p.data().end());
  std::vector<std::shared_ptr<TensorImpl>> impls;
  std::vector<int> heights;
  for (const auto& p : parts) {
    impls.push_back(p.impl());
    heights.push_back(p.dim(0));
  }
  return make_result({total, d}, std::move(out), parts,
                     [impls, heights, d](const TensorImpl& self) {
                       std::size_t offset = 0;
                       for (std::size_t pi = 0; pi < impls.size(); ++pi) {
                         impls[pi]->ensure_grad();
                         const std::size_t count =
                             static_cast<std::size_t>(heights[pi]) * static_cast<std::size_t>(d);
                         for (std::size_t i = 0; i < count; ++i) {
                           impls[pi]->grad[i] += self.grad[offset + i];
                         }
                         offset += count;
                       }
                     });
}

// ---------------------------------------------------------------------------
// Normalization
// ---------------------------------------------------------------------------

Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps) {
  if (x.rank() != 2 || gamma.rank() != 1 || beta.rank() != 1 || gamma.dim(0) != x.dim(1) ||
      beta.dim(0) != x.dim(1)) {
    throw std::invalid_argument("layer_norm: need [N,D], [D], [D]");
  }
  const int n = x.dim(0), d = x.dim(1);
  const bool taped = grad_enabled();
  // The backward pass needs the normalized rows and 1/std; skip saving them
  // in inference mode.
  auto normalized =
      taped ? std::make_shared<std::vector<float>>(x.numel()) : nullptr;
  auto inv_std =
      taped ? std::make_shared<std::vector<float>>(static_cast<std::size_t>(n)) : nullptr;
  FloatVec out(x.numel());
  for (int i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * d;
    const auto [mean, istd] = backend::row_moments(x.data().data() + row, d, eps);
    if (taped) (*inv_std)[static_cast<std::size_t>(i)] = istd;
    for (int j = 0; j < d; ++j) {
      const float y = (x.data()[row + j] - mean) * istd;
      if (taped) (*normalized)[row + j] = y;
      out[row + j] = y * gamma.data()[static_cast<std::size_t>(j)] +
                     beta.data()[static_cast<std::size_t>(j)];
    }
  }
  if (!taped) return make_result(x.shape(), std::move(out), {}, nullptr);
  auto px = x.impl();
  auto pg = gamma.impl();
  auto pb = beta.impl();
  return make_result(
      x.shape(), std::move(out), {x, gamma, beta},
      [px, pg, pb, normalized, inv_std, n, d](const TensorImpl& self) {
        px->ensure_grad();
        pg->ensure_grad();
        pb->ensure_grad();
        for (int i = 0; i < n; ++i) {
          const std::size_t row = static_cast<std::size_t>(i) * d;
          const float istd = (*inv_std)[static_cast<std::size_t>(i)];
          float mean_gy = 0.0f;   // mean over features of gamma*g
          float mean_gyy = 0.0f;  // mean of gamma*g*y
          for (int j = 0; j < d; ++j) {
            const float gy = self.grad[row + j] * pg->data[static_cast<std::size_t>(j)];
            mean_gy += gy;
            mean_gyy += gy * (*normalized)[row + j];
          }
          mean_gy /= static_cast<float>(d);
          mean_gyy /= static_cast<float>(d);
          for (int j = 0; j < d; ++j) {
            const float gy = self.grad[row + j] * pg->data[static_cast<std::size_t>(j)];
            const float y = (*normalized)[row + j];
            px->grad[row + j] += (gy - mean_gy - y * mean_gyy) * istd;
            pg->grad[static_cast<std::size_t>(j)] += self.grad[row + j] * y;
            pb->grad[static_cast<std::size_t>(j)] += self.grad[row + j];
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Non-differentiable helpers
// ---------------------------------------------------------------------------

std::vector<int> argmax_rows(const Tensor& x) {
  const int n = rows_of(x);
  const int c = cols_of(x);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::size_t row = static_cast<std::size_t>(i) * c;
    int best = 0;
    for (int j = 1; j < c; ++j) {
      if (x.data()[row + j] > x.data()[row + best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

float grad_l2_norm(const std::vector<Tensor>& params) {
  double total = 0.0;
  for (const auto& p : params) {
    for (float g : p.grad()) total += static_cast<double>(g) * g;
  }
  return static_cast<float>(std::sqrt(total));
}

}  // namespace g2p
