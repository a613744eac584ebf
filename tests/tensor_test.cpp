#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "support/rng.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "tensor/tensor.h"

namespace g2p {
namespace {

/// Central-difference gradient check: builds loss = f(leaves) twice per
/// perturbed entry and compares with autograd.
void grad_check(const std::vector<Tensor>& leaves,
                const std::function<Tensor()>& loss_fn, float tol = 2e-2f,
                float eps = 1e-3f) {
  Tensor loss = loss_fn();
  ASSERT_EQ(loss.numel(), 1u);
  loss.backward();

  for (const auto& leaf : leaves) {
    FloatVec analytic = leaf.grad();
    ASSERT_EQ(analytic.size(), leaf.numel());
    for (std::size_t i = 0; i < leaf.numel(); ++i) {
      auto& cell = const_cast<Tensor&>(leaf).data()[i];
      const float saved = cell;
      cell = saved + eps;
      const float up = loss_fn().item();
      cell = saved - eps;
      const float down = loss_fn().item();
      cell = saved;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0f, std::fabs(numeric)))
          << "entry " << i;
    }
  }
}

Tensor make_rand(Shape shape, Rng& rng) {
  return Tensor::randn(std::move(shape), rng, 0.5f, /*requires_grad=*/true);
}

// ---- construction & basics --------------------------------------------------

TEST(Tensor, ZerosAndFull) {
  auto z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6u);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);
  auto f = Tensor::full({4}, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, FromVectorShapeMismatchThrows) {
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, AtIndexing) {
  auto t = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({1, 2}), 6.0f);
  EXPECT_THROW(t.at({2, 0}), std::out_of_range);
}

TEST(Tensor, ItemRequiresScalar) {
  auto t = Tensor::from_vector({2}, {1, 2});
  EXPECT_THROW(t.item(), std::logic_error);
  EXPECT_EQ(Tensor::scalar(7.0f).item(), 7.0f);
}

TEST(Tensor, BackwardRequiresScalar) {
  auto t = Tensor::from_vector({2}, {1, 2}, true);
  auto y = scale(t, 2.0f);
  EXPECT_THROW(y.backward(), std::logic_error);
}

TEST(Tensor, DetachCutsTape) {
  auto a = Tensor::from_vector({2}, {1, 2}, true);
  auto b = scale(a, 3.0f).detach();
  auto loss = sum_all(b);
  loss.backward();
  EXPECT_TRUE(a.grad().empty() ||
              (a.grad()[0] == 0.0f && a.grad()[1] == 0.0f));
}

// ---- forward values -----------------------------------------------------------

TEST(Ops, AddMulScaleForward) {
  auto a = Tensor::from_vector({3}, {1, 2, 3});
  auto b = Tensor::from_vector({3}, {10, 20, 30});
  EXPECT_EQ(add(a, b).data()[1], 22.0f);
  EXPECT_EQ(mul(a, b).data()[0], 10.0f);
  EXPECT_EQ(scale(b, -0.5f).data()[2], -15.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  auto a = Tensor::zeros({2, 2});
  auto b = Tensor::zeros({4});
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(Ops, MatmulForward) {
  auto a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  auto b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  auto c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Ops, TransposeForward) {
  auto a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  auto t = transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({2, 1}), 6.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(1);
  auto x = make_rand({4, 7}, rng);
  auto y = softmax_rows(x);
  for (int i = 0; i < 4; ++i) {
    float total = 0;
    for (int j = 0; j < 7; ++j) total += y.at({i, j});
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxNumericallyStableWithLargeLogits) {
  auto x = Tensor::from_vector({1, 3}, {1000.0f, 1001.0f, 999.0f});
  auto y = softmax_rows(x);
  EXPECT_FALSE(std::isnan(y.data()[0]));
  EXPECT_GT(y.at({0, 1}), y.at({0, 0}));
}

TEST(Ops, CrossEntropyMatchesManual) {
  auto logits = Tensor::from_vector({2, 2}, {2.0f, 0.0f, 0.0f, 3.0f});
  const std::vector<int> labels = {0, 1};
  const float loss = cross_entropy(logits, labels).item();
  const float l0 = -std::log(std::exp(2.0f) / (std::exp(2.0f) + 1.0f));
  const float l1 = -std::log(std::exp(3.0f) / (std::exp(3.0f) + 1.0f));
  EXPECT_NEAR(loss, (l0 + l1) / 2.0f, 1e-5f);
}

TEST(Ops, IndexSelectRowsForward) {
  auto x = Tensor::from_vector({3, 2}, {1, 2, 3, 4, 5, 6});
  const std::vector<int> idx = {2, 0, 2};
  auto y = index_select_rows(x, idx);
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  EXPECT_EQ(y.at({0, 0}), 5.0f);
  EXPECT_EQ(y.at({1, 1}), 2.0f);
  EXPECT_EQ(y.at({2, 0}), 5.0f);
}

TEST(Ops, SegmentSumRowsForward) {
  auto src = Tensor::from_vector({3, 2}, {1, 1, 2, 2, 3, 3});
  const std::vector<int> seg = {1, 1, 0};
  auto y = segment_sum_rows(src, seg, 3);
  EXPECT_EQ(y.at({0, 0}), 3.0f);
  EXPECT_EQ(y.at({1, 0}), 3.0f);
  EXPECT_EQ(y.at({1, 1}), 3.0f);
  EXPECT_EQ(y.at({2, 0}), 0.0f);  // empty segment
}

TEST(Ops, SegmentSoftmaxPerSegment) {
  auto logits = Tensor::from_vector({4}, {1.0f, 1.0f, 2.0f, 0.0f});
  const std::vector<int> seg = {0, 0, 1, 1};
  auto y = segment_softmax(logits, seg, 2);
  EXPECT_NEAR(y.data()[0], 0.5f, 1e-5f);
  EXPECT_NEAR(y.data()[1], 0.5f, 1e-5f);
  EXPECT_NEAR(y.data()[2] + y.data()[3], 1.0f, 1e-5f);
  EXPECT_GT(y.data()[2], y.data()[3]);
}

TEST(Ops, SegmentMeanRowsForward) {
  auto x = Tensor::from_vector({3, 2}, {2, 4, 4, 8, 10, 20});
  const std::vector<int> seg = {0, 0, 1};
  auto y = segment_mean_rows(x, seg, 3);
  EXPECT_EQ(y.at({0, 0}), 3.0f);
  EXPECT_EQ(y.at({0, 1}), 6.0f);
  EXPECT_EQ(y.at({1, 1}), 20.0f);
  EXPECT_EQ(y.at({2, 0}), 0.0f);  // empty segment
}

TEST(Ops, ColSliceAndConcatColsRoundTrip) {
  Rng rng(3);
  auto x = make_rand({3, 6}, rng);
  auto a = col_slice(x, 0, 2);
  auto b = col_slice(x, 2, 4);
  auto back = concat_cols({a, b});
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(back.data()[i], x.data()[i]);
}

TEST(Ops, ConcatRowsForward) {
  auto a = Tensor::from_vector({1, 2}, {1, 2});
  auto b = Tensor::from_vector({2, 2}, {3, 4, 5, 6});
  auto y = concat_rows({a, b});
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  EXPECT_EQ(y.at({2, 1}), 6.0f);
}

TEST(Ops, LayerNormRowStats) {
  Rng rng(5);
  auto x = make_rand({4, 8}, rng);
  auto gamma = Tensor::full({8}, 1.0f);
  auto beta = Tensor::zeros({8});
  auto y = layer_norm(x, gamma, beta);
  for (int i = 0; i < 4; ++i) {
    float mean = 0, var = 0;
    for (int j = 0; j < 8; ++j) mean += y.at({i, j});
    mean /= 8;
    for (int j = 0; j < 8; ++j) var += (y.at({i, j}) - mean) * (y.at({i, j}) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(Ops, ArgmaxRows) {
  auto x = Tensor::from_vector({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = argmax_rows(x);
  EXPECT_EQ(idx, (std::vector<int>{1, 0}));
}

// ---- gradient checks ----------------------------------------------------------

TEST(Grad, AddMulChain) {
  Rng rng(11);
  auto a = make_rand({2, 3}, rng);
  auto b = make_rand({2, 3}, rng);
  grad_check({a, b}, [&] { return sum_all(mul(add(a, b), b)); });
}

TEST(Grad, ScaledDifference) {
  Rng rng(12);
  auto a = make_rand({5}, rng);
  auto b = make_rand({5}, rng);
  grad_check({a, b}, [&] { return sum_all(scale(add(a, scale(b, -1.0f)), 3.0f)); });
}

TEST(Grad, Matmul) {
  Rng rng(13);
  auto a = make_rand({3, 4}, rng);
  auto b = make_rand({4, 2}, rng);
  grad_check({a, b}, [&] { return sum_all(matmul(a, b)); });
}

TEST(Grad, MatmulThroughNonlinearity) {
  Rng rng(14);
  auto a = make_rand({2, 3}, rng);
  auto b = make_rand({3, 3}, rng);
  grad_check({a, b}, [&] { return scale(sum_all(gelu(matmul(a, b))), 1.0f / 6.0f); });
}

TEST(Grad, AddRowvecBias) {
  Rng rng(15);
  auto x = make_rand({4, 3}, rng);
  auto bias = make_rand({3}, rng);
  grad_check({x, bias}, [&] { return sum_all(gelu(add_rowvec(x, bias))); });
}

TEST(Grad, Gelu) {
  Rng rng(16);
  auto x = make_rand({6}, rng);
  grad_check({x}, [&] { return sum_all(gelu(x)); });
}

TEST(Grad, SoftmaxRows) {
  Rng rng(17);
  auto x = make_rand({3, 4}, rng);
  auto w = Tensor::randn({3, 4}, rng, 1.0f);  // fixed mixing weights
  grad_check({x}, [&] { return sum_all(mul(softmax_rows(x), w)); });
}

TEST(Grad, CrossEntropy) {
  Rng rng(19);
  auto logits = make_rand({5, 3}, rng);
  const std::vector<int> labels = {0, 2, 1, 1, 0};
  grad_check({logits}, [&] { return cross_entropy(logits, labels); });
}

TEST(Grad, IndexSelectRows) {
  Rng rng(21);
  auto x = make_rand({4, 3}, rng);
  const std::vector<int> idx = {3, 1, 1, 0};
  auto w = Tensor::randn({4, 3}, rng, 1.0f);
  grad_check({x}, [&] { return sum_all(mul(index_select_rows(x, idx), w)); });
}

TEST(Grad, SegmentSoftmax) {
  Rng rng(23);
  auto logits = make_rand({6}, rng);
  const std::vector<int> seg = {0, 0, 1, 1, 1, 2};
  auto w = Tensor::randn({6}, rng, 1.0f);
  grad_check({logits}, [&] { return sum_all(mul(segment_softmax(logits, seg, 3), w)); });
}

TEST(Grad, MatmulBias) {
  Rng rng(26);
  auto x = make_rand({4, 3}, rng);
  auto w = make_rand({3, 2}, rng);
  auto b = make_rand({2}, rng);
  grad_check({x, w, b}, [&] { return sum_all(mul(matmul_bias(x, w, b), matmul_bias(x, w, b))); });
}

TEST(Grad, SegmentWeightedSumRows) {
  Rng rng(28);
  auto x = make_rand({5, 2}, rng);
  auto w = make_rand({5}, rng);
  const std::vector<int> seg = {0, 2, 1, 2, 0};
  auto y = Tensor::randn({3, 2}, rng, 1.0f);
  grad_check({x, w}, [&] {
    return sum_all(mul(segment_weighted_sum_rows(x, w, seg, 3), y));
  });
}

TEST(Ops, MatmulBiasMatchesComposite) {
  Rng rng(29);
  auto x = Tensor::randn({3, 4}, rng);
  auto w = Tensor::randn({4, 2}, rng);
  auto b = Tensor::randn({2}, rng);
  auto fused = matmul_bias(x, w, b);
  auto composite = add_rowvec(matmul(x, w), b);
  for (std::size_t i = 0; i < fused.numel(); ++i) {
    EXPECT_EQ(fused.data()[i], composite.data()[i]);
  }
}

TEST(Ops, SegmentWeightedSumMatchesComposite) {
  Rng rng(30);
  auto x = Tensor::randn({6, 3}, rng);
  auto w = Tensor::randn({6}, rng);
  const std::vector<int> seg = {1, 0, 1, 2, 0, 1};
  auto fused = segment_weighted_sum_rows(x, w, seg, 3);
  auto composite = segment_sum_rows(scale_rows(x, w), seg, 3);
  for (std::size_t i = 0; i < fused.numel(); ++i) {
    EXPECT_NEAR(fused.data()[i], composite.data()[i], 1e-6f);
  }
}

TEST(Grad, SegmentSumRows) {
  Rng rng(27);
  auto x = make_rand({5, 2}, rng);
  const std::vector<int> seg = {0, 2, 1, 2, 0};  // segment 3 stays empty
  auto w = Tensor::randn({4, 2}, rng, 1.0f);
  grad_check({x}, [&] { return sum_all(mul(segment_sum_rows(x, seg, 4), w)); });
}

TEST(Grad, SegmentMeanRows) {
  Rng rng(24);
  auto x = make_rand({5, 2}, rng);
  const std::vector<int> seg = {0, 0, 1, 2, 2};
  auto w = Tensor::randn({3, 2}, rng, 1.0f);
  grad_check({x}, [&] { return sum_all(mul(segment_mean_rows(x, seg, 3), w)); });
}

TEST(Grad, ScaleRowsAndRowDot) {
  Rng rng(25);
  auto x = make_rand({4, 3}, rng);
  auto w = make_rand({4}, rng);
  grad_check({x, w}, [&] { return sum_all(scale_rows(x, w)); });
  x.zero_grad();
  w.zero_grad();
  auto b = make_rand({4, 3}, rng);
  grad_check({x, b}, [&] { return sum_all(scale_rows(b, row_dot(x, b))); });
}

TEST(Grad, ColSliceConcat) {
  Rng rng(26);
  auto x = make_rand({3, 6}, rng);
  grad_check({x}, [&] {
    auto a = col_slice(x, 0, 3);
    auto b = col_slice(x, 3, 3);
    return sum_all(mul(a, b));
  });
}

TEST(Grad, ConcatRows) {
  Rng rng(27);
  auto a = make_rand({2, 3}, rng);
  auto b = make_rand({3, 3}, rng);
  auto w = Tensor::randn({5, 3}, rng, 1.0f);
  grad_check({a, b}, [&] { return sum_all(mul(concat_rows({a, b}), w)); });
}

TEST(Grad, LayerNorm) {
  Rng rng(28);
  auto x = make_rand({3, 5}, rng);
  auto gamma = Tensor::from_vector({5}, {1.0f, 0.9f, 1.1f, 1.0f, 0.8f}, true);
  auto beta = Tensor::from_vector({5}, {0.1f, 0.0f, -0.1f, 0.2f, 0.0f}, true);
  auto w = Tensor::randn({3, 5}, rng, 1.0f);
  grad_check({x, gamma, beta},
             [&] { return sum_all(mul(layer_norm(x, gamma, beta), w)); }, 4e-2f);
}

TEST(Grad, Transpose) {
  Rng rng(29);
  auto x = make_rand({2, 4}, rng);
  auto w = Tensor::randn({4, 2}, rng, 1.0f);
  grad_check({x}, [&] { return sum_all(mul(transpose(x), w)); });
}

TEST(Grad, Reshape) {
  Rng rng(30);
  auto x = make_rand({2, 6}, rng);
  auto w = Tensor::randn({3, 4}, rng, 1.0f);
  grad_check({x}, [&] { return sum_all(mul(reshape(x, {3, 4}), w)); });
}

TEST(Grad, ReusedTensorAccumulatesGradient) {
  // y = x*x summed: dy/dx = 2x, exercising multi-consumer accumulation.
  auto x = Tensor::from_vector({3}, {1, 2, 3}, true);
  auto loss = sum_all(mul(x, x));
  loss.backward();
  EXPECT_NEAR(x.grad()[0], 2.0f, 1e-5f);
  EXPECT_NEAR(x.grad()[1], 4.0f, 1e-5f);
  EXPECT_NEAR(x.grad()[2], 6.0f, 1e-5f);
}

TEST(Grad, DiamondGraph) {
  // loss = sum((x+x) * x) = 2*sum(x^2); dL/dx = 4x.
  auto x = Tensor::from_vector({2}, {3, -1}, true);
  auto loss = sum_all(mul(add(x, x), x));
  loss.backward();
  EXPECT_NEAR(x.grad()[0], 12.0f, 1e-4f);
  EXPECT_NEAR(x.grad()[1], -4.0f, 1e-4f);
}

// ---- optimizers ---------------------------------------------------------------

TEST(Optim, SgdMinimizesQuadratic) {
  auto x = Tensor::from_vector({2}, {5.0f, -3.0f}, true);
  Sgd opt({x}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    auto loss = sum_all(mul(x, x));
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 1e-3f);
  EXPECT_NEAR(x.data()[1], 0.0f, 1e-3f);
}

TEST(Optim, SgdMomentumConverges) {
  auto x = Tensor::from_vector({1}, {10.0f}, true);
  Sgd opt({x}, 0.05f, 0.9f);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    sum_all(mul(x, x)).backward();
    opt.step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 1e-2f);
}

TEST(Optim, AdamMinimizesShiftedQuadratic) {
  auto x = Tensor::from_vector({2}, {0.0f, 0.0f}, true);
  auto target = Tensor::from_vector({2}, {2.0f, -1.0f});
  Adam opt({x}, 0.05f);
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    auto diff = add(x, scale(target, -1.0f));
    sum_all(mul(diff, diff)).backward();
    opt.step();
  }
  EXPECT_NEAR(x.data()[0], 2.0f, 1e-2f);
  EXPECT_NEAR(x.data()[1], -1.0f, 1e-2f);
}

TEST(Optim, GradClippingBoundsNorm) {
  auto x = Tensor::from_vector({3}, {100.0f, 100.0f, 100.0f}, true);
  Sgd opt({x}, 0.1f);
  opt.zero_grad();
  sum_all(mul(x, x)).backward();
  opt.clip_grad_norm(1.0f);
  EXPECT_NEAR(grad_l2_norm({x}), 1.0f, 1e-4f);
}

TEST(Optim, ZeroGradClears) {
  auto x = Tensor::from_vector({2}, {1.0f, 1.0f}, true);
  Sgd opt({x}, 0.1f);
  sum_all(mul(x, x)).backward();
  EXPECT_NE(x.grad()[0], 0.0f);
  opt.zero_grad();
  EXPECT_EQ(x.grad()[0], 0.0f);
}

}  // namespace
}  // namespace g2p
