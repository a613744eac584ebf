// Dense float32 tensor with reverse-mode automatic differentiation.
//
// This is the numeric substrate for the HGT model and the transformer
// baseline (the paper trains with PyTorch; libtorch is unavailable here, so
// the math is reimplemented from scratch and gradient-checked in tests).
//
// Design: a Tensor is a cheap value-semantic handle to a shared TensorImpl.
// Operations (ops.h) build a dynamic tape; Tensor::backward() runs reverse
// topological order accumulating gradients. Shapes are row-major, rank 1-3.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace g2p {

class Rng;

using Shape = std::vector<int>;

/// Tensor-buffer allocation seam: every FloatVec block is allocated by
/// acquire() and freed by release(), straight from the system
/// allocator. There is deliberately no recycling cache in front of it: batch
/// shapes change on every call, so exact sizes rarely recur, and per-thread
/// caches of them pinned memory on every worker and fragmented the heap.
namespace tensor_pool {
/// Every block acquire() hands out is aligned to this (cache line / AVX-512
/// vector). `backend::project` relies on it: packed weight panels are
/// FloatVec and the AVX2 kernel loads them with aligned loads.
inline constexpr std::size_t kAlignment = 64;
/// Hosts the `pool.acquire` failpoint (throws FailpointError when it fires).
void* acquire(std::size_t bytes);
void release(void* p, std::size_t bytes) noexcept;
}  // namespace tensor_pool

/// Allocator that default-initializes elements (skips the zero-fill pass of
/// value initialization) and hands out 64-byte-aligned blocks via
/// tensor_pool. Tensor buffers are written in full by the op that produces
/// them, so `FloatVec out(n)` would otherwise touch every byte twice; ops
/// that accumulate instead of overwrite must zero explicitly with
/// FloatVec(n, 0.0f).
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  T* allocate(std::size_t n) {
    return static_cast<T*>(tensor_pool::acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    tensor_pool::release(p, n * sizeof(T));
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;  // default-init: no zero-fill for floats
    } else {
      ::new (static_cast<void*>(p)) U(static_cast<Args&&>(args)...);
    }
  }
};

/// Tensor data buffer. Interchangeable with std::vector<float> element-wise;
/// convert explicitly where a std::vector<float> is required.
using FloatVec = std::vector<float, UninitAllocator<float>>;

std::string shape_to_string(const Shape& shape);
std::size_t shape_numel(const Shape& shape);

struct TensorImpl {
  Shape shape;
  FloatVec data;
  FloatVec grad;                  // allocated lazily on first backward touch
  bool requires_grad = false;
  /// Mutation counter: bumped every time mutable access to `data` is handed
  /// out (optimizer steps, checkpoint loads, test pokes). Derived caches —
  /// the HGT layer's fused weight repack — key on it to notice parameter
  /// mutation without fingerprinting the values.
  std::uint64_t version = 0;

  // Tape: parents kept alive via shared_ptr; backward_fn pushes this node's
  // grad into its parents' grads. The function captures parents by
  // shared_ptr and refers to this node through a raw pointer (no cycle).
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void(const TensorImpl&)> backward_fn;

  void ensure_grad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// Whether ops record the autograd tape (default true, thread-local).
bool grad_enabled();

/// RAII scope disabling tape construction (inference mode). Results created
/// inside record no parents and no backward_fn, so intermediates are freed
/// as soon as their handles go out of scope — a batched forward's working
/// set stays at O(live tensors) instead of O(whole tape). Nestable;
/// thread-local, so worker threads are unaffected.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

class Tensor {
 public:
  Tensor() = default;  // null tensor
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ---- construction ----
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor from_vector(Shape shape, std::vector<float> values, bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  /// Normal(0, std) init (parameter initialization).
  static Tensor randn(Shape shape, Rng& rng, float std_dev = 1.0f, bool requires_grad = false);
  /// Uniform(-bound, bound) init.
  static Tensor rand_uniform(Shape shape, Rng& rng, float bound, bool requires_grad = false);

  // ---- structure ----
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl_->shape; }
  int dim(int i) const { return impl_->shape[static_cast<std::size_t>(i)]; }
  int rank() const { return static_cast<int>(impl_->shape.size()); }
  std::size_t numel() const { return impl_->data.size(); }
  bool requires_grad() const { return impl_->requires_grad; }

  // ---- data access ----
  /// Mutable access conservatively counts as a mutation (see
  /// TensorImpl::version); the read-only overload does not.
  FloatVec& data() {
    ++impl_->version;
    return impl_->data;
  }
  const FloatVec& data() const { return impl_->data; }
  /// Current mutation stamp (cache-invalidation key).
  std::uint64_t version() const { return impl_->version; }
  FloatVec& grad() {
    impl_->ensure_grad();
    return impl_->grad;
  }
  const FloatVec& grad() const { return impl_->grad; }
  float item() const;
  float at(std::initializer_list<int> index) const;

  std::shared_ptr<TensorImpl> impl() const { return impl_; }

  /// Run reverse-mode autodiff from this (scalar) tensor. Accumulates into
  /// .grad of every reachable tensor with requires_grad.
  void backward();

  /// Clear this tensor's gradient (optimizers call per-parameter).
  void zero_grad();

  /// A view-copy with the tape cut (same data buffer is copied).
  Tensor detach() const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Helper for op implementations: make a result tensor wired to parents.
Tensor make_result(Shape shape, FloatVec data,
                   std::vector<Tensor> parents,
                   std::function<void(const TensorImpl&)> backward_fn);

}  // namespace g2p
