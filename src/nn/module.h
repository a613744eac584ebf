// Module base: parameter registration and binary (de)serialization.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace g2p {

/// Base class for layers and models. Parameters are Tensor handles
/// registered at construction; optimizers and checkpointing iterate them in
/// registration order (which is therefore part of a model's ABI).
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters, registration order.
  const std::vector<Tensor>& parameters() const { return params_; }

  std::size_t num_parameters() const {
    std::size_t n = 0;
    for (const auto& p : params_) n += p.numel();
    return n;
  }

  /// Write / read all parameter values. Layout: per parameter, numel floats,
  /// followed by an integrity trailer (8 magic bytes + FNV-1a 64 checksum of
  /// the payload) so bit-flipped — not just truncated — checkpoints are
  /// rejected. The trailer is required: a missing, partial or wrong trailer
  /// throws. Shapes must already match (load into an
  /// identically-configured model). `load` throws on mismatch, truncation,
  /// or checksum failure; load_file returns false instead. Loads are
  /// staged-then-committed: on any failure the previous parameter values are
  /// fully intact (a mid-serving reload that hits a corrupt checkpoint keeps
  /// serving the old generation). save_file returns false when the file
  /// cannot be opened or fully flushed.
  void save(std::ostream& out) const;
  void load(std::istream& in);
  [[nodiscard]] bool save_file(const std::string& path) const;
  [[nodiscard]] bool load_file(const std::string& path);

 protected:
  /// Register a parameter tensor (sets requires_grad) and return the handle.
  Tensor register_param(Tensor t) {
    t.impl()->requires_grad = true;
    params_.push_back(t);
    return t;
  }
  /// Absorb a child module's parameters (composite modules).
  void register_child(const Module& child) {
    for (const auto& p : child.parameters()) params_.push_back(p);
  }

 private:
  std::vector<Tensor> params_;
};

}  // namespace g2p
