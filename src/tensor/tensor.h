// Dense float32 tensors with reverse-mode autograd, allocated on metered
// gpusim devices.
//
// Every byte a Tensor holds is accounted against its Device, so the Menos
// runtime's memory behaviour (what is resident between the forward and
// backward passes, what a no-grad forward saves, what releasing the graph
// frees) is directly observable — the property the paper's §3.2 relies on.
//
// Grad bookkeeping mirrors the PyTorch tape model at a much smaller scale:
// ops executed while grad mode is on and any input requires grad attach a
// Node capturing the saved activations; tensor::backward(loss) runs the
// tape. Running under NoGradGuard attaches nothing — that is exactly the
// "first forward in a non-gradient environment" of Fig 3(d).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "util/check.h"

namespace menos::tensor {

using Index = std::int64_t;
using Shape = std::vector<Index>;

/// Number of elements described by a shape.
Index numel_of(const Shape& shape);

/// "[2, 3, 4]" — for error messages.
std::string shape_to_string(const Shape& shape);

struct PackedPanels;  // tensor.cc

/// RAII float buffer on a Device. Shared between tensor views (reshape) and
/// between per-client model instances (the base-model sharing of §3.1).
///
/// A sealed storage (a frozen shared weight) also caches its GEMM B
/// panels, packed once per orientation (kernels::pack_b_panels). They are
/// host kernel state, like kernel scratch: page-mapped, never metered, so
/// every Device byte stays what it was without them.
class Storage {
 public:
  Storage(gpusim::Device& device, Index numel);
  ~Storage();
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  /// Mutable access. On a sealed storage this first drops the packed
  /// panels, since the caller may change the contents; reads belong on the
  /// const overload.
  float* data() noexcept {
    if (sealed_) drop_panels();
    return data_;
  }
  const float* data() const noexcept { return data_; }
  Index numel() const noexcept { return numel_; }
  std::size_t bytes() const noexcept {
    return static_cast<std::size_t>(numel_) * sizeof(float);
  }
  gpusim::Device& device() const noexcept { return *device_; }

  /// Mark the contents fixed, so packed panels may be cached. Call before
  /// the storage is shared between threads.
  void seal() noexcept { sealed_ = true; }

  /// The GEMM B panels of this sealed storage read as a [rows, cols]
  /// row-major weight W: of W itself for the forward's mm (`transposed`
  /// false), of W^T for the backward's mm_nt. Null when unsealed or when
  /// the panels were built for another shape. Built on first use and
  /// published without a lock (threads racing on the first use each build,
  /// one publishes, the rest discard theirs); kept until a write drops them
  /// or the storage dies.
  const float* panels(bool transposed, Index rows, Index cols) const;

 private:
  /// Free the cached panels. Like a write to the contents, this must not
  /// race a kernel that reads this storage.
  void drop_panels() noexcept;

  gpusim::Device* device_;
  float* data_;
  Index numel_;
  bool sealed_ = false;
  mutable std::atomic<PackedPanels*> panels_[2] = {};
};

/// Panels published process-wide so far (Storage::panels): steady-state
/// serving adds none.
std::size_t panel_builds() noexcept;

class Node;  // autograd.h

/// Reference-counted tensor state. Use the Tensor handle below.
class TensorImpl {
 public:
  TensorImpl(std::shared_ptr<Storage> storage, Shape shape, bool requires_grad);

  std::shared_ptr<Storage> storage;
  Shape shape;
  bool requires_grad = false;

  /// Accumulated gradient; null until backward reaches this tensor.
  std::shared_ptr<TensorImpl> grad;

  /// Producing op on the tape; null for leaves.
  std::shared_ptr<Node> grad_fn;
};

/// Value-semantic handle to a TensorImpl (copies alias the same data).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ----- factories -----
  static Tensor empty(Shape shape, gpusim::Device& device,
                      bool requires_grad = false);
  static Tensor zeros(Shape shape, gpusim::Device& device,
                      bool requires_grad = false);
  static Tensor full(Shape shape, float value, gpusim::Device& device,
                     bool requires_grad = false);
  static Tensor from_span(const float* data, Index n, Shape shape,
                          gpusim::Device& device, bool requires_grad = false);
  static Tensor from_vector(const std::vector<float>& data, Shape shape,
                            gpusim::Device& device, bool requires_grad = false);
  /// Scalar tensor of shape {1}.
  static Tensor scalar(float value, gpusim::Device& device);

  // ----- basic accessors -----
  bool defined() const noexcept { return impl_ != nullptr; }
  const Shape& shape() const;
  int ndim() const { return static_cast<int>(shape().size()); }
  Index dim(int i) const;
  Index numel() const;
  std::size_t bytes() const;
  float* data();
  const float* data() const;
  gpusim::Device& device() const;
  float item() const;  ///< precondition: numel() == 1
  std::vector<float> to_vector() const;

  // ----- autograd surface -----
  bool requires_grad() const;
  void set_requires_grad(bool value);
  Tensor grad() const;  ///< undefined Tensor if no grad accumulated
  void zero_grad();     ///< drop the accumulated gradient (frees its memory)

  /// Same storage and shape, detached from the tape.
  Tensor detach() const;

  /// Deep copy (new storage on the same device), detached.
  Tensor clone() const;

  /// Deep copy onto another device.
  Tensor to(gpusim::Device& device) const;

  /// Move this tensor's storage to another device IN PLACE: every handle
  /// and module sharing this tensor sees the data on the new device. This
  /// is the host<->GPU task-swap primitive of the vanilla baseline (§5.1).
  /// No-op if already there. Must not be called on tape members.
  void migrate(gpusim::Device& device);

  /// Overwrite contents from another tensor of identical numel (any device).
  void copy_from(const Tensor& src);

  /// Seal the storage (Storage::seal): a frozen weight shared by clients.
  void seal();

  /// The storage's packed GEMM B panels for this 2-D tensor, in the
  /// orientation of mm (false) or mm_nt (true); null unless it is sealed.
  const float* packed_panels(bool transposed) const;

  std::shared_ptr<TensorImpl> impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Thread-local gradient mode. Default: enabled.
bool grad_enabled() noexcept;

/// RAII guard disabling gradient tracking on this thread — the primitive
/// behind Menos' no-grad first forward pass.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace menos::tensor
