// Reverse-mode autograd tape.
//
// Each differentiable op that runs with grad mode on attaches a Node to its
// output. A Node holds the op's inputs (for graph traversal), whatever
// forward activations its backward function captured, and the backward
// function itself. tensor::backward(loss) topologically sorts the reachable
// graph and accumulates gradients into leaf tensors' .grad.
//
// Memory semantics matter here: captured activations keep device memory
// alive until the graph is dropped. The Menos serving session releases the
// graph (and therefore the intermediate-result memory I of §2.3) simply by
// letting the output tensor go out of scope after backward — the on-demand
// release of Fig 3.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace menos::tensor {

class Node {
 public:
  /// `backward_fn(grad_out)` must return one gradient per entry of
  /// `inputs`, aligned by position; an undefined Tensor means "no gradient
  /// for this input". Need-flag rule: an op captures on_tape() of each
  /// input at record time and computes (and allocates) a gradient only for
  /// inputs that are on the tape, so a frozen weight costs no backward
  /// FLOPs or bytes — backward() would discard such a gradient anyway.
  Node(std::string name, std::vector<Tensor> inputs,
       std::function<std::vector<Tensor>(const Tensor&)> backward_fn)
      : name_(std::move(name)),
        inputs_(std::move(inputs)),
        backward_fn_(std::move(backward_fn)) {}

  const std::string& name() const noexcept { return name_; }
  const std::vector<Tensor>& inputs() const noexcept { return inputs_; }

  std::vector<Tensor> run_backward(const Tensor& grad_out) const {
    return backward_fn_(grad_out);
  }

 private:
  std::string name_;
  std::vector<Tensor> inputs_;
  std::function<std::vector<Tensor>(const Tensor&)> backward_fn_;
};

namespace detail {

/// True if `t` participates in the tape: it requires grad, or an op that
/// recorded a node produced it. Only such tensors receive gradients.
bool on_tape(const Tensor& t);

/// True if this op invocation should record a node: grad mode is on and at
/// least one input participates in the tape.
bool should_record(const std::vector<Tensor>& inputs);

/// Attach a node to `output` (marks it as non-leaf tape member).
void attach_node(Tensor& output, std::string name, std::vector<Tensor> inputs,
                 std::function<std::vector<Tensor>(const Tensor&)> backward_fn);

/// Accumulate `delta` into `target.grad` (allocating it on first use).
void accumulate_grad(const Tensor& target, const Tensor& delta);

}  // namespace detail

/// Run reverse-mode differentiation from `root`. When `seed` is undefined
/// the seed gradient is ones (the loss case); otherwise `seed` must match
/// root's element count — this is how split learning resumes
/// back-propagation from the gradients g_c received over the network.
/// Gradients accumulate into every reachable tensor with requires_grad ==
/// true. The traversed graph nodes stay alive only as long as the caller
/// keeps the output tensors; backward itself does not free them (call
/// sites drop their references to release activation memory).
void backward(const Tensor& root, const Tensor& seed = Tensor());

}  // namespace menos::tensor
