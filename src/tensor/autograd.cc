#include "tensor/autograd.h"

#include <unordered_map>
#include <unordered_set>

namespace menos::tensor {
namespace detail {

bool on_tape(const Tensor& t) {
  return t.defined() && (t.requires_grad() || t.impl()->grad_fn != nullptr);
}

bool should_record(const std::vector<Tensor>& inputs) {
  if (!grad_enabled()) return false;
  for (const Tensor& t : inputs) {
    if (on_tape(t)) return true;
  }
  return false;
}

void attach_node(Tensor& output, std::string name, std::vector<Tensor> inputs,
                 std::function<std::vector<Tensor>(const Tensor&)> backward_fn) {
  MENOS_CHECK_MSG(output.defined(), "attach_node on undefined output");
  output.impl()->grad_fn = std::make_shared<Node>(
      std::move(name), std::move(inputs), std::move(backward_fn));
}

void accumulate_grad(const Tensor& target, const Tensor& delta) {
  if (!target.defined() || !delta.defined()) return;
  MENOS_CHECK_MSG(
      delta.numel() == target.numel(),
      "gradient numel mismatch for node output: " << delta.numel() << " vs "
                                                  << target.numel());
  auto impl = target.impl();
  if (impl->grad == nullptr) {
    Tensor g = delta.clone();
    // Gradients never need their own tape.
    impl->grad = g.impl();
    return;
  }
  float* acc = impl->grad->storage->data();
  const float* d = delta.data();
  const Index n = delta.numel();
  for (Index i = 0; i < n; ++i) acc[i] += d[i];
}

}  // namespace detail

void backward(const Tensor& loss, const Tensor& seed_in) {
  MENOS_CHECK_MSG(loss.defined(), "backward() on undefined tensor");
  if (seed_in.defined()) {
    MENOS_CHECK_MSG(seed_in.numel() == loss.numel(),
                    "backward seed numel " << seed_in.numel()
                                           << " != root numel "
                                           << loss.numel());
  }

  // Topological order over the reachable tape (post-order DFS, iterative to
  // survive deep transformer graphs).
  std::vector<TensorImpl*> topo;
  std::unordered_set<TensorImpl*> visited;
  {
    std::vector<std::pair<TensorImpl*, std::size_t>> stack;
    stack.emplace_back(loss.impl().get(), 0);
    visited.insert(loss.impl().get());
    while (!stack.empty()) {
      auto& [impl, child] = stack.back();
      const Node* node = impl->grad_fn.get();
      const std::size_t fanin = node != nullptr ? node->inputs().size() : 0;
      if (child < fanin) {
        TensorImpl* next = node->inputs()[child].impl().get();
        ++child;
        if (next != nullptr && visited.insert(next).second) {
          stack.emplace_back(next, 0);
        }
      } else {
        topo.push_back(impl);
        stack.pop_back();
      }
    }
  }

  // Seed: ones for a loss root, or the caller-supplied upstream gradient.
  {
    NoGradGuard no_grad;
    Tensor seed = seed_in.defined()
                      ? seed_in
                      : Tensor::full(loss.shape(), 1.0f, loss.device());
    detail::accumulate_grad(loss, seed);
  }

  // Reverse topological order = forward-pass order reversed.
  NoGradGuard no_grad;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    TensorImpl* impl = *it;
    if (impl->grad_fn == nullptr) continue;
    if (impl->grad == nullptr) continue;  // unreachable from the seed
    const Tensor grad_out(impl->grad);
    std::vector<Tensor> input_grads = impl->grad_fn->run_backward(grad_out);
    const auto& inputs = impl->grad_fn->inputs();
    MENOS_CHECK_MSG(input_grads.size() == inputs.size(),
                    "node '" << impl->grad_fn->name() << "' returned "
                             << input_grads.size() << " grads for "
                             << inputs.size() << " inputs");
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      // Only tensors on the tape need gradient storage.
      if (detail::on_tape(inputs[i])) {
        detail::accumulate_grad(inputs[i], input_grads[i]);
      }
    }
    // Non-leaf gradients are scratch: once consumed they can be dropped so
    // activation-gradient memory does not accumulate across the graph.
    if (!impl->requires_grad) impl->grad.reset();
  }
}

}  // namespace menos::tensor
