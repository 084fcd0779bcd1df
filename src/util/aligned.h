// Aligned scratch buffers for compute kernels.
//
// The packed-panel matmul kernels (src/tensor/kernels.cc) stage operand
// panels in contiguous, cache-line/vector aligned scratch. That scratch is
// *working memory of the math itself*, not tensor storage: it must never
// flow through the gpusim Device layer, because device byte accounting is
// the quantity the paper's figures measure and kernel-internal staging
// buffers would perturb every number without representing any modeled
// allocation. The menos_lint `kernel-scratch` rule enforces that kernels
// obtain scratch only through this header.
//
// ScratchPool keeps one lazily grown buffer per (thread, slot): packing
// scratch is reused across kernel invocations with zero steady-state
// allocation, the same role the metered device's idle list plays for
// tensor storage. PageBuffer holds the long-lived kernel state: a frozen
// weight's packed GEMM panels (tensor/tensor.cc), built once and kept for
// the weight's lifetime.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <utility>

#include "util/check.h"

namespace menos::util {

/// Alignment of every scratch buffer: one 64-byte cache line, which also
/// satisfies the widest vector unit we compile for (AVX-512).
inline constexpr std::size_t kScratchAlign = 64;

/// RAII over-aligned float buffer that grows geometrically and never
/// shrinks. Contents are NOT preserved across ensure() — it is scratch.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { release(); }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Pointer valid for at least the float count of the last ensure().
  float* data() noexcept { return data_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Guarantee room for `n` floats; existing contents are discarded.
  void ensure(std::size_t n) {
    if (n <= capacity_) return;
    release();
    std::size_t grown = capacity_ == 0 ? n : capacity_ * 2;
    if (grown < n) grown = n;
    // Round the byte size up to the alignment, as aligned_alloc requires.
    std::size_t bytes = grown * sizeof(float);
    bytes = (bytes + kScratchAlign - 1) / kScratchAlign * kScratchAlign;
    // Kernel scratch deliberately bypasses the Device layer (file comment);
    // it is bounded per thread by the cache-blocking configuration.
    // NOLINTNEXTLINE(raw-alloc)
    data_ = static_cast<float*>(std::aligned_alloc(kScratchAlign, bytes));
    MENOS_CHECK_MSG(data_ != nullptr,
                    "AlignedBuffer: allocation of " << bytes << " bytes failed");
    capacity_ = bytes / sizeof(float);
  }

 private:
  void release() noexcept {
    // NOLINTNEXTLINE(raw-alloc)
    std::free(data_);
    data_ = nullptr;
    capacity_ = 0;
  }

  float* data_ = nullptr;
  std::size_t capacity_ = 0;
};

/// Fixed-size float buffer in its own anonymous page mapping: page-aligned,
/// zero-filled, faulted in by the mapping call (its owner writes every page
/// next, and one populating mmap is cheaper than a fault per page), and
/// returned to the OS when destroyed. Page-mapped rather
/// than malloc'd because these buffers are large and live as long as a
/// weight: freeing a large malloc block raises glibc's dynamic mmap
/// threshold, which moves every later tensor of that size onto the heap and
/// raises the process's peak RSS far past the buffer's own bytes.
class PageBuffer {
 public:
  explicit PageBuffer(std::size_t floats) : bytes_(floats * sizeof(float)) {
    if (bytes_ == 0) return;
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    MENOS_CHECK_MSG(p != MAP_FAILED,
                    "PageBuffer: mapping " << bytes_ << " bytes failed");
    data_ = static_cast<float*>(p);
  }
  ~PageBuffer() {
    if (data_ != nullptr) ::munmap(data_, bytes_);
  }
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  float* data() noexcept { return data_; }
  const float* data() const noexcept { return data_; }
  std::size_t bytes() const noexcept { return bytes_; }

 private:
  std::size_t bytes_;
  float* data_ = nullptr;
};

/// Per-thread scratch slots for kernels. Distinct concurrent buffers within
/// one kernel use distinct slots; different threads never share a buffer,
/// so no locking is involved. Buffers persist for the thread's lifetime and
/// are reused by every subsequent kernel call on that thread.
inline float* scratch_floats(int slot, std::size_t n) {
  constexpr int kSlots = 4;
  thread_local AlignedBuffer buffers[kSlots];
  MENOS_CHECK_MSG(slot >= 0 && slot < kSlots,
                  "scratch_floats: slot " << slot << " out of range");
  AlignedBuffer& buf = buffers[slot];
  buf.ensure(n);
  return buf.data();
}

}  // namespace menos::util
