// Dynamic allocation auditing for simulated devices — a memcheck for the
// byte-accounting substrate every Menos memory claim rests on.
//
// AuditDevice decorates any gpusim::Device and verifies, at runtime, the
// contract the Device interface only documents:
//
//   * every deallocate() matches a live allocate() from the SAME device
//     (foreign pointers are reported),
//   * the `bytes` argument equals the original request (size mismatches
//     are reported),
//   * no allocation is freed twice (double frees are reported),
//   * freed memory is poisoned with kPoisonByte so use-after-free reads
//     produce loud garbage (and, in quarantine mode, stay observable), and
//   * a device destroyed with live allocations logs a per-tag leak table.
//
// Every live allocation carries a caller tag from the innermost
// AllocTagScope on the allocating thread, so leak reports name the owning
// subsystem ("session-7", "profiling", ...) rather than a bare pointer.
//
// Debug builds wrap every make_host_device()/make_sim_gpu() result in an
// AuditDevice automatically (CMake option MENOS_AUDIT_ALLOC, ON by default
// when CMAKE_BUILD_TYPE=Debug). By default errors abort with a diagnostic;
// tests that *expect* misuse construct one with abort_on_error=false and
// inspect errors()/leak_report() instead. See docs/ANALYSIS.md.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gpusim/device.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace menos::gpusim {

/// Byte written over freed blocks (and over quarantined blocks until they
/// are really released): 0xEF, "erased float-ish" — decodes to a huge
/// negative float, so arithmetic on poisoned tensors diverges instantly.
inline constexpr std::uint8_t kPoisonByte = 0xEF;

struct AuditOptions {
  /// Print the diagnostic and abort() on double-free / size-mismatch /
  /// foreign-pointer. When false the error is recorded (errors()) and the
  /// offending free is dropped, which keeps the accounting consistent for
  /// post-mortem inspection in tests.
  bool abort_on_error = true;

  /// Keep up to this many bytes of freed blocks resident (contents
  /// poisoned) instead of releasing them immediately. While quarantined, a
  /// block's memory is still owned by the device, so reading the poison
  /// pattern after free is defined behavior — the audit tests rely on it.
  /// The accounting reported by stats() treats quarantined blocks as
  /// freed. 0 disables quarantine: blocks are poisoned then released.
  std::size_t quarantine_bytes = 0;
};

/// One recorded misuse (abort_on_error=false only).
struct AuditErrorRecord {
  enum class Kind { DoubleFree, SizeMismatch, ForeignPointer };
  Kind kind;
  std::string message;
};

class AuditDevice final : public Device {
 public:
  AuditDevice(std::unique_ptr<Device> inner, AuditOptions options);

  /// Logs the per-tag leak table if live allocations remain, then reclaims
  /// them (and the quarantine) so the underlying memory is not lost.
  ~AuditDevice() override;

  DeviceKind kind() const noexcept override { return inner_->kind(); }
  const std::string& name() const noexcept override { return inner_->name(); }

  void* allocate(std::size_t bytes) override;
  void deallocate(void* ptr, std::size_t bytes) noexcept override;
  MemoryStats stats() const override;
  std::size_t reset_peak() override { return inner_->reset_peak(); }

  // ----- auditing introspection -----

  /// Misuse reports collected so far (always empty when abort_on_error).
  std::vector<AuditErrorRecord> errors() const;

  /// Number of live (not yet freed) allocations.
  std::size_t live_count() const;

  /// Live bytes grouped by AllocTagScope tag.
  std::unordered_map<std::string, std::size_t> live_bytes_by_tag() const;

  /// Human-readable per-tag table of live allocations; empty string when
  /// nothing is live. This is what the destructor logs on leak.
  std::string leak_report() const;

  Device& inner() noexcept { return *inner_; }
  const Device* unwrap() const noexcept override { return inner_.get(); }

 private:
  struct Live {
    std::size_t bytes = 0;
    std::string tag;
  };
  struct Quarantined {
    void* ptr = nullptr;
    std::size_t bytes = 0;
  };

  void report_error(AuditErrorRecord::Kind kind, std::string message) const
      MENOS_REQUIRES(mutex_);
  void flush_quarantine_locked() MENOS_REQUIRES(mutex_);
  std::string leak_report_locked() const MENOS_REQUIRES(mutex_);

  std::unique_ptr<Device> inner_;
  AuditOptions options_;

  // Lock class assigned in the constructor via decorator_lock_name():
  // nested audit layers get depth-suffixed classes. NOLINT(mutex-name)
  mutable util::Mutex mutex_;  // NOLINT(mutex-name)
  std::unordered_map<void*, Live> live_ MENOS_GUARDED_BY(mutex_);
  // Pointers that went through a full free already; a second deallocate of
  // one of these is a double free (entries are dropped when the allocator
  // reuses the address for a new block). Bounded FIFO so an eternal server
  // does not grow it without limit.
  std::unordered_set<void*> freed_history_ MENOS_GUARDED_BY(mutex_);
  std::deque<void*> freed_order_ MENOS_GUARDED_BY(mutex_);
  std::deque<Quarantined> quarantine_ MENOS_GUARDED_BY(mutex_);
  std::size_t quarantine_total_ MENOS_GUARDED_BY(mutex_) = 0;
  std::uint64_t deferred_frees_ MENOS_GUARDED_BY(mutex_) = 0;
  mutable std::vector<AuditErrorRecord> errors_ MENOS_GUARDED_BY(mutex_);
};

/// Wrap `inner` in an auditor. The returned Device forwards all accounting
/// to `inner` (stats() adjusts for quarantined blocks).
std::unique_ptr<Device> make_audit_device(std::unique_ptr<Device> inner,
                                          AuditOptions options = {});

/// Downcast helper: the AuditDevice behind a Device&, or nullptr if the
/// device is not audited (e.g. a Release build with MENOS_AUDIT_ALLOC off).
AuditDevice* as_audit_device(Device& device) noexcept;

/// RAII caller tag for allocations: every allocate() on ANY audited device
/// performed by this thread while the scope is alive is attributed to
/// `tag` (innermost scope wins). Leak tables aggregate by this tag.
class AllocTagScope {
 public:
  explicit AllocTagScope(std::string tag);
  ~AllocTagScope();

  AllocTagScope(const AllocTagScope&) = delete;
  AllocTagScope& operator=(const AllocTagScope&) = delete;

  /// The innermost active tag on this thread, or "untagged".
  static const std::string& current() noexcept;

 private:
  std::string previous_;
};

}  // namespace menos::gpusim
