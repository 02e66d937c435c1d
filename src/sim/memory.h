// Simulated device (global) memory: a flat byte-addressed arena with typed
// accessors and an allocation bump pointer. Host<->device copies are explicit
// like cudaMemcpy; kernels access it through the interpreter only.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "support/status.h"

namespace capellini::sim {

/// Byte offset into device memory. 0 is a valid address; allocations start at
/// a nonzero offset so that 0 can be used as a null-ish sentinel by kernels.
using DevicePtr = std::uint64_t;

class DeviceMemory {
 public:
  DeviceMemory() : bytes_(kBaseOffset, 0) {}

  /// Allocates `size` bytes aligned to `alignment` (power of two).
  DevicePtr Alloc(std::uint64_t size, std::uint64_t alignment = 256);

  /// Typed allocation for n elements of T.
  template <typename T>
  DevicePtr AllocArray(std::uint64_t n) {
    return Alloc(n * sizeof(T), 256);
  }

  std::uint64_t size() const { return bytes_.size(); }

  /// Releases every allocation and rewinds the bump pointer, so one arena can
  /// be reused across independent uploads (the fleet re-uploads a problem per
  /// device launch). Previously handed-out DevicePtrs become invalid.
  void Reset() { bytes_.assign(kBaseOffset, 0); }

  /// Host -> device copy.
  template <typename T>
  void CopyToDevice(DevicePtr dst, std::span<const T> src) {
    CheckRange(dst, src.size_bytes());
    std::memcpy(bytes_.data() + dst, src.data(), src.size_bytes());
  }

  /// Device -> host copy.
  template <typename T>
  void CopyFromDevice(std::span<T> dst, DevicePtr src) const {
    CheckRange(src, dst.size_bytes());
    std::memcpy(dst.data(), bytes_.data() + src, dst.size_bytes());
  }

  /// memset on device memory.
  void Fill(DevicePtr dst, std::uint64_t size, std::uint8_t value);

  // Scalar accessors used by the interpreter (bounds-checked). Defined
  // inline: the interpreter calls these once per active lane per memory
  // instruction — hundreds of millions of times per solve — and the
  // out-of-line call was a measurable share of host time per simulated cycle.
  std::int32_t LoadI32(DevicePtr addr) const {
    CheckRange(addr, 4);
    std::int32_t v;
    std::memcpy(&v, bytes_.data() + addr, 4);
    return v;
  }
  std::int64_t LoadI64(DevicePtr addr) const {
    CheckRange(addr, 8);
    std::int64_t v;
    std::memcpy(&v, bytes_.data() + addr, 8);
    return v;
  }
  double LoadF64(DevicePtr addr) const {
    CheckRange(addr, 8);
    double v;
    std::memcpy(&v, bytes_.data() + addr, 8);
    return v;
  }
  void StoreI32(DevicePtr addr, std::int32_t value) {
    CheckRange(addr, 4);
    std::memcpy(bytes_.data() + addr, &value, 4);
  }
  void StoreI64(DevicePtr addr, std::int64_t value) {
    CheckRange(addr, 8);
    std::memcpy(bytes_.data() + addr, &value, 8);
  }
  void StoreF64(DevicePtr addr, double value) {
    CheckRange(addr, 8);
    std::memcpy(bytes_.data() + addr, &value, 8);
  }

 private:
  static constexpr std::uint64_t kBaseOffset = 256;

  void CheckRange(DevicePtr addr, std::uint64_t size) const {
    CAPELLINI_CHECK_MSG(addr >= kBaseOffset && addr + size <= bytes_.size(),
                        "device memory access out of bounds");
  }

  std::vector<std::uint8_t> bytes_;
};

}  // namespace capellini::sim
