// Binary wire format: little-endian primitives, length-prefixed strings,
// CRC-protected frames. Deliberately simple — the protocol has eight
// message types and both sides are this library — but strict: every frame
// is integrity-checked and every read is bounds-checked, and corruption
// surfaces as menos::ProtocolError (exercised by the failure-injection
// tests).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/check.h"

namespace menos::net {

class Writer {
 public:
  /// Grow capacity for at least `additional` more bytes. Callers that know
  /// a payload's size up front (tensor frames are megabytes) reserve once
  /// instead of paying repeated geometric reallocations + copies while the
  /// byte-wise put_* loops append.
  void reserve(std::size_t additional) { buf_.reserve(buf_.size() + additional); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  void put_f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u32(bits);
  }

  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  void put_string(const std::string& s) {
    put_u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void put_bytes(const std::vector<std::uint8_t>& b) {
    put_u64(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void put_f32_array(const float* data, std::size_t n) {
    reserve(8 + n * sizeof(float));
    put_u64(n);
    const std::size_t offset = buf_.size();
    buf_.resize(offset + n * sizeof(float));
    if (n > 0) std::memcpy(buf_.data() + offset, data, n * sizeof(float));
  }

  void put_i32_array(const std::int32_t* data, std::size_t n) {
    reserve(8 + n * sizeof(std::int32_t));
    put_u64(n);
    const std::size_t offset = buf_.size();
    buf_.resize(offset + n * sizeof(std::int32_t));
    if (n > 0) {
      std::memcpy(buf_.data() + offset, data, n * sizeof(std::int32_t));
    }
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

  float get_f32() {
    const std::uint32_t bits = get_u32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string get_string() {
    const std::uint64_t n = get_u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> get_bytes() {
    const std::uint64_t n = get_u64();
    need(n);
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  std::vector<float> get_f32_array() {
    const std::uint64_t n = get_u64();
    need(n * sizeof(float));
    std::vector<float> v(n);
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return v;
  }

  std::vector<std::int32_t> get_i32_array() {
    const std::uint64_t n = get_u64();
    need(n * sizeof(std::int32_t));
    std::vector<std::int32_t> v(n);
    if (n > 0) {
      std::memcpy(v.data(), data_ + pos_, n * sizeof(std::int32_t));
    }
    pos_ += n * sizeof(std::int32_t);
    return v;
  }

  bool exhausted() const noexcept { return pos_ == size_; }
  std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::uint64_t n) const {
    if (pos_ + n > size_) {
      throw ProtocolError("wire read past end of payload");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace menos::net
