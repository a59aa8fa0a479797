// The one little-endian byte codec every binary format in the repo is
// written with: shard reports, traces, worker frames and artifact headers.
//
// ByteWriter appends fixed-width little-endian integers, bit-exact doubles
// and u32-length-prefixed strings to a caller-owned std::string.
// ByteReader is its strict inverse over a string_view: every accessor is
// bounds-checked and returns false on exhausted or invalid input (leaving
// the cursor unspecified), so decoders chain reads with && and the first
// failure aborts the decode. Nothing here allocates beyond the strings it
// is asked to fill, and nothing throws.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace vpna::util {

class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  // Two's-complement via the unsigned forms, so negatives round-trip.
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  // Bit-exact: NaN payloads and signed zeros survive, unlike printf.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  // u32 length prefix, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }
  // The bytes alone, no prefix (fixed-size fields such as magics).
  void raw(std::string_view s) { out_.append(s.data(), s.size()); }

 private:
  void le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i)
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }

  std::string& out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool done() const { return off_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - off_; }

  bool u8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<std::uint8_t>(bytes_[off_++]);
    return true;
  }
  bool u16(std::uint16_t* v) {
    std::uint64_t raw = 0;
    if (!le(&raw, 2)) return false;
    *v = static_cast<std::uint16_t>(raw);
    return true;
  }
  bool u32(std::uint32_t* v) {
    std::uint64_t raw = 0;
    if (!le(&raw, 4)) return false;
    *v = static_cast<std::uint32_t>(raw);
    return true;
  }
  bool u64(std::uint64_t* v) { return le(v, 8); }
  bool i32(std::int32_t* v) {
    std::uint32_t raw = 0;
    if (!u32(&raw)) return false;
    *v = static_cast<std::int32_t>(raw);
    return true;
  }
  bool i64(std::int64_t* v) {
    std::uint64_t raw = 0;
    if (!u64(&raw)) return false;
    *v = static_cast<std::int64_t>(raw);
    return true;
  }
  // Strict: only 0/1 are valid — a flipped bit in a bool is corruption,
  // not a new truth value.
  bool boolean(bool* v) {
    std::uint8_t raw = 0;
    if (!u8(&raw) || raw > 1) return false;
    *v = raw == 1;
    return true;
  }
  bool f64(double* v) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof *v);
    return true;
  }
  bool str(std::string* s) {
    std::string_view view;
    if (!str(&view)) return false;
    s->assign(view);
    return true;
  }
  // Zero-copy form: `s` views the reader's buffer.
  bool str(std::string_view* s) {
    std::uint32_t len = 0;
    return u32(&len) && raw(len, s);
  }
  // The next `n` bytes, no prefix.
  bool raw(std::size_t n, std::string_view* s) {
    if (remaining() < n) return false;
    *s = bytes_.substr(off_, n);
    off_ += n;
    return true;
  }
  // Element-count guard for vectors: each element of any encoded type
  // costs at least one byte, so a count beyond the remaining bytes can
  // only be corruption — reject before reserving memory for it.
  bool count(std::uint32_t* n) { return u32(n) && *n <= remaining(); }

 private:
  bool le(std::uint64_t* v, int width) {
    if (remaining() < static_cast<std::size_t>(width)) return false;
    std::uint64_t out = 0;
    for (int i = width - 1; i >= 0; --i)
      out = (out << 8) | static_cast<std::uint8_t>(bytes_[off_ + i]);
    *v = out;
    off_ += static_cast<std::size_t>(width);
    return true;
  }

  std::string_view bytes_;
  std::size_t off_ = 0;
};

}  // namespace vpna::util
