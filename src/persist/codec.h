// Binary encoding primitives for the persistence subsystem: little-endian
// fixed-width integers, bit-exact doubles (IEEE-754 bit pattern through a
// uint64), length-prefixed strings and sets. The Decoder is fully
// bounds-checked and returns Status on any truncation — framing CRCs catch
// corruption, the decoder catches structural damage, and nothing ever reads
// past the buffer.
#ifndef WFIT_PERSIST_CODEC_H_
#define WFIT_PERSIST_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/index_set.h"

namespace wfit::persist {

class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Bit-exact: the IEEE-754 representation round-trips unchanged, which
  /// the recovery determinism contract depends on.
  void PutDouble(double v);
  /// u32 length prefix + raw bytes.
  void PutString(std::string_view s);
  /// u32 count + u32 ids (sorted, as IndexSet stores them).
  void PutIndexSet(const IndexSet& set);
  void PutU32Vector(const std::vector<uint32_t>& v);
  void PutU64Vector(const std::vector<uint64_t>& v);
  void PutDoubleVector(const std::vector<double>& v);

  const std::string& data() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetDouble(double* out);
  Status GetString(std::string* out);
  Status GetIndexSet(IndexSet* out);
  Status GetU32Vector(std::vector<uint32_t>* out);
  Status GetU64Vector(std::vector<uint64_t>* out);
  Status GetDoubleVector(std::vector<double>* out);
  /// Reads a u32 element count and rejects it unless `count *
  /// min_elem_bytes` bytes remain: a corrupt count must not drive a huge
  /// allocation.
  Status GetCount(uint32_t* count, size_t min_elem_bytes);

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n) const {
    return n <= remaining()
               ? Status::Ok()
               : Status::InvalidArgument("decode: truncated buffer");
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace wfit::persist

#endif  // WFIT_PERSIST_CODEC_H_
