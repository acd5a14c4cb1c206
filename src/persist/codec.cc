#include "persist/codec.h"

#include <bit>
#include <cstring>

namespace wfit::persist {

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void Encoder::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void Encoder::PutIndexSet(const IndexSet& set) {
  PutU32(static_cast<uint32_t>(set.size()));
  for (IndexId id : set) PutU32(id);
}

void Encoder::PutU32Vector(const std::vector<uint32_t>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (uint32_t x : v) PutU32(x);
}

void Encoder::PutU64Vector(const std::vector<uint64_t>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (uint64_t x : v) PutU64(x);
}

void Encoder::PutDoubleVector(const std::vector<double>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (double x : v) PutDouble(x);
}

Status Decoder::GetCount(uint32_t* count, size_t min_elem_bytes) {
  WFIT_RETURN_IF_ERROR(GetU32(count));
  if (static_cast<uint64_t>(*count) * min_elem_bytes > remaining()) {
    return Status::InvalidArgument("decode: element count exceeds buffer");
  }
  return Status::Ok();
}

Status Decoder::GetU8(uint8_t* out) {
  WFIT_RETURN_IF_ERROR(Need(1));
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::Ok();
}

Status Decoder::GetU32(uint32_t* out) {
  WFIT_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::Ok();
}

Status Decoder::GetU64(uint64_t* out) {
  WFIT_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::Ok();
}

Status Decoder::GetDouble(double* out) {
  uint64_t bits = 0;
  WFIT_RETURN_IF_ERROR(GetU64(&bits));
  *out = std::bit_cast<double>(bits);
  return Status::Ok();
}

Status Decoder::GetString(std::string* out) {
  uint32_t len = 0;
  WFIT_RETURN_IF_ERROR(GetCount(&len, 1));
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status Decoder::GetIndexSet(IndexSet* out) {
  std::vector<uint32_t> ids;
  WFIT_RETURN_IF_ERROR(GetU32Vector(&ids));
  *out = IndexSet::FromVector(std::move(ids));
  return Status::Ok();
}

Status Decoder::GetU32Vector(std::vector<uint32_t>* out) {
  uint32_t count = 0;
  WFIT_RETURN_IF_ERROR(GetCount(&count, 4));
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t v = 0;
    WFIT_RETURN_IF_ERROR(GetU32(&v));
    out->push_back(v);
  }
  return Status::Ok();
}

Status Decoder::GetU64Vector(std::vector<uint64_t>* out) {
  uint32_t count = 0;
  WFIT_RETURN_IF_ERROR(GetCount(&count, 8));
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    WFIT_RETURN_IF_ERROR(GetU64(&v));
    out->push_back(v);
  }
  return Status::Ok();
}

Status Decoder::GetDoubleVector(std::vector<double>* out) {
  uint32_t count = 0;
  WFIT_RETURN_IF_ERROR(GetCount(&count, 8));
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    double v = 0;
    WFIT_RETURN_IF_ERROR(GetDouble(&v));
    out->push_back(v);
  }
  return Status::Ok();
}

}  // namespace wfit::persist
