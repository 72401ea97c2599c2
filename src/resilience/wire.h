#ifndef CONGRESS_RESILIENCE_WIRE_H_
#define CONGRESS_RESILIENCE_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "storage/value.h"

namespace congress::resilience::wire {

/// Little-endian primitive encoding for the snapshot format. Writers
/// append to a std::string; readers advance a cursor over a byte range
/// and return false on underflow (the recovery loader treats that as a
/// truncated/corrupt section, never as UB). Words are copied whole, as
/// they lie in memory, which is their encoding on a little-endian host.

static_assert(std::endian::native == std::endian::little,
              "snapshot words are copied as they lie in memory");

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutDouble(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// A bounded read cursor. All Get* return false on underflow and leave
/// the cursor unspecified.
struct Cursor {
  const char* p = nullptr;
  const char* end = nullptr;

  Cursor(const char* data, size_t n) : p(data), end(data + n) {}

  size_t remaining() const { return static_cast<size_t>(end - p); }

  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(*p++);
    return true;
  }
  bool GetU32(uint32_t* v) { return GetWord(v); }
  bool GetU64(uint64_t* v) { return GetWord(v); }
  bool GetDouble(double* v) { return GetWord(v); }
  /// Points `*data` at the next `n` bytes and steps over them.
  bool GetBytes(size_t n, const char** data) {
    if (remaining() < n) return false;
    *data = p;
    p += n;
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t len;
    const char* data = nullptr;
    if (!GetU32(&len) || !GetBytes(len, &data)) return false;
    s->assign(data, len);
    return true;
  }

 private:
  template <typename Word>
  bool GetWord(Word* v) {
    if (remaining() < sizeof(Word)) return false;
    std::memcpy(v, p, sizeof(Word));
    p += sizeof(Word);
    return true;
  }
};

/// Values carry a one-byte type tag so a reader never misinterprets a
/// payload even if the schema section lied.
inline void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case DataType::kInt64:
      PutU64(out, static_cast<uint64_t>(v.AsInt64()));
      break;
    case DataType::kDouble:
      PutDouble(out, v.AsDouble());
      break;
    case DataType::kString:
      PutString(out, v.AsString());
      break;
  }
}

inline bool GetValue(Cursor* in, Value* v) {
  uint8_t tag;
  if (!in->GetU8(&tag)) return false;
  switch (static_cast<DataType>(tag)) {
    case DataType::kInt64: {
      uint64_t bits;
      if (!in->GetU64(&bits)) return false;
      *v = Value(static_cast<int64_t>(bits));
      return true;
    }
    case DataType::kDouble: {
      double d;
      if (!in->GetDouble(&d)) return false;
      *v = Value(d);
      return true;
    }
    case DataType::kString: {
      std::string s;
      if (!in->GetString(&s)) return false;
      *v = Value(std::move(s));
      return true;
    }
  }
  return false;
}

}  // namespace congress::resilience::wire

#endif  // CONGRESS_RESILIENCE_WIRE_H_
