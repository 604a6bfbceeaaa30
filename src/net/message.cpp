#include "net/message.h"

#include <bit>
#include <cstring>
#include <string>

namespace pcl {

void MessageWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void MessageWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void MessageWriter::write_i64(std::int64_t v) {
  write_u64(static_cast<std::uint64_t>(v));
}

void MessageWriter::write_double(double v) {
  write_u64(std::bit_cast<std::uint64_t>(v));
}

void MessageWriter::write_bigint(const BigInt& v) {
  write_u8(v.is_negative() ? 1 : 0);
  write_bytes(v.to_bytes());
}

void MessageWriter::write_bytes(const std::vector<std::uint8_t>& v) {
  write_u64(v.size());
  bytes_.insert(bytes_.end(), v.begin(), v.end());
}

void MessageWriter::write_string(const std::string& v) {
  write_u64(v.size());
  bytes_.insert(bytes_.end(), v.begin(), v.end());
}

void MessageWriter::write_bigint_vector(const std::vector<BigInt>& v) {
  write_vector(v, [](MessageWriter& w, const BigInt& e) { w.write_bigint(e); });
}

void MessageWriter::write_i64_vector(const std::vector<std::int64_t>& v) {
  write_vector(v,
               [](MessageWriter& w, std::int64_t e) { w.write_i64(e); });
}

void MessageReader::require(std::uint64_t n) const {
  // Compare against the remaining bytes instead of `pos_ + n` so a huge
  // (attacker-controlled) n cannot overflow the left-hand side.
  if (n > bytes_.size() - pos_) {
    throw FramingError("MessageReader: truncated message (need " +
                       std::to_string(n) + " bytes, have " +
                       std::to_string(bytes_.size() - pos_) + ")");
  }
}

std::uint64_t MessageReader::read_count(std::size_t min_element_bytes,
                                        const char* what) {
  const std::uint64_t n = read_u64();
  if (min_element_bytes != 0 && n > remaining() / min_element_bytes) {
    throw FramingError(std::string("MessageReader: ") + what + " count " +
                       std::to_string(n) + " exceeds the " +
                       std::to_string(remaining()) + " bytes remaining");
  }
  return n;
}

std::uint8_t MessageReader::read_u8() {
  require(1);
  return bytes_[pos_++];
}

std::uint32_t MessageReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t MessageReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
  }
  return v;
}

std::int64_t MessageReader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

double MessageReader::read_double() {
  return std::bit_cast<double>(read_u64());
}

BigInt MessageReader::read_bigint() {
  // One encoding per value: the sign byte is 0 or 1, never "any nonzero".
  const std::uint8_t sign = read_u8();
  if (sign > 1) {
    throw FramingError("MessageReader: BigInt sign byte " +
                       std::to_string(sign) + " is neither 0 nor 1");
  }
  return BigInt::from_bytes(read_bytes(), sign == 1);
}

std::vector<std::uint8_t> MessageReader::read_bytes() {
  const std::uint64_t n = read_count(1, "byte-string");
  std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string MessageReader::read_string() {
  const std::uint64_t n = read_count(1, "string");
  std::string out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::vector<BigInt> MessageReader::read_bigint_vector() {
  // Each BigInt occupies at least a sign byte plus a u64 length prefix.
  const std::uint64_t n = read_count(9, "BigInt vector");
  std::vector<BigInt> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(read_bigint());
  return out;
}

std::vector<std::int64_t> MessageReader::read_i64_vector() {
  const std::uint64_t n = read_count(8, "i64 vector");
  std::vector<std::int64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(read_i64());
  return out;
}

}  // namespace pcl
