#include "mpc/he_util.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "crypto/precompute_service.h"
#include "mpc/lane_pool.h"

namespace pcl {

namespace {

/// One encryption of m: from the stream's next power if there is a stream,
/// else fresh from `rng`.
PaillierCiphertext encrypt_one(const PaillierPublicKey& pk, const BigInt& m,
                               Rng& rng, PaillierPowerStream* stream) {
  return stream != nullptr ? stream->encrypt(m) : pk.encrypt(m, rng);
}

}  // namespace

std::vector<PaillierCiphertext> encrypt_vector(
    const PaillierPublicKey& pk, std::span<const std::int64_t> values,
    Rng& rng, PaillierPowerStream* stream) {
  std::vector<PaillierCiphertext> out;
  out.reserve(values.size());
  for (const std::int64_t v : values) {
    out.push_back(encrypt_one(pk, BigInt(v), rng, stream));
  }
  return out;
}

std::vector<std::int64_t> decrypt_vector(
    const PaillierPrivateKey& sk, std::span<const PaillierCiphertext> cts) {
  std::vector<std::int64_t> out(cts.size());
  for_each_element(sk.public_key().key_bits(), cts.size(), [&](std::size_t i) {
    out[i] = sk.decrypt(cts[i]).to_int64();
  });
  return out;
}

std::vector<PaillierCiphertext> add_vectors(
    const PaillierPublicKey& pk, std::span<const PaillierCiphertext> lhs,
    std::span<const PaillierCiphertext> rhs) {
  if (lhs.size() != rhs.size()) {
    throw std::invalid_argument("ciphertext vector size mismatch");
  }
  std::vector<PaillierCiphertext> out;
  out.reserve(lhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    out.push_back(pk.add(lhs[i], rhs[i]));
  }
  return out;
}

std::vector<PaillierCiphertext> add_plain_vector(
    const PaillierPublicKey& pk, std::span<const PaillierCiphertext> cts,
    std::span<const std::int64_t> delta, Rng& rng,
    PaillierPowerStream* stream) {
  if (cts.size() != delta.size()) {
    throw std::invalid_argument("ciphertext/plaintext vector size mismatch");
  }
  std::vector<PaillierCiphertext> out;
  out.reserve(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    out.push_back(
        pk.add(cts[i], encrypt_one(pk, BigInt(delta[i]), rng, stream)));
  }
  return out;
}

std::vector<PaillierCiphertext> secure_sum_encrypt_stream(
    const PaillierPublicKey& pk, const std::vector<std::int64_t>& values,
    Rng& rng, const PackingLayout* packing, PaillierPowerStream* stream) {
  if (packing != nullptr) {
    return encrypt_packed_vector(pk, *packing, values, 1, rng, stream);
  }
  return encrypt_vector(pk, values, rng, stream);
}

std::vector<PaillierCiphertext> encrypt_packed_vector(
    const PaillierPublicKey& pk, const PackingLayout& layout,
    std::span<const std::int64_t> values, std::size_t addend_count, Rng& rng,
    PaillierPowerStream* stream) {
  const std::vector<BigInt> packed = pack_values(
      layout, std::vector<std::int64_t>(values.begin(), values.end()),
      addend_count);
  std::vector<PaillierCiphertext> out;
  out.reserve(packed.size());
  for (const BigInt& m : packed) out.push_back(encrypt_one(pk, m, rng, stream));
  return out;
}

std::vector<PaillierCiphertext> add_packed_delta(
    const PaillierPublicKey& pk, const PackingLayout& layout,
    std::span<const PaillierCiphertext> cts,
    std::span<const std::int64_t> delta) {
  if (cts.size() != layout.num_cts) {
    throw std::invalid_argument("packed ciphertext vector length mismatch");
  }
  const std::vector<BigInt> packed = pack_delta(
      layout, std::vector<std::int64_t>(delta.begin(), delta.end()));
  std::vector<PaillierCiphertext> out;
  out.reserve(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) {
    out.push_back(pk.compose_plain(cts[i], packed[i]));
  }
  return out;
}

std::vector<std::int64_t> decrypt_packed_vector(
    const PaillierPrivateKey& sk, const PackingLayout& layout,
    std::span<const PaillierCiphertext> cts, std::size_t addend_count) {
  if (cts.size() != layout.num_cts) {
    throw std::invalid_argument("packed ciphertext vector length mismatch");
  }
  std::vector<BigInt> plaintexts(cts.size());
  for_each_element(sk.public_key().key_bits(), cts.size(),
                   [&](std::size_t i) { plaintexts[i] = sk.decrypt(cts[i]); });
  return unpack_values(layout, plaintexts, addend_count);
}

void write_ciphertext_vector(MessageWriter& w,
                             std::span<const PaillierCiphertext> cts) {
  w.write_u64(cts.size());
  for (const PaillierCiphertext& c : cts) w.write_bigint(c.value);
}

std::vector<PaillierCiphertext> read_ciphertext_vector(
    MessageReader& r, const PaillierPublicKey& pk, std::size_t count,
    const char* slot) {
  std::vector<BigInt> values = r.read_bigint_vector();
  if (values.size() != count) {
    throw FramingError(std::string(slot) + ": expected " +
                       std::to_string(count) + " ciphertexts, got " +
                       std::to_string(values.size()));
  }
  std::vector<PaillierCiphertext> out;
  out.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] < BigInt(1) || values[i] >= pk.n_squared()) {
      throw FramingError(std::string(slot) + ": ciphertext " +
                         std::to_string(i) + " outside [1, n^2)");
    }
    out.push_back({std::move(values[i])});
  }
  return out;
}

}  // namespace pcl
