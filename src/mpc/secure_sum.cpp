#include "mpc/secure_sum.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "mpc/he_util.h"
#include "obs/trace.h"

namespace pcl {

std::vector<PaillierCiphertext> secure_sum_encrypt_stream(
    const PaillierPublicKey& pk, const std::vector<std::int64_t>& values,
    Rng& rng, const PackingLayout* packing, PaillierPowerStream* stream) {
  if (packing != nullptr) {
    return encrypt_packed_vector(pk, *packing, values, 1, rng, stream);
  }
  return encrypt_vector(pk, values, rng, stream);
}

void secure_sum_submit(Channel& chan, const PaillierPublicKey& s1_stream_pk,
                       const PaillierPublicKey& s2_stream_pk,
                       const std::vector<std::int64_t>& to_s1,
                       const std::vector<std::int64_t>& to_s2, Rng& rng,
                       const PackingLayout* packing) {
  obs::count(obs::Op::kSecureSumSubmit);
  MessageWriter m1;
  write_ciphertext_vector(m1, secure_sum_encrypt_stream(s1_stream_pk, to_s1,
                                                        rng, packing, nullptr));
  chan.send("S1", std::move(m1));
  MessageWriter m2;
  write_ciphertext_vector(m2, secure_sum_encrypt_stream(s2_stream_pk, to_s2,
                                                        rng, packing, nullptr));
  chan.send("S2", std::move(m2));
}

std::vector<PaillierCiphertext> secure_sum_collect(Channel& chan,
                                                   const PaillierPublicKey& pk,
                                                   std::size_t n_users) {
  obs::count(obs::Op::kSecureSumCollect);
  std::vector<PaillierCiphertext> aggregate;
  for (std::size_t u = 0; u < n_users; ++u) {
    MessageReader msg = chan.recv("user:" + std::to_string(u));
    std::vector<PaillierCiphertext> shares = read_ciphertext_vector(msg);
    aggregate =
        u == 0 ? std::move(shares) : add_vectors(pk, aggregate, shares);
  }
  return aggregate;
}

namespace {

void validate_share_matrix(
    const std::vector<std::vector<std::int64_t>>& to_s1,
    const std::vector<std::vector<std::int64_t>>& to_s2) {
  if (to_s1.empty() || to_s1.size() != to_s2.size()) {
    throw std::invalid_argument("secure_sum: need equal, non-empty user sets");
  }
  const std::size_t k = to_s1.front().size();
  for (std::size_t u = 0; u < to_s1.size(); ++u) {
    if (to_s1[u].size() != k || to_s2[u].size() != k) {
      throw std::invalid_argument("secure_sum: ragged share vectors");
    }
  }
}

}  // namespace

SecureSumResult secure_sum(Network& net, const ServerPaillierKeys& keys,
                           const std::vector<std::vector<std::int64_t>>& to_s1,
                           const std::vector<std::vector<std::int64_t>>& to_s2,
                           std::uint64_t seed, const PackingLayout* packing,
                           PartyTransport schedule) {
  validate_share_matrix(to_s1, to_s2);
  const std::size_t n_users = to_s1.size();
  SecureSumResult out;
  std::vector<Party> parties;
  parties.push_back({"S1", [&](Channel& chan) {
                       out.s1_aggregate =
                           secure_sum_collect(chan, keys.s2.pk, n_users);
                     }});
  parties.push_back({"S2", [&](Channel& chan) {
                       out.s2_aggregate =
                           secure_sum_collect(chan, keys.s1.pk, n_users);
                     }});
  for (std::size_t u = 0; u < n_users; ++u) {
    parties.push_back({"user:" + std::to_string(u), [&, u](Channel& chan) {
                         DeterministicRng rng(derive_party_seed(seed, 2 + u));
                         secure_sum_submit(chan, keys.s2.pk, keys.s1.pk,
                                           to_s1[u], to_s2[u], rng, packing);
                       }});
  }
  run_parties(net, parties, schedule);
  return out;
}

}  // namespace pcl
