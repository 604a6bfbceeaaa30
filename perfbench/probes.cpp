// pc-bench layer probes: unit costs of the bigint, crypto and net layers,
// each timed by calling one public function at the workload's own widths.
// They run only in the traced pass, after the timed requests.
#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench.h"
#include "bigint/montgomery.h"
#include "crypto/dgk.h"
#include "crypto/paillier.h"
#include "crypto/precompute_service.h"
#include "net/party_runner.h"

namespace pcbench {

using namespace pcl;

namespace {

/// Median per-call cost in nanoseconds over five blocks, each block sized
/// to last at least ~20 ms.
double time_per_call_ns(const std::function<void()>& call) {
  std::size_t reps = 1;
  for (;;) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) call();
    if (now_ns() - t0 >= 20'000'000 || reps >= (1u << 24)) break;
    reps *= 4;
  }
  std::vector<double> blocks;
  for (int b = 0; b < 5; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) call();
    blocks.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(reps));
  }
  return median(std::move(blocks));
}

/// Ping-pong of one 8-byte message between two parties through
/// run_parties; the round-trip time is taken inside the pinging program.
double roundtrip_us(PartyTransport transport, std::size_t rounds) {
  std::uint64_t elapsed_ns = 0;
  std::vector<Party> parties;
  parties.push_back({"ping", [&](Channel& chan) {
                       const std::uint64_t t0 = now_ns();
                       for (std::size_t i = 0; i < rounds; ++i) {
                         MessageWriter out;
                         out.write_u64(i);
                         chan.send("pong", std::move(out));
                         MessageReader in = chan.recv("pong");
                         if (in.read_u64() != i) {
                           throw std::runtime_error("roundtrip probe: echo");
                         }
                       }
                       elapsed_ns = now_ns() - t0;
                     }});
  parties.push_back({"pong", [&](Channel& chan) {
                       for (std::size_t i = 0; i < rounds; ++i) {
                         MessageReader in = chan.recv("ping");
                         MessageWriter out;
                         out.write_u64(in.read_u64());
                         chan.send("ping", std::move(out));
                       }
                     }});
  PartyRunOptions options;
  options.transport = transport;
  (void)run_parties(parties, options);
  return static_cast<double>(elapsed_ns) / 1e3 / static_cast<double>(rounds);
}

}  // namespace

std::map<std::string, double> run_probes(const Workload& w) {
  std::map<std::string, double> out;
  DeterministicRng rng(0x70726f6265ULL);
  const PaillierKeyPair paillier =
      generate_paillier_key(w.config.paillier_bits, rng);
  const DgkKeyPair dgk = generate_dgk_key(w.config.dgk_params, rng);

  {
    const obs::Span span("probe.bigint");
    // Each modulus at the workload's width: Paillier n^2 and DGK n.
    const auto probe_modulus = [&](const std::string& tag,
                                   const BigInt& modulus,
                                   const BigInt& exponent) {
      const MontgomeryContext ctx(modulus);
      BigInt acc = rng.uniform_below(modulus);
      const BigInt factor = rng.uniform_below(modulus);
      out["bigint.mulmod_ns." + tag] =
          time_per_call_ns([&] { acc = ctx.mul_mod(acc, factor); });
      const BigInt base = rng.uniform_below(modulus);
      out["bigint.pow_us." + tag] =
          time_per_call_ns([&] { acc = ctx.pow(base, exponent); }) / 1e3;
    };
    // Exponents as the protocol uses them: r^n for a Paillier randomizer,
    // h^r with r of 2·v + 32 bits for a DGK one.
    probe_modulus("paillier_n2", paillier.pk.n_squared(), paillier.pk.n());
    probe_modulus("dgk_n", dgk.pk.n(),
                  rng.random_bits(2 * w.config.dgk_params.v_bits + 32));
  }

  {
    const obs::Span span("probe.crypto");
    const BigInt m(12345);
    PaillierCiphertext c = paillier.pk.encrypt(m, rng);
    out["crypto.paillier_encrypt_us"] =
        time_per_call_ns([&] { c = paillier.pk.encrypt(m, rng); }) / 1e3;
    BigInt plain;
    out["crypto.paillier_decrypt_us"] =
        time_per_call_ns([&] { plain = paillier.sk.decrypt(c); }) / 1e3;
    if (plain != m) throw std::runtime_error("paillier probe: round trip");
    DgkCiphertext d = dgk.pk.encrypt(std::uint64_t{0}, rng);
    out["crypto.dgk_encrypt_us"] =
        time_per_call_ns([&] { d = dgk.pk.encrypt(std::uint64_t{0}, rng); }) /
        1e3;
    bool zero = false;
    out["crypto.dgk_zero_test_us"] =
        time_per_call_ns([&] { zero = dgk.sk.is_zero(d); }) / 1e3;
    if (!zero) throw std::runtime_error("dgk probe: zero test");

    // Offline generation cost per item on streams of these keys, for the
    // workloads that run no offline phase of their own.
    PrecomputeService service;
    PaillierPowerStream& powers = service.paillier_powers(paillier.pk, 1);
    DgkPowerStream& blinding = service.dgk_powers(dgk.pk, 2);
    const std::size_t items = 8;
    out["crypto.precompute_item_us"] =
        time_per_call_ns([&] {
          powers.generate(items);
          blinding.generate(items);
        }) /
        1e3 / static_cast<double>(2 * items);
  }

  {
    const obs::Span span("probe.net");
    for (const auto& [tag, transport] :
         {std::pair{"threaded", PartyTransport::kThreaded},
          std::pair{"tcp", PartyTransport::kTcp}}) {
      std::vector<double> runs;
      for (int i = 0; i < 3; ++i) runs.push_back(roundtrip_us(transport, 1000));
      out[std::string("net.roundtrip_us.") + tag] = median(std::move(runs));
    }
  }
  return out;
}

}  // namespace pcbench
