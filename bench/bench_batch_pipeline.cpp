// Query-lane batched pipeline throughput (DESIGN.md §10).
//
// Measures the tentpole win of lane batching: a batch of Q queries run
// sequentially pays Alg. 5's communication rounds Q times, while the
// lane-batched mode coalesces all Q lanes' payloads into one frame per
// message slot — O(L·ell) rounds total instead of O(Q·L·ell).  On the
// threaded transport every saved round is a saved thread handoff; on TCP
// loopback it is a saved socket round trip, so the batched speedup grows
// with transport cost.  Crypto is deliberately slimmed below even the
// paper's 64-bit prototype: this bench isolates ROUND overhead, which is
// exactly what batching removes; bench_micro_crypto covers the kernels.
//
// Prints sequential vs batched wall time, throughput and message counts per
// transport and records everything in a pc-bench-v1 JSON when --json is
// given.  Two hard gates (exit 1): the released labels must agree between
// modes (batching must never change results), and the batched mode must cut
// the message count by at least 10x (the structural round win).  Wall-clock
// speedup is reported but not gated: it scales with core count (per-lane
// crypto fans out over the LanePool) and with transport latency (every
// eliminated round is a saved handoff/round trip), so on a single-core
// loopback CI box it sits near 1x while the round reduction is ~100x.
//
// The second section benches the offline/online phase split (DESIGN.md
// §15) at a 256-bit Paillier modulus, where encryption cost is no longer
// negligible.  The same batch runs three ways: UNDIVIDED (fresh
// encryptions, unpacked secure-sum — every exponentiation on the online
// path, the pre-split protocol), COLD (packed + pooled but with empty
// pools, so every draw is a pool miss; its per-stream miss counters are
// the exact demand of one batch), and WARM (pools filled offline with
// precisely that demand, then the batch replayed as the online phase).
// Offline and online walls are reported separately; two more hard gates
// pin the split's claims: the warm online wall must be at least 3x below
// the undivided wall, and plaintext packing must cut the per-user
// secure-sum submission to at most half the ciphertexts (here K=10
// labels ride in 1).  Cold and warm labels must agree — pool warmth
// moves work off the online path, never changes bytes.
//
//   bench_batch_pipeline [--smoke] [--json out.json] [queries] [users]
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "crypto/packing.h"
#include "crypto/precompute_service.h"
#include "mpc/consensus.h"
#include "net/party_runner.h"
#include "obs/clock.h"

namespace {

using namespace pcl;
using pclbench::fmt;
using pclbench::print_row;
using pclbench::print_title;

struct ModeTiming {
  double ms = 0.0;
  std::size_t messages = 0;
  std::vector<std::optional<int>> labels;
};

ModeTiming run_mode(ConsensusProtocol& protocol,
                    const std::vector<std::vector<std::vector<double>>>& batch,
                    std::uint64_t seed, ConsensusTransport transport,
                    BatchMode mode) {
  protocol.stats().clear();
  const std::uint64_t t0 = obs::monotonic_time_ns();
  const auto results = protocol.run_batch_seeded(batch, seed, transport, mode);
  ModeTiming out;
  out.ms = static_cast<double>(obs::monotonic_time_ns() - t0) / 1e6;
  for (const auto& entry : protocol.stats().traffic_entries()) {
    out.messages += entry.messages;
  }
  for (const auto& r : results) out.labels.push_back(r.label);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const pclbench::BenchCli cli = pclbench::parse_bench_cli(argc, argv);
  const std::size_t queries = static_cast<std::size_t>(
      std::stoul(cli.positional_or(0, cli.smoke ? "100" : "250")));
  const std::size_t users =
      static_cast<std::size_t>(std::stoul(cli.positional_or(1, "5")));

  // The paper's 10-label setting over minimal crypto (see header comment).
  ConsensusConfig cfg;
  cfg.num_classes = 10;
  cfg.num_users = users;
  cfg.threshold_fraction = 0.6;
  cfg.sigma1 = 1.0;
  cfg.sigma2 = 0.5;
  cfg.paillier_bits = 48;
  cfg.share_bits = 18;
  cfg.compare_bits = 26;
  cfg.dgk_params.n_bits = 96;
  cfg.dgk_params.v_bits = 16;
  cfg.dgk_params.plaintext_bound = 90;
  cfg.argmax_strategy = ArgmaxStrategy::kTournament;

  DeterministicRng keygen(7);
  ConsensusProtocol protocol(cfg, keygen);
  DeterministicRng vote_rng(20200706);

  // Realistic query mix: most instances have a clear majority (consensus),
  // some are contested (⊥), so the batch exercises lane drop-out.
  std::vector<std::vector<std::vector<double>>> batch;
  batch.reserve(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    const std::size_t majority = vote_rng.next_u64() % cfg.num_classes;
    std::vector<std::vector<double>> votes;
    votes.reserve(users);
    for (std::size_t u = 0; u < users; ++u) {
      std::vector<double> v(cfg.num_classes, 0.0);
      const bool dissent = q % 4 == 3 && u % 2 == 1;  // contested queries
      const std::size_t pick =
          dissent ? vote_rng.next_u64() % cfg.num_classes : majority;
      v[pick] = 1.0;
      votes.push_back(std::move(v));
    }
    batch.push_back(std::move(votes));
  }
  const std::uint64_t base_seed = 20200706;

  pclbench::BenchRecorder recorder("batch_pipeline");
  recorder.set_param("queries", static_cast<double>(queries));
  recorder.set_param("users", static_cast<double>(users));
  recorder.set_param("classes", static_cast<double>(cfg.num_classes));
  recorder.set_param("cores",
                     static_cast<double>(std::thread::hardware_concurrency()));
  protocol.set_observer(nullptr, &recorder.metrics());

  print_title("Query-lane batched pipeline (Q=" + std::to_string(queries) +
              ", |U|=" + std::to_string(users) + ", K=" +
              std::to_string(cfg.num_classes) + ")");
  print_row("transport", {"mode", "wall ms", "q/s", "messages"});

  bool all_match = true;
  bool rounds_collapse = true;
  for (const auto& [transport, name] :
       {std::pair{ConsensusTransport::kInProcess, std::string("in-process")},
        std::pair{ConsensusTransport::kThreaded, std::string("threaded")},
        std::pair{ConsensusTransport::kTcp, std::string("tcp")}}) {
    const ModeTiming seq = run_mode(protocol, batch, base_seed, transport,
                                    BatchMode::kSequential);
    const ModeTiming bat = run_mode(protocol, batch, base_seed, transport,
                                    BatchMode::kLaneBatched);
    const bool match = seq.labels == bat.labels;
    all_match = all_match && match;
    rounds_collapse = rounds_collapse && bat.messages * 10 <= seq.messages;
    const double speedup = bat.ms > 0.0 ? seq.ms / bat.ms : 0.0;

    print_row(name, {"sequential", fmt(seq.ms, 1),
                     fmt(1e3 * static_cast<double>(queries) / seq.ms, 1),
                     std::to_string(seq.messages)});
    print_row("", {"batched", fmt(bat.ms, 1),
                   fmt(1e3 * static_cast<double>(queries) / bat.ms, 1),
                   std::to_string(bat.messages)});
    std::printf("%-22s speedup %.2fx, rounds %zu -> %zu, labels %s\n",
                "", speedup, seq.messages, bat.messages,
                match ? "MATCH" : "MISMATCH");

    recorder.set_param("seq_" + name + "_ms", seq.ms);
    recorder.set_param("batch_" + name + "_ms", bat.ms);
    recorder.set_param("speedup_" + name, speedup);
    recorder.set_param("seq_" + name + "_messages",
                       static_cast<double>(seq.messages));
    recorder.set_param("batch_" + name + "_messages",
                       static_cast<double>(bat.messages));
  }

  // ---- Offline/online phase split (DESIGN.md §15) ----------------------
  // Same batch at 256-bit Paillier, lane-batched on the threaded
  // transport.  The undivided protocol is the pre-split one (fresh
  // encryptions, unpacked); cold and warm are the same packed + pooled
  // protocol, differing only in pool warmth (see header comment).
  ConsensusConfig split_cfg = cfg;
  split_cfg.paillier_bits = 256;
  DeterministicRng keygen_plain(7);
  ConsensusProtocol plain(split_cfg, keygen_plain);
  split_cfg.pack_secure_sum = true;

  PrecomputeService cold_svc, warm_svc;
  split_cfg.precompute = &cold_svc;
  DeterministicRng keygen_cold(7);
  ConsensusProtocol cold(split_cfg, keygen_cold);
  split_cfg.precompute = &warm_svc;
  DeterministicRng keygen_warm(7);
  ConsensusProtocol warm(split_cfg, keygen_warm);
  plain.set_observer(nullptr, &recorder.metrics());
  cold.set_observer(nullptr, &recorder.metrics());
  warm.set_observer(nullptr, &recorder.metrics());

  print_title("Offline/online split (256-bit Paillier, packed secure-sum)");
  const ModeTiming undivided = run_mode(plain, batch, base_seed,
                                        ConsensusTransport::kThreaded,
                                        BatchMode::kLaneBatched);
  const ModeTiming cold_run = run_mode(cold, batch, base_seed,
                                       ConsensusTransport::kThreaded,
                                       BatchMode::kLaneBatched);

  // Demand-driven warm-up: the cold service's per-stream miss counters ARE
  // the exact demand of one batch, so generate precisely that much on the
  // warm service's matching streams (same derivation convention, same
  // (key, seed) identities).  A serving daemon fills its streams the same
  // way from one query's measured demand
  // (ConsensusProtocol::precompute_demand); the bench reads each lane's
  // own count, so a ⊥ lane is filled with only the prefix it draws.
  std::vector<std::string> parties = {"S1", "S2"};
  for (std::size_t u = 0; u < users; ++u) {
    parties.push_back("user:" + std::to_string(u));
  }
  const std::uint64_t offline_t0 = obs::monotonic_time_ns();
  for (std::size_t q = 0; q < queries; ++q) {
    const std::uint64_t lane_seed = derive_party_seed(base_seed, q);
    for (const std::string& party : parties) {
      const PartyPrecompute demand = cold.party_precompute(party, lane_seed);
      const PartyPrecompute target = warm.party_precompute(party, lane_seed);
      target.powers_pk1->generate(demand.powers_pk1->stats().misses);
      target.powers_pk2->generate(demand.powers_pk2->stats().misses);
      if (demand.dgk_powers != nullptr) {
        target.dgk_powers->generate(demand.dgk_powers->stats().misses);
      }
    }
  }
  const double offline_ms =
      static_cast<double>(obs::monotonic_time_ns() - offline_t0) / 1e6;

  const ModeTiming online = run_mode(warm, batch, base_seed,
                                     ConsensusTransport::kThreaded,
                                     BatchMode::kLaneBatched);

  // Labels are a function of votes + seeded noise alone: neither the
  // modulus size, nor packing, nor pool warmth may change them.
  const bool split_match = undivided.labels == online.labels &&
                           cold_run.labels == online.labels;
  all_match = all_match && split_match;
  const double split_speedup =
      online.ms > 0.0 ? undivided.ms / online.ms : 0.0;
  const bool online_3x = online.ms * 3.0 <= undivided.ms;
  // The layout make_plan builds for this config (see consensus.cpp):
  // value_bits = share_bits + 3, one headroom addend per user plus one.
  const PackingLayout layout = make_packing_layout(
      cfg.num_classes, cfg.share_bits + 3, users + 1,
      split_cfg.paillier_bits - 2);
  const bool packing_halves = layout.num_cts * 2 <= cfg.num_classes;
  const PrecomputeStats cold_totals = cold_svc.totals();
  const PrecomputeStats warm_totals = warm_svc.totals();

  print_row("threaded+split", {"undivided", fmt(undivided.ms, 1),
                               fmt(1e3 * static_cast<double>(queries) /
                                       undivided.ms, 1),
                               std::to_string(undivided.messages)});
  print_row("", {"cold (pool miss)", fmt(cold_run.ms, 1),
                 fmt(1e3 * static_cast<double>(queries) / cold_run.ms, 1),
                 std::to_string(cold_run.messages)});
  print_row("", {"warm offline", fmt(offline_ms, 1), "-",
                 std::to_string(warm_totals.generated)});
  print_row("", {"warm online", fmt(online.ms, 1),
                 fmt(1e3 * static_cast<double>(queries) / online.ms, 1),
                 std::to_string(online.messages)});
  std::printf(
      "%-22s online speedup %.2fx (gate 3x), labels %s\n"
      "%-22s pool: cold misses %llu, warm hits %llu / misses %llu\n"
      "%-22s packing: %zu labels -> %zu ct/user/server (%zu slots/ct)\n",
      "", split_speedup, split_match ? "MATCH" : "MISMATCH", "",
      static_cast<unsigned long long>(cold_totals.misses),
      static_cast<unsigned long long>(warm_totals.hits),
      static_cast<unsigned long long>(warm_totals.misses), "",
      cfg.num_classes, layout.num_cts, layout.slots_per_ct);

  recorder.set_param("undivided_ms", undivided.ms);
  recorder.set_param("cold_ms", cold_run.ms);
  recorder.set_param("offline_ms", offline_ms);
  recorder.set_param("online_ms", online.ms);
  recorder.set_param("online_ms_per_query",
                     online.ms / static_cast<double>(queries));
  recorder.set_param("split_speedup", split_speedup);
  recorder.set_param("pool_cold_misses",
                     static_cast<double>(cold_totals.misses));
  recorder.set_param("pool_warm_hits", static_cast<double>(warm_totals.hits));
  recorder.set_param("pool_warm_misses",
                     static_cast<double>(warm_totals.misses));
  recorder.set_param("pool_generated",
                     static_cast<double>(warm_totals.generated));
  recorder.set_param("packed_cts_per_submission",
                     static_cast<double>(layout.num_cts));
  recorder.set_param("packed_slots_per_ct",
                     static_cast<double>(layout.slots_per_ct));

  if (!cli.json_path.empty()) recorder.write_json(cli.json_path);
  if (!all_match) {
    std::printf("FAIL: batched labels diverge from sequential\n");
    return 1;
  }
  if (!rounds_collapse) {
    std::printf("FAIL: batched mode did not cut the message count 10x\n");
    return 1;
  }
  if (!online_3x) {
    std::printf("FAIL: warm online wall not 3x below the undivided wall "
                "(%.1f ms vs %.1f ms)\n", online.ms, undivided.ms);
    return 1;
  }
  if (!packing_halves) {
    std::printf("FAIL: packing did not halve the secure-sum ciphertext "
                "count (%zu cts for %zu labels)\n",
                layout.num_cts, cfg.num_classes);
    return 1;
  }
  std::printf(
      "PASS: batched == sequential on every transport, rounds collapsed, "
      "warm online wall %.1fx below undivided, %zu labels packed into %zu "
      "cts\n", split_speedup, cfg.num_classes, layout.num_cts);
  return 0;
}
