// pc_bench — the private-consensus end-to-end and per-layer benchmark.
//
//   pc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>]
//
// --trace 0 runs the workload untraced for <s> seconds and reports the
// end-to-end metrics.  --trace 1 runs it untraced for <s>/2 seconds, replays
// the same requests traced, times the layer probes, and reports the
// per-layer metrics.  Either way a sample of released labels is replayed
// against the sequential in-process reference (outside every timed region),
// a pc-bench-v1 record goes to <dir>, and the last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  A traced run also
// writes its spans as a pc-trace-v1 file.  Exit status 1 means a check
// failed (a request threw, a session closed with an error, a label differed
// from the reference, or tracing changed the traffic); 2 means bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "mpc/lane_pool.h"
#include "net/party_runner.h"
#include "obs/export.h"

namespace {

using namespace pcbench;
using pcl::obs::JsonValue;

/// The metrics the last stdout line carries, by mode.  BENCHMARK.json at
/// the repository root lists the same names.
const std::vector<std::string> kEndToEnd = {
    "setup_s",         "queries_per_s",      "latency_p50_ms",
    "cpu_s_per_query", "bytes_per_query",    "messages_per_query",
    "peak_rss_mb",
};
const std::vector<std::string> kPerLayer = {
    "bigint.modmul_per_query",
    "bigint.modexp_per_query",
    "bigint.mulmod_ns.paillier_n2",
    "bigint.mulmod_ns.dgk_n",
    "bigint.pow_us.paillier_n2",
    "bigint.pow_us.dgk_n",
    "crypto.paillier_encrypt_per_query",
    "crypto.paillier_decrypt_per_query",
    "crypto.paillier_add_per_query",
    "crypto.dgk_encrypt_per_query",
    "crypto.dgk_zero_test_per_query",
    "crypto.paillier_encrypt_us",
    "crypto.paillier_decrypt_us",
    "crypto.dgk_encrypt_us",
    "crypto.dgk_zero_test_us",
    "crypto.precompute_item_us",
    "crypto.pool_miss_per_query",
    "crypto.precompute_hit_ratio",
    "crypto.precompute_useful_ratio",
    "mpc.step_ms.secure_sum_2",
    "mpc.step_ms.bnp_3",
    "mpc.step_ms.compare_4",
    "mpc.step_ms.threshold_5",
    "mpc.step_ms.secure_sum_6",
    "mpc.step_ms.bnp_7",
    "mpc.step_ms.compare_8",
    "mpc.step_ms.restore_9",
    "mpc.unattributed_ms",
    "mpc.dgk_compare_per_query",
    "mpc.compare_bit_per_query",
    "mpc.released_ratio",
    "net.messages_per_request",
    "net.bytes_per_message",
    "net.roundtrip_us.threaded",
    "net.roundtrip_us.tcp",
    "session.queue_ms_p50",
    "session.queue_ms_tail",
    "session.run_ms_p50",
    "session.overhead_ms_p50",
    "obs.trace_overhead_ratio",
    "obs.spans_per_query",
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/out";
};

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\nworkloads:",
               argv0, why.c_str(), argv0);
  for (const Workload& w : all_workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage(argv[0], "--trace is 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--out") {
        o.out_dir = value;
      } else {
        usage(argv[0], "unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage(argv[0], "bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage(argv[0], "--workload is required");
  if (!(o.seconds > 0.0)) usage(argv[0], "--seconds must be positive");
  return o;
}

// ---- Metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  ///< what the value was computed from
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit,
           std::string base = "") {
    list_.push_back({std::move(name), value, std::move(unit), std::move(base)});
  }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : list_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  [[nodiscard]] const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

std::string fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> request_walls_ms(const Pass& pass) {
  std::vector<double> out;
  for (const RequestRecord& r : pass.requests) {
    if (!r.failed) out.push_back(r.wall_ms());
  }
  return out;
}

void add_end_to_end(const Workload& w, const std::vector<double>& setup_s,
                    const Pass& pass, Metrics& m) {
  const auto queries = static_cast<double>(pass.queries());
  const std::string q_base = std::to_string(pass.queries()) + " queries";
  std::string setups;
  for (const double s : setup_s) setups += (setups.empty() ? "" : ", ") + fmt(s);
  m.add("setup_s", median(setup_s), "s",
        "median of " + std::to_string(setup_s.size()) + " set-ups [" + setups +
            "]");
  m.add("queries_per_s", per(queries, pass.wall_s), "1/s",
        q_base + " / " + fmt(pass.wall_s) + " s timed wall" +
            (w.kind == Kind::kSplit ? " (online phases)" : ""));
  const std::vector<double> walls = request_walls_ms(pass);
  m.add("latency_p50_ms", median(walls), "ms",
        "median of " + std::to_string(walls.size()) + " requests, range " +
            (walls.empty() ? std::string("-")
                           : fmt(*std::min_element(walls.begin(), walls.end())) +
                                 "-" +
                                 fmt(*std::max_element(walls.begin(), walls.end()))));
  if (const std::optional<Tail> t = tail(walls)) {
    m.add("latency_tail_ms", t->value, "ms",
          "p" + fmt(t->percentile, 3) + " of " + std::to_string(t->samples) +
              " requests, " + std::to_string(t->beyond) + " beyond");
  }
  m.add("cpu_s_per_query", per(pass.cpu_s, queries), "s",
        fmt(pass.cpu_s) + " CPU-s / " + q_base);
  if (w.kind == Kind::kSplit) {
    m.add("offline_s_per_query", per(pass.offline_s, queries), "s",
          fmt(pass.offline_s) + " s offline wall / " + q_base);
  }
  m.add("bytes_per_query", per(static_cast<double>(pass.bytes), queries), "B",
        std::to_string(pass.bytes) + " B / " + q_base);
  m.add("messages_per_query", per(static_cast<double>(pass.messages), queries),
        "count", std::to_string(pass.messages) + " messages / " + q_base);
  m.add("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of /proc/self/status");
}

/// Per-request session split.  serve: S1 admission -> S1 callback start
/// (queue), the callback's run_party_session (run), client-observed session
/// time minus run (overhead).  Batch workloads: request start -> S1's first
/// step span (queue), S1's first step start -> last step end (run), request
/// wall minus run (overhead).
struct SessionSplit {
  std::vector<double> queue_ms, run_ms, overhead_ms;
};

SessionSplit session_split(const Workload& w, const Pass& pass) {
  SessionSplit out;
  for (const RequestRecord& r : pass.requests) {
    if (r.failed) continue;
    double queue = 0.0, run = 0.0;
    if (w.kind == Kind::kServe) {
      queue = static_cast<double>(r.s1_start_ns - r.s1_opened_ns) / 1e6;
      run = static_cast<double>(r.s1_run_ns) / 1e6;
    } else if (!r.s1_steps.empty()) {
      std::uint64_t first = r.s1_steps.front().start_ns, last = 0;
      for (const auto& e : r.s1_steps) {
        first = std::min(first, e.start_ns);
        last = std::max(last, e.start_ns + e.duration_ns);
      }
      queue = static_cast<double>(first - r.start_ns) / 1e6;
      run = static_cast<double>(last - first) / 1e6;
    }
    out.queue_ms.push_back(queue);
    out.run_ms.push_back(run);
    out.overhead_ms.push_back(r.wall_ms() - run);
  }
  return out;
}

void add_per_layer(const Workload& w, const Pass& untraced, const Pass& traced,
                   const std::map<std::string, double>& probes,
                   std::size_t bench_spans, Metrics& m) {
  const auto queries = static_cast<double>(traced.queries());
  const auto requests = static_cast<double>(traced.requests.size());
  const std::string q_base = "traced pass, " +
                             std::to_string(traced.queries()) + " queries";
  const auto op = [&](const char* name) {
    const auto it = traced.ops.find(name);
    return it == traced.ops.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto count_per_query = [&](const std::string& metric,
                                   const char* op_name) {
    m.add(metric, per(op(op_name), queries), "count",
          fmt(op(op_name), 10) + " " + op_name + " / " + q_base);
  };
  const auto probe = [&](const std::string& metric, const char* unit,
                         const std::string& base) {
    m.add(metric, probes.at(metric), unit, base);
  };
  const std::string n2_width =
      std::to_string(2 * w.config.paillier_bits) + "-bit n^2";
  const std::string dgk_width =
      std::to_string(w.config.dgk_params.n_bits) + "-bit n";

  // bigint
  count_per_query("bigint.modmul_per_query", "bigint.modmul");
  count_per_query("bigint.modexp_per_query", "bigint.modexp");
  probe("bigint.mulmod_ns.paillier_n2", "ns",
        "MontgomeryContext::mul_mod, " + n2_width);
  probe("bigint.mulmod_ns.dgk_n", "ns",
        "MontgomeryContext::mul_mod, " + dgk_width);
  probe("bigint.pow_us.paillier_n2", "us",
        "MontgomeryContext::pow, exponent n, " + n2_width);
  probe("bigint.pow_us.dgk_n", "us",
        "MontgomeryContext::pow, " +
            std::to_string(2 * w.config.dgk_params.v_bits + 32) +
            "-bit exponent, " + dgk_width);

  // crypto
  count_per_query("crypto.paillier_encrypt_per_query", "paillier.encrypt");
  count_per_query("crypto.paillier_decrypt_per_query", "paillier.decrypt");
  count_per_query("crypto.paillier_add_per_query", "paillier.add");
  count_per_query("crypto.dgk_encrypt_per_query", "dgk.encrypt");
  count_per_query("crypto.dgk_zero_test_per_query", "dgk.zero_test");
  const std::string keys =
      std::to_string(w.config.paillier_bits) + "-bit Paillier key";
  const std::string dgk_key = std::to_string(w.config.dgk_params.n_bits) +
                              "/" + std::to_string(w.config.dgk_params.v_bits) +
                              "-bit DGK key";
  probe("crypto.paillier_encrypt_us", "us", "PaillierPublicKey::encrypt, " + keys);
  probe("crypto.paillier_decrypt_us", "us", "PaillierPrivateKey::decrypt, " + keys);
  probe("crypto.dgk_encrypt_us", "us", "DgkPublicKey::encrypt, " + dgk_key);
  probe("crypto.dgk_zero_test_us", "us", "DgkPrivateKey::is_zero, " + dgk_key);
  if (w.kind == Kind::kSplit) {
    const auto draws = untraced.pool_hits + untraced.pool_misses;
    m.add("crypto.precompute_item_us",
          per(untraced.offline_s * 1e6,
              static_cast<double>(untraced.offline_items)),
          "us",
          fmt(untraced.offline_s) + " s offline wall / " +
              std::to_string(untraced.offline_items) + " items (untraced)");
    m.add("crypto.pool_miss_per_query",
          per(static_cast<double>(untraced.pool_misses),
              static_cast<double>(untraced.queries())),
          "count",
          std::to_string(untraced.pool_misses) + " misses / " +
              std::to_string(untraced.queries()) + " queries (untraced)");
    m.add("crypto.precompute_hit_ratio",
          per(static_cast<double>(untraced.pool_hits),
              static_cast<double>(draws)),
          "ratio",
          std::to_string(untraced.pool_hits) + " hits / " +
              std::to_string(draws) + " draws");
    m.add("crypto.precompute_useful_ratio",
          per(static_cast<double>(untraced.pool_hits),
              static_cast<double>(untraced.pool_generated)),
          "ratio",
          std::to_string(untraced.pool_hits) + " hits / " +
              std::to_string(untraced.pool_generated) + " generated");
  } else {
    probe("crypto.precompute_item_us", "us",
          "probe: 8 Paillier + 8 DGK stream powers per call (no offline "
          "phase on this workload)");
    m.add("crypto.pool_miss_per_query", 0.0, "count", "no precompute attached");
    m.add("crypto.precompute_hit_ratio", 0.0, "ratio", "0 draws");
    m.add("crypto.precompute_useful_ratio", 0.0, "ratio", "0 generated");
  }

  // mpc
  double step_total_ms = 0.0;
  for (const StepTag& step : kSteps) {
    double ns = 0.0;
    for (const RequestRecord& r : traced.requests) {
      for (const auto& e : r.s1_steps) {
        if (e.name == step.tag) ns += static_cast<double>(e.duration_ns);
      }
    }
    const double ms = per(ns / 1e6, requests);
    step_total_ms += ms;
    m.add(std::string("mpc.step_ms.") + step.metric, ms, "ms",
          std::string("S1 '") + step.tag + "' span wall / " +
              std::to_string(traced.requests.size()) + " requests");
  }
  const std::vector<double> walls = request_walls_ms(traced);
  double wall_sum = 0.0;
  for (const double v : walls) wall_sum += v;
  const double mean_wall = per(wall_sum, static_cast<double>(walls.size()));
  m.add("mpc.unattributed_ms", mean_wall - step_total_ms, "ms",
        "mean request wall " + fmt(mean_wall) + " ms - step spans " +
            fmt(step_total_ms) + " ms");
  count_per_query("mpc.dgk_compare_per_query", "dgk.compare");
  count_per_query("mpc.compare_bit_per_query", "dgk.compare_bit");
  m.add("mpc.released_ratio",
        per(static_cast<double>(traced.released()), queries), "ratio",
        std::to_string(traced.released()) + " released / " + q_base);

  // net
  m.add("net.messages_per_request",
        per(static_cast<double>(traced.messages), requests), "count",
        std::to_string(traced.messages) + " messages / " +
            std::to_string(traced.requests.size()) + " requests");
  m.add("net.bytes_per_message",
        per(static_cast<double>(traced.bytes),
            static_cast<double>(traced.messages)),
        "B",
        std::to_string(traced.bytes) + " B / " +
            std::to_string(traced.messages) + " messages");
  probe("net.roundtrip_us.threaded", "us",
        "run_parties ping-pong, 8-byte message, median of 3 x 1000");
  probe("net.roundtrip_us.tcp", "us",
        "run_parties ping-pong over loopback TCP, median of 3 x 1000");

  // net/session
  const SessionSplit split = session_split(w, traced);
  const std::string how =
      w.kind == Kind::kServe ? "S1 admission -> program callback"
                                 : "request start -> S1's first step span";
  m.add("session.queue_ms_p50", median(split.queue_ms), "ms",
        how + ", median of " + std::to_string(split.queue_ms.size()));
  if (const std::optional<Tail> t = tail(split.queue_ms)) {
    m.add("session.queue_ms_tail", t->value, "ms",
          how + ", p" + fmt(t->percentile, 3) + " of " +
              std::to_string(t->samples) + ", " + std::to_string(t->beyond) +
              " beyond");
  } else {
    const double worst =
        split.queue_ms.empty()
            ? 0.0
            : *std::max_element(split.queue_ms.begin(), split.queue_ms.end());
    m.add("session.queue_ms_tail", worst, "ms",
          how + ", maximum of " + std::to_string(split.queue_ms.size()) +
              " (too few for a tail with 10 beyond)");
  }
  m.add("session.run_ms_p50", median(split.run_ms), "ms",
        w.kind == Kind::kServe ? "S1 run_party_session"
                                   : "S1 first step start -> last step end");
  m.add("session.overhead_ms_p50", median(split.overhead_ms), "ms",
        w.kind == Kind::kServe ? "client session time - S1 run"
                                   : "request wall - S1 run");

  // obs
  m.add("obs.trace_overhead_ratio", per(traced.wall_s, untraced.wall_s),
        "ratio",
        fmt(traced.wall_s) + " s traced / " + fmt(untraced.wall_s) +
            " s untraced, same " + std::to_string(traced.requests.size()) +
            " requests");
  m.add("obs.spans_per_query",
        per(static_cast<double>(traced.events.size()), queries), "count",
        std::to_string(traced.events.size()) + " program spans (+" +
            std::to_string(bench_spans) + " bench spans) / " + q_base);
}

// ---- Checks ---------------------------------------------------------------

struct Verdict {
  std::size_t checked = 0;
  std::vector<std::string> problems;
  std::vector<std::uint64_t> bad_requests;  ///< request indices
};

/// Replays a seeded sample of the pass's labels through run_query_seeded
/// on the reference configuration and compares them.
void check_labels(const Workload& w, std::uint64_t seed, const Pass& pass,
                  Verdict& v) {
  struct Item {
    std::uint64_t request;
    std::uint64_t base_seed;
    std::size_t lane;
    std::optional<int> label;
  };
  std::vector<Item> items;
  for (const RequestRecord& r : pass.requests) {
    for (std::size_t q = 0; q < r.labels.size(); ++q) {
      items.push_back({r.index, r.base_seed, q, r.labels[q]});
    }
  }
  if (items.size() > w.reference_sample) {
    pcl::DeterministicRng pick(pcl::derive_party_seed(seed, 0x726566ULL));
    for (std::size_t i = 0; i < w.reference_sample; ++i) {
      std::swap(items[i], items[i + pick.index_below(items.size() - i)]);
    }
    items.resize(w.reference_sample);
  }
  // Replays fan out over the LanePool, each on its own reference (the
  // paper-size key generation costs milliseconds).
  std::vector<std::optional<int>> expected(items.size());
  pcl::LanePool::shared().run(items.size(), [&](std::size_t i) {
    expected[i] =
        make_reference(w)
            ->run_query_seeded(
                make_query(w, seed, items[i].request * w.lanes + items[i].lane),
                pcl::derive_party_seed(items[i].base_seed, items[i].lane))
            .label;
  });

  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    ++v.checked;
    if (expected[i] != item.label) {
      const auto show = [](const std::optional<int>& l) {
        return l ? std::to_string(*l) : std::string("⊥");
      };
      v.problems.push_back("request " + std::to_string(item.request) +
                           " lane " + std::to_string(item.lane) +
                           ": label " + show(item.label) + ", reference " +
                           show(expected[i]));
      v.bad_requests.push_back(item.request);
    }
  }
}

/// The traced pass replays the untraced requests: labels and every byte
/// count must match (instrumentation never perturbs traffic).
void check_replay(const Pass& untraced, const Pass& traced, Verdict& v) {
  if (untraced.bytes != traced.bytes || untraced.messages != traced.messages) {
    v.problems.push_back(
        "tracing changed the traffic: " + std::to_string(untraced.bytes) +
        " B / " + std::to_string(untraced.messages) + " messages untraced, " +
        std::to_string(traced.bytes) + " B / " +
        std::to_string(traced.messages) + " messages traced");
  }
  for (std::size_t i = 0;
       i < std::min(untraced.requests.size(), traced.requests.size()); ++i) {
    if (untraced.requests[i].labels != traced.requests[i].labels) {
      v.problems.push_back("request " +
                           std::to_string(traced.requests[i].index) +
                           ": traced labels differ from untraced");
      v.bad_requests.push_back(traced.requests[i].index);
    }
  }
}

/// Requests that threw, closed with an error, or released a label a check
/// rejected; each of the first two kinds is also recorded as a problem.
std::size_t count_failed(const std::vector<const Pass*>& passes, Verdict& v) {
  std::size_t failed = 0;
  for (const Pass* pass : passes) {
    for (const RequestRecord& r : pass->requests) {
      const bool mismatch =
          std::find(v.bad_requests.begin(), v.bad_requests.end(), r.index) !=
          v.bad_requests.end();
      if (r.failed) {
        v.problems.push_back("request " + std::to_string(r.index) +
                             " failed: " + r.error);
      }
      failed += (r.failed || mismatch) ? 1 : 0;
    }
  }
  return failed;
}

// ---- Output ---------------------------------------------------------------

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : fallback;
}

JsonValue::Object workload_params(const Workload& w) {
  const pcl::ConsensusConfig& c = w.config;
  JsonValue::Object p;
  p["profile"] = JsonValue(w.profile);
  p["classes_K"] = JsonValue(static_cast<double>(c.num_classes));
  p["users_U"] = JsonValue(static_cast<double>(c.num_users));
  p["threshold_fraction"] = JsonValue(c.threshold_fraction);
  p["threshold_T"] = JsonValue(c.threshold_fraction *
                               static_cast<double>(c.num_users));
  p["sigma1"] = JsonValue(c.sigma1);
  p["sigma2"] = JsonValue(c.sigma2);
  p["paillier_bits"] = JsonValue(static_cast<double>(c.paillier_bits));
  p["dgk_n_bits"] = JsonValue(static_cast<double>(c.dgk_params.n_bits));
  p["dgk_v_bits"] = JsonValue(static_cast<double>(c.dgk_params.v_bits));
  p["dgk_plaintext_bound"] =
      JsonValue(static_cast<double>(c.dgk_params.plaintext_bound));
  p["share_bits"] = JsonValue(static_cast<double>(c.share_bits));
  p["compare_bits_ell"] = JsonValue(static_cast<double>(c.compare_bits));
  p["argmax"] = JsonValue(c.argmax_strategy == pcl::ArgmaxStrategy::kAllPairs
                              ? "all-pairs"
                              : "tournament");
  p["threshold_check_all_positions"] = JsonValue(c.threshold_check_all_positions);
  p["packed_secure_sum"] = JsonValue(c.pack_secure_sum);
  p["precompute"] = JsonValue(w.kind == Kind::kSplit);
  p["lanes_per_request"] = JsonValue(static_cast<double>(w.lanes));
  p["transport"] = JsonValue(w.kind == Kind::kServe ? "session-tcp"
                                                        : "threaded");
  p["mode"] = JsonValue(w.kind == Kind::kServe ? "sequential-session"
                                                   : "lane-batched");
  return p;
}

void print_table(const Metrics& m) {
  std::printf("%-34s %14s %-6s %s\n", "metric", "value", "unit", "base");
  for (const Metric& x : m.list()) {
    std::printf("%-34s %14s %-6s %s\n", x.name.c_str(), fmt(x.value, 6).c_str(),
                x.unit.c_str(), x.base.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // Line-buffered, so a run killed at its deadline still shows its report.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    const Workload& w = find_workload(opt.workload);
    const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    std::printf("== pc-bench %s: seed %llu, %g s, %s ==\n", w.name.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? "traced" : "untraced");
    std::printf("why: %s\n", w.why.c_str());

    // An untraced run times several set-ups before its warm-up, several
    // after its pass and, on the batch workloads, more between the pass's
    // requests; setup_s is their median, so it samples the whole run.  A
    // traced run does not report set-up time and sets up once.
    // Wall spent in each phase of the run, printed as its timeline.
    std::string timeline;
    std::uint64_t lap_ns = now_ns();
    const auto lap = [&](const char* phase) {
      const std::uint64_t t = now_ns();
      timeline += std::string(timeline.empty() ? "" : ", ") + phase + " " +
                  fmt(static_cast<double>(t - lap_ns) / 1e9, 3) + " s";
      lap_ns = t;
      std::fprintf(stderr, "pc_bench: %s done\n", phase);
    };
    SetupResult setup = make_system(w, opt.seed, !opt.trace);
    System& system = *setup.system;
    lap("set-up");
    system.warm_up();
    setup.spares.clear();
    lap("warm-up");

    Metrics metrics;
    Verdict verdict;
    pcl::obs::TraceSink bench_sink;
    Pass untraced, traced;
    std::vector<const Pass*> passes;
    if (!opt.trace) {
      untraced = system.run(0, PassLimit{opt.seconds, 0, true}, false, nullptr);
      passes = {&untraced};
      lap("pass");
      // These outlive the verify, for the reason SetupResult::spares gives.
      const SetupResult after = make_system(w, opt.seed, true);
      lap("set-up after");
      check_labels(w, opt.seed, untraced, verdict);
      lap("verify");
      std::vector<double> setup_s = setup.setup_s;
      setup_s.insert(setup_s.end(), after.setup_s.begin(), after.setup_s.end());
      setup_s.insert(setup_s.end(), untraced.setup_s.begin(),
                     untraced.setup_s.end());
      add_end_to_end(w, setup_s, untraced, metrics);
    } else {
      untraced = system.run(0, PassLimit{opt.seconds / 2, 0}, false, nullptr);
      lap("untraced pass");
      traced = system.run(0, PassLimit{0.0, untraced.requests.size()}, true,
                          &bench_sink);
      passes = {&untraced, &traced};
      lap("traced pass");
      check_replay(untraced, traced, verdict);
      std::map<std::string, double> probes;
      {
        const BenchScope bench(&bench_sink);
        probes = run_probes(w);
        lap("probes");
        const pcl::obs::Span span("verify");
        check_labels(w, opt.seed, untraced, verdict);
        lap("verify");
      }
      add_per_layer(w, untraced, traced, probes, bench_sink.size(), metrics);
    }

    const std::size_t failed = count_failed(passes, verdict);
    std::size_t attempted = 0;
    for (const Pass* p : passes) attempted += p->requests.size();
    metrics.add("failed_frac",
                per(static_cast<double>(failed), static_cast<double>(attempted)),
                "ratio",
                std::to_string(failed) + " failed / " +
                    std::to_string(attempted) + " requests; " +
                    std::to_string(verdict.checked) +
                    " labels replayed against the reference");

    // Context stamped into the record and printed.
    const std::string build = PC_BENCH_BUILD_TYPE;
    const std::string git_rev = env_or("PCL_GIT_REV", "unknown");
    JsonValue::Object context;
    context["workload"] = JsonValue(w.name);
    context["seed"] = JsonValue(static_cast<double>(opt.seed));
    context["seconds"] = JsonValue(opt.seconds);
    context["traced"] = JsonValue(opt.trace);
    context["nproc"] = JsonValue(static_cast<double>(nproc));
    context["build_type"] = JsonValue(build);
    context["git_rev"] = JsonValue(git_rev);
    const std::size_t lane_workers = pcl::LanePool::shared().thread_count();
    context["lane_pool_workers"] = JsonValue(static_cast<double>(lane_workers));
    context["params"] = JsonValue(workload_params(w));
    std::printf("context: nproc %zu, build %s, git %s, LanePool workers %zu\n",
                nproc, build.c_str(), git_rev.c_str(),
                lane_workers);
    std::printf("params: %s\n", JsonValue(workload_params(w)).dump().c_str());
    std::printf("timeline: %s\n", timeline.c_str());
    print_table(metrics);
    for (const std::string& p : verdict.problems) {
      std::printf("FAIL: %s\n", p.c_str());
    }

    // pc-bench-v1 record (and, traced, the pc-trace-v1 artifact).
    std::filesystem::create_directories(opt.out_dir);
    const std::string stem = opt.out_dir + "/" + w.name + "-seed" +
                             std::to_string(opt.seed) +
                             (opt.trace ? "-traced" : "");
    std::map<std::string, double> params;
    JsonValue::Object units, bases;
    for (const Metric& x : metrics.list()) {
      params[x.name] = x.value;
      units[x.name] = JsonValue(x.unit);
      bases[x.name] = JsonValue(x.base);
    }
    const Pass& main_pass = opt.trace ? traced : untraced;
    JsonValue record = pcl::obs::build_bench_json(
        "pc-bench/" + w.name, params, main_pass.wall_s * 1e3, main_pass.bytes,
        main_pass.ops);
    JsonValue::Object host;
    host["cpus"] = JsonValue(static_cast<double>(nproc));
    host["preset"] = JsonValue(build);
    host["git_rev"] = JsonValue(git_rev);
    record.as_object()["host"] = JsonValue(std::move(host));
    record.as_object()["context"] = JsonValue(std::move(context));
    record.as_object()["units"] = JsonValue(std::move(units));
    record.as_object()["bases"] = JsonValue(std::move(bases));
    pcl::obs::write_text_file(stem + ".bench.json", record.dump(2) + "\n");
    std::printf("record: %s.bench.json\n", stem.c_str());
    if (opt.trace) {
      std::vector<pcl::obs::TraceEvent> events = traced.events;
      for (pcl::obs::TraceEvent& e : bench_sink.events()) {
        events.push_back(std::move(e));
      }
      pcl::obs::write_text_file(
          stem + ".trace.json",
          pcl::obs::build_trace_json(events, traced.traffic, nullptr).dump() +
              "\n");
      std::printf("trace: %s.trace.json\n", stem.c_str());
    }

    // The last line: the result object.
    const bool correct = verdict.problems.empty() && failed == 0;
    JsonValue::Object out_metrics;
    for (const std::string& name : opt.trace ? kPerLayer : kEndToEnd) {
      const Metric* x = metrics.find(name);
      if (x == nullptr) throw std::logic_error("metric not computed: " + name);
      JsonValue::Object entry;
      entry["value"] = JsonValue(x->value);
      entry["unit"] = JsonValue(x->unit);
      out_metrics[name] = JsonValue(std::move(entry));
    }
    JsonValue::Object result;
    result["correct"] = JsonValue(correct);
    result["attempted"] = JsonValue(static_cast<double>(attempted));
    result["failed"] = JsonValue(static_cast<double>(failed));
    result["metrics"] = JsonValue(std::move(out_metrics));
    std::fflush(stdout);
    std::printf("%s\n", JsonValue(std::move(result)).dump().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pc_bench: %s\n", e.what());
    return 1;
  }
}
