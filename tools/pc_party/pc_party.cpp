// pc_party — one consensus party per OS process, over real TCP.
//
// The protocol code this daemon runs is exactly the party-program layer the
// in-process tests exercise (the one-lane case of mpc/consensus_batch.h, via
// ConsensusProtocol::run_party_seeded); only the Channel underneath changes.
// Two modes:
//
//   pc_party --role S1 --endpoints hosts.txt [options]
//     Run ONE party against an endpoint map ("name host:port" per line;
//     see PROTOCOL.md "Deployment").  Every process must be started with
//     the same --users/--classes/--seed/--keygen-seed/--votes so each
//     derives the identical keys, inputs and noise plan; the sockets carry
//     everything else.  Start order does not matter: dialers retry with
//     backoff for the full connect budget.
//
//   pc_party --all [options]
//     Single-machine orchestrator: binds the server listeners on ephemeral
//     loopback ports, forks one child per party (S1, S2, user:0..U-1), and
//     reaps them under a deadline — a wedged run is killed, never hung.
//     With --check-parity the parent then replays the same seeded query
//     in-process and asserts the children's merged per-step traffic is
//     byte-identical (the ISSUE acceptance gate).  With --fail-user K,
//     user K connects and then dies; the run asserts every surviving party
//     exits with a TYPED transport error (ChannelClosed/ChannelTimeout
//     mapped to exit code 3) within the deadline.
//
// Per-party artifacts land in --out: traffic-<party>.json (schema
// "pc-traffic-v1": the party's sent TrafficStats rows plus its released
// label) and, with --trace, trace-<party>.json ("pc-trace-v1", tagged with
// pc.process so `pc_trace --merge` can realign them onto one timeline).
// A party that dies with a typed transport error additionally dumps its
// flight recorder as flight-<party>.json (also "pc-trace-v1"); a
// --fail-user run merges the survivors' dumps into flight-merged.json.
// With --admin host:port the serving party (S1 under --all) exposes live
// "pc-metrics-v1" snapshots — per-step op counters and latency percentiles
// — over the src/net frame codec for `pc_trace --live`, writes the bound
// endpoint to <out>/admin.txt, and with --linger-ms keeps serving after
// the run until a quit command or the deadline.
//
// Serving mode (net/session/) turns the one-query process into a daemon:
//
//   pc_party --serve --role S1|S2 --endpoints hosts.txt [options]
//     Multi-session server: a reactor thread owns every connection, a
//     SessionManager admits SESSION_OPENs up to --max-sessions and runs
//     each session's party program on a FIFO worker pool.  Sessions are
//     independent seeded queries multiplexed over persistent session-tagged
//     connections; per-session artifacts land as traffic-<role>-s<id>.json
//     (plus trace-/flight- variants).  The admin endpoint (always mounted,
//     --admin or ephemeral; published to <out>/admin-<role>.txt) serves
//     "metrics" (aggregate pc-metrics-v1 across live sessions), "sessions"
//     (the pc-sessions-v1 live table) and "quit" (drain-then-exit: stop
//     admitting, finish active sessions, then leave).
//
//   pc_party --serve-all --sessions N [--fail-session K] [options]
//     Serving-mode orchestrator: forks an S1 and an S2 daemon, drives N
//     sessions from an in-process SessionClient, validates the daemons'
//     live admin snapshots, quits both, and then replays every session's
//     seed in-process to assert the per-session merged traffic is
//     byte-identical to an isolated run (the ISSUE acceptance gate).
//     --fail-session K abandons session K after opening it: the daemons'
//     recv deadlines must fail exactly that session with a typed error
//     (flight dumps written) while every other session stays byte-exact.
//
// Exit codes: 0 success, 2 usage, 3 typed transport failure (ChannelError),
// 42 injected fault, 1 anything else.
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bigint/rng.h"
#include "crypto/precompute_service.h"
#include "mpc/consensus.h"
#include "net/errors.h"
#include "net/party_runner.h"
#include "net/session/session_client.h"
#include "net/session/session_server.h"
#include "net/tcp_admin.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using pcl::obs::JsonValue;

constexpr const char* kTrafficSchema = "pc-traffic-v1";

struct Options {
  bool all = false;
  std::string role;            ///< single-role mode
  std::string endpoints_path;  ///< single-role mode
  std::size_t users = 3;
  std::size_t classes = 4;
  std::uint64_t seed = 1234;
  std::uint64_t keygen_seed = 7;
  std::string votes_spec = "onehot:2";
  std::string out_dir = ".";
  bool trace = false;
  bool check_parity = false;
  int fail_user = -1;
  long recv_timeout_ms = 15000;
  std::string admin;     ///< live-introspection endpoint, empty = off
  long linger_ms = 0;    ///< keep the admin endpoint up after the run
  // Serving mode (net/session/).
  bool serve = false;      ///< daemon: --role S1|S2 as a multi-session server
  bool serve_all = false;  ///< orchestrator: fork both daemons, drive sessions
  std::size_t sessions = 4;        ///< serve-all: sessions to drive
  int fail_session = -1;           ///< serve-all: abandon session index K
  std::size_t max_sessions = 8;    ///< per-daemon admission cap
  std::size_t session_workers = 2; ///< per-daemon worker pool size
  /// Offline/online split (DESIGN.md §15): attach a PrecomputeService so
  /// every party draws randomizer/blinding powers from seeded streams.  A
  /// serving daemon pre-registers its expected session streams, warms them
  /// before accepting connections, and runs the service's low-priority
  /// worker so pools top up in the gaps between sessions.
  bool precompute = false;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --role <party> --endpoints <file> [options]\n"
      "       %s --all [--check-parity] [--fail-user K] [options]\n"
      "       %s --serve --role S1|S2 --endpoints <file> [options]\n"
      "       %s --serve-all --sessions N [--fail-session K] [options]\n"
      "\n"
      "  <party> is S1, S2 or user:K.  Every process of one run must get\n"
      "  identical option values (they derive the same keys and inputs).\n"
      "\n"
      "options:\n"
      "  --users N            number of users (default 3)\n"
      "  --classes K          number of vote classes (default 4)\n"
      "  --seed S             query seed (default 1234)\n"
      "  --keygen-seed S      key-generation seed (default 7)\n"
      "  --votes SPEC         cycle | onehot:<label>  (default onehot:2)\n"
      "  --out DIR            artifact directory (default .)\n"
      "  --trace              write trace-<party>.json per process\n"
      "  --recv-timeout-ms M  transport deadlines (default 15000)\n"
      "  --admin HOST:PORT    serve live pc-metrics-v1 snapshots (S1 serves\n"
      "                       in --all mode; port 0 = ephemeral, the bound\n"
      "                       endpoint is written to <out>/admin.txt)\n"
      "  --linger-ms M        with --admin: keep serving up to M ms after\n"
      "                       the run until a quit command arrives\n"
      "  --sessions N         serve-all: number of sessions to drive\n"
      "                       (default 4)\n"
      "  --fail-session K     serve-all: open session K, then abandon it\n"
      "  --max-sessions N     serving: admission cap on concurrent sessions\n"
      "                       (default 8; SESSION_REJECT \"busy\" beyond it)\n"
      "  --session-workers N  serving: FIFO worker threads per daemon\n"
      "                       (default 2)\n"
      "  --precompute         offline/online split: draw randomizer powers\n"
      "                       from a background precompute service (serving\n"
      "                       daemons warm expected session streams up front\n"
      "                       and top pools up between sessions)\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "pc_party: %s needs a value\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--all") == 0) {
      opt.all = true;
    } else if (std::strcmp(arg, "--serve") == 0) {
      opt.serve = true;
    } else if (std::strcmp(arg, "--serve-all") == 0) {
      opt.serve_all = true;
    } else if (std::strcmp(arg, "--sessions") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.sessions = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--fail-session") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.fail_session = std::atoi(v);
    } else if (std::strcmp(arg, "--max-sessions") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.max_sessions = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--session-workers") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.session_workers =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--precompute") == 0) {
      opt.precompute = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      opt.trace = true;
    } else if (std::strcmp(arg, "--check-parity") == 0) {
      opt.check_parity = true;
    } else if (std::strcmp(arg, "--role") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.role = v;
    } else if (std::strcmp(arg, "--endpoints") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.endpoints_path = v;
    } else if (std::strcmp(arg, "--votes") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.votes_spec = v;
    } else if (std::strcmp(arg, "--out") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.out_dir = v;
    } else if (std::strcmp(arg, "--users") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.users = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--classes") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.classes = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--keygen-seed") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.keygen_seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--fail-user") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.fail_user = std::atoi(v);
    } else if (std::strcmp(arg, "--recv-timeout-ms") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.recv_timeout_ms = std::strtol(v, nullptr, 10);
    } else if (std::strcmp(arg, "--admin") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.admin = v;
    } else if (std::strcmp(arg, "--linger-ms") == 0) {
      if ((v = need_value(i)) == nullptr) return std::nullopt;
      opt.linger_ms = std::strtol(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "pc_party: unknown argument %s\n", arg);
      return std::nullopt;
    }
  }
  const int modes = (opt.all ? 1 : 0) + (opt.serve_all ? 1 : 0) +
                    (opt.role.empty() ? 0 : 1);
  if (modes != 1) {
    std::fprintf(stderr,
                 "pc_party: need exactly one of --all / --serve-all / "
                 "--role\n");
    return std::nullopt;
  }
  if (opt.serve && opt.role != "S1" && opt.role != "S2") {
    std::fprintf(stderr, "pc_party: --serve needs --role S1 or S2\n");
    return std::nullopt;
  }
  if (opt.serve_all && opt.sessions == 0) {
    std::fprintf(stderr, "pc_party: --sessions must be >= 1\n");
    return std::nullopt;
  }
  if (opt.fail_session >= 0 &&
      (!opt.serve_all ||
       static_cast<std::size_t>(opt.fail_session) >= opt.sessions)) {
    std::fprintf(stderr,
                 "pc_party: --fail-session needs --serve-all and K < N\n");
    return std::nullopt;
  }
  if (opt.max_sessions == 0 || opt.session_workers == 0) {
    std::fprintf(stderr,
                 "pc_party: --max-sessions and --session-workers must be "
                 ">= 1\n");
    return std::nullopt;
  }
  if (!opt.role.empty() && opt.endpoints_path.empty()) {
    std::fprintf(stderr, "pc_party: --role needs --endpoints\n");
    return std::nullopt;
  }
  if (opt.users == 0 || opt.classes < 2) {
    std::fprintf(stderr, "pc_party: need --users >= 1 and --classes >= 2\n");
    return std::nullopt;
  }
  if (opt.fail_user >= 0 &&
      static_cast<std::size_t>(opt.fail_user) >= opt.users) {
    std::fprintf(stderr, "pc_party: --fail-user out of range\n");
    return std::nullopt;
  }
  if (opt.recv_timeout_ms <= 0) {
    std::fprintf(stderr, "pc_party: --recv-timeout-ms must be positive\n");
    return std::nullopt;
  }
  if (opt.linger_ms < 0) {
    std::fprintf(stderr, "pc_party: --linger-ms must be non-negative\n");
    return std::nullopt;
  }
  if (opt.linger_ms > 0 && opt.admin.empty()) {
    std::fprintf(stderr, "pc_party: --linger-ms needs --admin\n");
    return std::nullopt;
  }
  return opt;
}

/// Smoke-sized crypto parameters (the tier-1 test profile): big enough to
/// run the full Alg. 5 pipeline, small enough that a multi-process run
/// finishes in seconds.
pcl::ConsensusConfig make_config(const Options& opt,
                                 pcl::PrecomputeService* precompute = nullptr) {
  pcl::ConsensusConfig cfg;
  cfg.num_classes = opt.classes;
  cfg.num_users = opt.users;
  cfg.threshold_fraction = 0.6;
  cfg.sigma1 = 1.0;
  cfg.sigma2 = 0.5;
  cfg.share_bits = 30;
  cfg.compare_bits = 44;
  cfg.dgk_params.n_bits = 160;
  cfg.dgk_params.v_bits = 30;
  cfg.dgk_params.plaintext_bound = 160;
  cfg.precompute = opt.precompute ? precompute : nullptr;
  return cfg;
}

/// "cycle": user u votes one-hot for class u mod K.  "onehot:<l>": every
/// user votes for class l (a clear consensus, so the query releases l).
std::vector<std::vector<double>> make_votes(const Options& opt) {
  std::vector<std::vector<double>> votes(opt.users,
                                         std::vector<double>(opt.classes, 0.0));
  if (opt.votes_spec == "cycle") {
    for (std::size_t u = 0; u < opt.users; ++u) {
      votes[u][u % opt.classes] = 1.0;
    }
    return votes;
  }
  if (opt.votes_spec.rfind("onehot:", 0) == 0) {
    const long label = std::strtol(opt.votes_spec.c_str() + 7, nullptr, 10);
    if (label < 0 || static_cast<std::size_t>(label) >= opt.classes) {
      throw std::invalid_argument("pc_party: onehot label out of range");
    }
    for (auto& row : votes) row[static_cast<std::size_t>(label)] = 1.0;
    return votes;
  }
  throw std::invalid_argument("pc_party: bad --votes spec (cycle|onehot:<l>)");
}

std::vector<std::string> party_names(std::size_t users) {
  std::vector<std::string> names = {"S1", "S2"};
  for (std::size_t u = 0; u < users; ++u) {
    names.push_back("user:" + std::to_string(u));
  }
  return names;
}

/// "user:3" -> "user_3": artifact filenames must not contain ':'.
std::string file_tag(const std::string& party) {
  std::string tag = party;
  for (char& c : tag) {
    if (c == ':') c = '_';
  }
  return tag;
}

/// Stable per-party pid for the merged timeline: S1=1, S2=2, user:u=3+u.
int trace_pid(const std::string& party, std::size_t users) {
  const std::vector<std::string> names = party_names(users);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == party) return static_cast<int>(i) + 1;
  }
  return 1;
}

pcl::TcpTimeouts timeouts_from(const Options& opt) {
  const auto ms = std::chrono::milliseconds(opt.recv_timeout_ms);
  pcl::TcpTimeouts t;
  t.connect = ms;
  t.accept = ms;
  t.recv = ms;
  t.send = ms;
  return t;
}

std::string traffic_path(const Options& opt, const std::string& party) {
  return opt.out_dir + "/traffic-" + file_tag(party) + ".json";
}

std::string trace_path(const Options& opt, const std::string& party) {
  return opt.out_dir + "/trace-" + file_tag(party) + ".json";
}

std::string flight_path(const Options& opt, const std::string& party) {
  return opt.out_dir + "/flight-" + file_tag(party) + ".json";
}

/// One party's sent traffic + released label, as JSON.  Recorded at the
/// sender only (like every transport), so the union of all parties' files
/// is exactly the in-process TrafficStats table — the parity check's input.
void write_traffic_json_file(const std::string& path, const std::string& party,
                             const std::optional<int>& label,
                             const pcl::TrafficStats& stats) {
  JsonValue::Array entries;
  for (const pcl::TrafficStats::Entry& e : stats.traffic_entries()) {
    JsonValue::Object row;
    row["step"] = e.step;
    row["from"] = e.from;
    row["to"] = e.to;
    row["bytes"] = static_cast<std::uint64_t>(e.bytes);
    row["messages"] = static_cast<std::uint64_t>(e.messages);
    entries.emplace_back(std::move(row));
  }
  JsonValue::Object doc;
  doc["schema"] = kTrafficSchema;
  doc["party"] = party;
  doc["label"] = label.has_value() ? JsonValue(*label) : JsonValue();
  doc["entries"] = std::move(entries);
  pcl::obs::write_text_file(path, JsonValue(std::move(doc)).dump(2) + "\n");
}

void write_traffic_json(const Options& opt, const std::string& party,
                        const std::optional<int>& label,
                        const pcl::TrafficStats& stats) {
  write_traffic_json_file(traffic_path(opt, party), party, label, stats);
}

/// Runs one party program over TCP and writes its artifacts.  `listener`
/// may be invalid (pure dialer, or single-role mode where connect() binds
/// from the endpoint map).  `fail_early` is the fault-injection hook: the
/// party completes the connection handshake and then dies, so its peers
/// observe a mid-protocol disconnect.  `serve_admin` mounts the live
/// introspection endpoint (--admin) on this role for the process lifetime,
/// plus up to --linger-ms after a clean run so pollers catch the final
/// snapshot.
int run_role(const pcl::ConsensusProtocol& protocol, const Options& opt,
             const std::string& role,
             const std::vector<std::vector<double>>& votes,
             pcl::TcpPartyWiring wiring, pcl::TcpListener listener,
             bool fail_early, bool serve_admin) {
  pcl::TrafficStats stats;
  pcl::obs::TraceSink sink;
  pcl::obs::MetricsRegistry metrics;

  std::unique_ptr<pcl::AdminServer> admin;
  if (serve_admin && !opt.admin.empty()) {
    const pcl::TcpEndpoint endpoint = pcl::parse_admin_endpoint(opt.admin);
    admin = std::make_unique<pcl::AdminServer>(
        endpoint,
        [&metrics, role](const std::string& command) -> std::string {
          if (command == "metrics") {
            return pcl::obs::build_metrics_json(metrics, role).dump(2) + "\n";
          }
          if (command == "quit") return "bye";
          throw std::runtime_error("unknown admin command: " + command);
        });
    // Port 0 resolves to an ephemeral port only the daemon knows; publish
    // the bound endpoint so `pc_trace --live` has something to dial.
    pcl::obs::write_text_file(
        opt.out_dir + "/admin.txt",
        endpoint.host + ":" + std::to_string(admin->port()) + "\n");
  }

  pcl::TcpChannel chan(std::move(wiring), &stats);
  std::optional<int> label;
  int code = 0;
  try {
    // Metrics are always on (the registry is atomics, and the admin
    // endpoint serves it live); the trace sink stays opt-in.
    const pcl::obs::ObserverScope scope(opt.trace ? &sink : nullptr,
                                        &metrics, role);
    if (listener.valid()) {
      chan.connect(std::move(listener));
    } else {
      chan.connect();
    }
    if (fail_early) return 42;  // ~TcpChannel slams the sockets shut
    label = protocol.run_party_seeded(role, votes, opt.seed, chan);
    chan.close();
  } catch (const pcl::ChannelError& err) {
    std::fprintf(stderr, "pc_party[%s]: transport failure: %s\n", role.c_str(),
                 err.what());
    code = 3;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pc_party[%s]: error: %s\n", role.c_str(),
                 err.what());
    code = 1;
  }
  if (code == 0 && (role == "S1" || role == "S2")) {
    std::printf("pc_party[%s]: label = %s\n", role.c_str(),
                label.has_value() ? std::to_string(*label).c_str() : "bot");
  }
  try {
    write_traffic_json(opt, role, label, stats);
    if (opt.trace) {
      const pcl::obs::TraceProcess process{role,
                                           trace_pid(role, opt.users)};
      const JsonValue doc = pcl::obs::build_trace_json(
          sink, stats.by_step(), &metrics, &process);
      pcl::obs::write_text_file(trace_path(opt, role), doc.dump(2) + "\n");
    }
    if (code == 3) {
      // Typed transport failure: dump the flight recorder so the timeline
      // up to the failure survives as an ordinary pc-trace-v1 file.
      const pcl::obs::TraceProcess process{role,
                                           trace_pid(role, opt.users)};
      const JsonValue doc = pcl::obs::build_trace_json(
          pcl::obs::FlightRecorder::drain(), stats.by_step(), &metrics,
          &process);
      pcl::obs::write_text_file(flight_path(opt, role), doc.dump(2) + "\n");
      std::fprintf(stderr, "pc_party[%s]: flight recorder dumped to %s\n",
                   role.c_str(), flight_path(opt, role).c_str());
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pc_party[%s]: artifact write failed: %s\n",
                 role.c_str(), err.what());
    if (code == 0) code = 1;
  }
  if (admin != nullptr && code == 0 && opt.linger_ms > 0) {
    const std::uint64_t deadline_ns =
        pcl::obs::monotonic_time_ns() +
        static_cast<std::uint64_t>(opt.linger_ms) * 1'000'000ull;
    while (!admin->quit_requested() &&
           pcl::obs::monotonic_time_ns() < deadline_ns) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return code;
}

int run_single(const Options& opt) {
  const pcl::EndpointMap endpoints =
      pcl::parse_endpoint_map(pcl::obs::read_text_file(opt.endpoints_path));
  pcl::PrecomputeService precompute;
  pcl::DeterministicRng keygen(opt.keygen_seed);
  const pcl::ConsensusProtocol protocol(make_config(opt, &precompute), keygen);
  if (opt.precompute) {
    // Warm this party's streams for the query seed before connecting: the
    // offline phase of a one-shot run.
    (void)protocol.party_precompute(opt.role, opt.seed);
    (void)precompute.top_up_all();
  }
  pcl::TcpPartyWiring wiring = pcl::consensus_tcp_wiring(
      opt.role, opt.users, endpoints, timeouts_from(opt));
  return run_role(protocol, opt, opt.role, make_votes(opt), std::move(wiring),
                  pcl::TcpListener{}, false, true);
}

// ---------------------------------------------------------------------------
// Serving mode (net/session/): one role as a multi-session daemon.

/// "S1", 7 -> "S1-s7": the per-session artifact tag.
std::string session_tag(const std::string& role, std::uint32_t session) {
  std::string tag = role;
  tag += "-s";
  tag += std::to_string(session);
  return tag;
}

/// Runs one server role as a session daemon until the admin quit handshake
/// (or a generous deadline, so a wedged daemon exits instead of hanging).
/// The protocol object is shared with the orchestrator parent via fork —
/// the same one-keygen sharing the --all choreography uses.
int serve_role(const pcl::ConsensusProtocol& protocol, const Options& opt,
               const std::string& role,
               const std::vector<std::vector<double>>& votes,
               const pcl::EndpointMap& endpoints, pcl::TcpListener listener) {
  pcl::SessionServerConfig cfg;
  cfg.role = role;
  cfg.num_users = opt.users;
  cfg.endpoints = endpoints;
  cfg.timeouts = timeouts_from(opt);
  cfg.manager.max_sessions = opt.max_sessions;
  cfg.manager.workers = opt.session_workers;
  // The watchdog sits well past the recv deadline: it only catches a
  // session that wedges while still trickling frames (a plain stall is the
  // channel deadlines' job).
  cfg.manager.session_deadline =
      std::chrono::milliseconds(opt.recv_timeout_ms * 4);

  // Layering: net/session cannot see mpc, so the daemon binds the consensus
  // program here.  The session seed is the ONLY protocol input; the id just
  // names the artifacts.
  pcl::SessionServer::Program program =
      [&protocol, &votes, role](const pcl::SessionInfo& info,
                                pcl::Channel& chan) {
        const pcl::ConsensusProtocol::SessionContext ctx{info.id, info.seed};
        return protocol.run_party_session(role, votes, ctx, chan);
      };
  // Per-session artifacts, written on the worker thread at teardown from
  // the session's PRIVATE observability — no cross-session filtering.
  pcl::SessionServer::CloseSink sink =
      [&opt, role](const pcl::SessionRecord& rec, pcl::SessionObs& obs) {
        const std::string tag = session_tag(role, rec.info.id);
        try {
          write_traffic_json_file(opt.out_dir + "/traffic-" + tag + ".json",
                                  role, rec.label, obs.traffic);
          const pcl::obs::TraceProcess process{tag, trace_pid(role, opt.users)};
          if (opt.trace) {
            const JsonValue doc = pcl::obs::build_trace_json(
                obs.trace, obs.traffic.by_step(), &obs.metrics, &process);
            pcl::obs::write_text_file(opt.out_dir + "/trace-" + tag + ".json",
                                      doc.dump(2) + "\n");
          }
          if (rec.state == pcl::SessionState::kFailed && !obs.flight.empty()) {
            const JsonValue doc = pcl::obs::build_trace_json(
                obs.flight, obs.traffic.by_step(), &obs.metrics, &process);
            pcl::obs::write_text_file(opt.out_dir + "/flight-" + tag + ".json",
                                      doc.dump(2) + "\n");
            std::fprintf(stderr,
                         "pc_party[%s]: session %u failed (%s); flight "
                         "recorder dumped\n",
                         role.c_str(), rec.info.id, rec.status.c_str());
          }
        } catch (const std::exception& err) {
          std::fprintf(stderr, "pc_party[%s]: session %u artifact write "
                               "failed: %s\n",
                       role.c_str(), rec.info.id, err.what());
        }
      };
  pcl::SessionServer server(std::move(cfg), std::move(program),
                            std::move(sink));

  // Offline phase: pre-register this role's streams for the session seeds
  // the serve-all orchestrator will drive (derive_party_seed(seed, i)) and
  // warm them before the listener accepts anything, then keep the service's
  // low-priority worker running so pools top back up in the idle gaps
  // between sessions.  A session with an unanticipated seed still works —
  // its streams register cold and every draw falls through inline (counted
  // as pool.miss), with identical bytes.
  pcl::PrecomputeService* precompute = protocol.config().precompute;
  if (precompute != nullptr) {
    for (std::size_t i = 0; i < opt.sessions; ++i) {
      (void)protocol.party_precompute(role, pcl::derive_party_seed(opt.seed, i));
    }
    const std::size_t warmed = precompute->top_up_all();
    std::printf("pc_party[%s]: precompute warm: %zu items generated "
                "offline\n",
                role.c_str(), warmed);
    precompute->start_worker();
  }

  // The admin endpoint is mandatory in serving mode — it carries the
  // drain-then-exit quit handshake; without --admin it binds ephemerally.
  const pcl::TcpEndpoint admin_endpoint =
      pcl::parse_admin_endpoint(opt.admin.empty() ? "127.0.0.1:0" : opt.admin);
  pcl::AdminServer admin(
      admin_endpoint, [&server](const std::string& command) -> std::string {
        if (command == "metrics") return server.metrics_json().dump(2) + "\n";
        if (command == "sessions") return server.sessions_json();
        if (command == "quit") return "bye";
        throw std::runtime_error("unknown admin command: " + command);
      });
  pcl::obs::write_text_file(
      opt.out_dir + "/admin-" + role + ".txt",
      admin_endpoint.host + ":" + std::to_string(admin.port()) + "\n");

  try {
    server.start(std::move(listener));
  } catch (const pcl::ChannelError& err) {
    std::fprintf(stderr, "pc_party[%s]: serve handshake failed: %s\n",
                 role.c_str(), err.what());
    return 3;
  }
  const std::uint64_t deadline_ns =
      pcl::obs::monotonic_time_ns() +
      static_cast<std::uint64_t>(opt.recv_timeout_ms) * 3'000'000ull +
      60'000'000'000ull +
      static_cast<std::uint64_t>(opt.linger_ms) * 1'000'000ull;
  while (!admin.quit_requested() &&
         pcl::obs::monotonic_time_ns() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const bool quit = admin.quit_requested();
  if (!quit) {
    std::fprintf(stderr, "pc_party[%s]: serve deadline expired without a "
                         "quit command\n",
                 role.c_str());
  }
  server.drain_and_stop();
  if (precompute != nullptr) precompute->stop_worker();
  // Post-drain summary artifacts: the aggregate metrics (every session's
  // latency folded in) and the final session table outlive the daemon.
  try {
    pcl::obs::write_text_file(opt.out_dir + "/metrics-" + role + ".json",
                              server.metrics_json().dump(2) + "\n");
    pcl::obs::write_text_file(opt.out_dir + "/sessions-" + role + ".json",
                              server.sessions_json());
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pc_party[%s]: summary artifact write failed: %s\n",
                 role.c_str(), err.what());
  }
  return quit ? 0 : 1;
}

int run_serve(const Options& opt) {
  const pcl::EndpointMap endpoints =
      pcl::parse_endpoint_map(pcl::obs::read_text_file(opt.endpoints_path));
  pcl::PrecomputeService precompute;
  pcl::DeterministicRng keygen(opt.keygen_seed);
  const pcl::ConsensusProtocol protocol(make_config(opt, &precompute), keygen);
  return serve_role(protocol, opt, opt.role, make_votes(opt), endpoints,
                    pcl::TcpListener{});
}

// ---------------------------------------------------------------------------
// --all orchestrator

struct ChildResult {
  pid_t pid = -1;
  int code = -1;     ///< exit code, 128+signal if signaled
  bool reaped = false;
  bool killed = false;  ///< true if WE killed it on deadline overrun
};

/// Loads traffic-<party>.json back and appends its rows to `out`.  Returns
/// the file's label field (nullopt = JSON null = the paper's bot).
std::optional<int> load_traffic_json(
    const std::string& path, std::vector<pcl::TrafficStats::Entry>& out) {
  const JsonValue doc = JsonValue::parse(pcl::obs::read_text_file(path));
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kTrafficSchema) {
    throw std::runtime_error(path + ": not a " + kTrafficSchema + " file");
  }
  const JsonValue* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    throw std::runtime_error(path + ": missing entries array");
  }
  for (const JsonValue& row : entries->as_array()) {
    pcl::TrafficStats::Entry e;
    e.step = row.find("step")->as_string();
    e.from = row.find("from")->as_string();
    e.to = row.find("to")->as_string();
    e.bytes = static_cast<std::size_t>(row.find("bytes")->as_number());
    e.messages = static_cast<std::size_t>(row.find("messages")->as_number());
    out.push_back(std::move(e));
  }
  const JsonValue* label = doc.find("label");
  if (label != nullptr && label->is_number()) {
    return static_cast<int>(label->as_number());
  }
  return std::nullopt;
}

/// The acceptance gate: replay the identical seeded query in-process and
/// demand the children's merged per-step traffic rows match byte for byte.
int check_parity(pcl::ConsensusProtocol& protocol, const Options& opt,
                 const std::vector<std::vector<double>>& votes,
                 const std::vector<std::string>& roles) {
  const auto reference = protocol.run_query_seeded(
      votes, opt.seed, pcl::ConsensusTransport::kInProcess);
  std::vector<pcl::TrafficStats::Entry> expect =
      protocol.stats().traffic_entries();

  std::vector<pcl::TrafficStats::Entry> got;
  std::optional<int> s1_label, s2_label;
  for (const std::string& role : roles) {
    const std::optional<int> label =
        load_traffic_json(traffic_path(opt, role), got);
    if (role == "S1") s1_label = label;
    if (role == "S2") s2_label = label;
  }
  // Each (step, from, to) row lives in exactly one file (recorded at the
  // sender), so sorting the union reproduces traffic_entries() order.
  const auto by_key = [](const pcl::TrafficStats::Entry& a,
                         const pcl::TrafficStats::Entry& b) {
    return std::tie(a.step, a.from, a.to) < std::tie(b.step, b.from, b.to);
  };
  std::sort(got.begin(), got.end(), by_key);

  int failures = 0;
  if (reference.label != s1_label || reference.label != s2_label) {
    std::fprintf(stderr,
                 "parity: label mismatch (in-process %s, S1 %s, S2 %s)\n",
                 reference.label ? std::to_string(*reference.label).c_str()
                                 : "bot",
                 s1_label ? std::to_string(*s1_label).c_str() : "bot",
                 s2_label ? std::to_string(*s2_label).c_str() : "bot");
    ++failures;
  }
  if (expect.size() != got.size()) {
    std::fprintf(stderr, "parity: %zu traffic rows in-process vs %zu merged\n",
                 expect.size(), got.size());
    ++failures;
  }
  for (std::size_t i = 0; i < expect.size() && i < got.size(); ++i) {
    if (expect[i] == got[i]) continue;
    std::fprintf(stderr,
                 "parity: row %zu differs:\n"
                 "  in-process  %s %s->%s bytes=%zu msgs=%zu\n"
                 "  multi-proc  %s %s->%s bytes=%zu msgs=%zu\n",
                 i, expect[i].step.c_str(), expect[i].from.c_str(),
                 expect[i].to.c_str(), expect[i].bytes, expect[i].messages,
                 got[i].step.c_str(), got[i].from.c_str(), got[i].to.c_str(),
                 got[i].bytes, got[i].messages);
    ++failures;
  }
  if (failures != 0) return 1;
  std::printf("parity OK: %zu traffic rows byte-identical, label = %s\n",
              expect.size(),
              reference.label ? std::to_string(*reference.label).c_str()
                              : "bot");
  return 0;
}

int run_all(const Options& opt) {
  const std::vector<std::string> roles = party_names(opt.users);
  const std::vector<std::vector<double>> votes = make_votes(opt);
  const pcl::TcpTimeouts timeouts = timeouts_from(opt);

  // Listeners exist before ANY child runs, so no dialer can beat its
  // acceptor to the port; ephemeral ports keep parallel runs disjoint.
  pcl::TcpListener s1_listener = pcl::TcpListener::bind("127.0.0.1", 0);
  pcl::TcpListener s2_listener = pcl::TcpListener::bind("127.0.0.1", 0);
  pcl::EndpointMap endpoints;
  endpoints["S1"] = pcl::TcpEndpoint{"127.0.0.1", s1_listener.port()};
  endpoints["S2"] = pcl::TcpEndpoint{"127.0.0.1", s2_listener.port()};
  pcl::obs::write_text_file(opt.out_dir + "/endpoints.txt",
                            pcl::format_endpoint_map(endpoints));

  // Keys are generated ONCE here; children inherit them through fork, the
  // exact sharing the in-process harness gets from one protocol object.
  // The precompute service is created here too (threadless, so it forks
  // cleanly): each child's copy serves only that child's party streams,
  // and the parent's untouched copy serves the parity replay — streams are
  // deterministic per (key, seed), so every copy yields the same bytes.
  pcl::PrecomputeService precompute;
  pcl::DeterministicRng keygen(opt.keygen_seed);
  pcl::ConsensusProtocol protocol(make_config(opt, &precompute), keygen);

  std::map<std::string, ChildResult> children;
  for (const std::string& role : roles) {
    std::fflush(nullptr);  // no buffered text may fork into the child
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("pc_party: fork");
      for (auto& [r, c] : children) kill(c.pid, SIGKILL);
      return 1;
    }
    if (pid == 0) {
      pcl::TcpListener mine;
      if (role == "S1") mine = std::move(s1_listener);
      if (role == "S2") mine = std::move(s2_listener);
      // Drop the sibling listeners: a user child holding S1's listener fd
      // open would keep the port alive after S1 dies.
      if (role != "S1") s1_listener.close();
      if (role != "S2") s2_listener.close();
      pcl::TcpPartyWiring wiring =
          pcl::consensus_tcp_wiring(role, opt.users, endpoints, timeouts);
      const bool fail_early =
          opt.fail_user >= 0 &&
          role == "user:" + std::to_string(opt.fail_user);
      int code = 1;
      try {
        // S1 is the natural introspection host: it coordinates every step,
        // so its registry sees the full protocol schedule.
        code = run_role(protocol, opt, role, votes, std::move(wiring),
                        std::move(mine), fail_early, role == "S1");
      } catch (const std::exception& err) {
        std::fprintf(stderr, "pc_party[%s]: fatal: %s\n", role.c_str(),
                     err.what());
      }
      std::fflush(nullptr);
      _exit(code);  // never unwind into the parent's atexit machinery
    }
    children[role] = ChildResult{pid, -1, false, false};
  }
  s1_listener.close();
  s2_listener.close();

  // Reap under a deadline: a correct failure path surfaces typed errors
  // well inside one recv timeout, so give the full pipeline three plus
  // slack for keygen-free protocol compute and never, ever hang.
  const std::uint64_t start_ns = pcl::obs::monotonic_time_ns();
  // An admin-serving S1 may legitimately outlive the protocol by the full
  // linger window, so the reap deadline stretches with it.
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(opt.recv_timeout_ms) * 3'000'000ull +
      60'000'000'000ull +
      static_cast<std::uint64_t>(opt.admin.empty() ? 0 : opt.linger_ms) *
          1'000'000ull;
  std::size_t live = children.size();
  bool deadline_hit = false;
  while (live > 0) {
    for (auto& [role, child] : children) {
      if (child.reaped) continue;
      int status = 0;
      const pid_t r = waitpid(child.pid, &status, WNOHANG);
      if (r == 0) continue;
      child.reaped = true;
      --live;
      if (r < 0) {
        child.code = 1;
      } else if (WIFEXITED(status)) {
        child.code = WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        child.code = 128 + WTERMSIG(status);
      }
    }
    if (live == 0) break;
    if (pcl::obs::monotonic_time_ns() - start_ns > budget_ns) {
      deadline_hit = true;
      for (auto& [role, child] : children) {
        if (!child.reaped) {
          kill(child.pid, SIGKILL);
          child.killed = true;
        }
      }
      for (auto& [role, child] : children) {
        if (child.reaped) continue;
        int status = 0;
        waitpid(child.pid, &status, 0);
        child.reaped = true;
        child.code = 128 + SIGKILL;
      }
      live = 0;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const double elapsed_ms =
      static_cast<double>(pcl::obs::monotonic_time_ns() - start_ns) / 1e6;

  for (const std::string& role : roles) {
    const ChildResult& child = children[role];
    std::printf("pc_party: %-8s pid %d exit %d%s\n", role.c_str(),
                static_cast<int>(child.pid), child.code,
                child.killed ? " (killed on deadline)" : "");
  }
  std::printf("pc_party: %zu processes, %.0f ms\n", children.size(),
              elapsed_ms);
  if (deadline_hit) {
    std::fprintf(stderr, "pc_party: FAIL: run exceeded the %ld ms deadline\n",
                 static_cast<long>(budget_ns / 1'000'000ull));
    return 1;
  }

  if (opt.fail_user >= 0) {
    // Fault-injection verdict: the injected death must exit 42 and every
    // surviving party must surface a TYPED transport error (code 3) on its
    // own, within the deadline — no hang, no untyped crash.
    const std::string failed = "user:" + std::to_string(opt.fail_user);
    int bad = 0;
    for (const std::string& role : roles) {
      const int code = children[role].code;
      const int want = role == failed ? 42 : 3;
      if (code != want) {
        std::fprintf(stderr,
                     "pc_party: FAIL: %s exited %d, expected %d (%s)\n",
                     role.c_str(), code, want,
                     role == failed ? "injected fault"
                                    : "typed transport error");
        ++bad;
      }
    }
    if (bad != 0) return 1;
    // Fuse the survivors' flight dumps onto one timeline: the post-mortem
    // equivalent of `pc_trace --merge` over trace-<party>.json files.
    std::vector<JsonValue> flights;
    std::size_t missing = 0;
    for (const std::string& role : roles) {
      if (role == failed) continue;
      try {
        flights.push_back(
            JsonValue::parse(pcl::obs::read_text_file(flight_path(opt, role))));
      } catch (const std::exception&) {
        ++missing;
      }
    }
    if (flights.empty() || missing != 0) {
      std::fprintf(stderr,
                   "pc_party: FAIL: %zu survivor flight dump(s) missing\n",
                   missing);
      return 1;
    }
    pcl::obs::write_text_file(opt.out_dir + "/flight-merged.json",
                              pcl::obs::merge_traces(flights).dump(2) + "\n");
    std::printf(
        "fault injection OK: %s died, all %zu survivors exited with typed "
        "transport errors in %.0f ms; %zu flight dumps merged\n",
        failed.c_str(), roles.size() - 1, elapsed_ms, flights.size());
    return 0;
  }

  int bad = 0;
  for (const std::string& role : roles) {
    if (children[role].code != 0) ++bad;
  }
  if (bad != 0) {
    std::fprintf(stderr, "pc_party: FAIL: %d process(es) failed\n", bad);
    return 1;
  }
  if (opt.check_parity) return check_parity(protocol, opt, votes, roles);
  return 0;
}

// ---------------------------------------------------------------------------
// --serve-all orchestrator

/// Replays session `seed` in-process and asserts the daemons' per-session
/// traffic files plus the client's user-side rows merge byte-identically.
/// This is run_all's parity gate, once per session: interleaving N sessions
/// over shared connections must not change a single session's bytes.
int check_session_parity(pcl::ConsensusProtocol& protocol, const Options& opt,
                         const std::vector<std::vector<double>>& votes,
                         const pcl::SessionOutcome& outcome) {
  protocol.stats().clear();
  const auto reference = protocol.run_query_seeded(
      votes, outcome.info.seed, pcl::ConsensusTransport::kInProcess);
  const std::vector<pcl::TrafficStats::Entry> expect =
      protocol.stats().traffic_entries();

  std::vector<pcl::TrafficStats::Entry> got;
  std::optional<int> s1_label;
  for (const char* role : {"S1", "S2"}) {
    const std::string path = opt.out_dir + "/traffic-" +
                             session_tag(role, outcome.info.id) + ".json";
    const std::optional<int> label = load_traffic_json(path, got);
    if (std::strcmp(role, "S1") == 0) s1_label = label;
  }
  for (const pcl::TrafficStats::Entry& e : outcome.traffic->traffic_entries()) {
    got.push_back(e);
  }
  const auto by_key = [](const pcl::TrafficStats::Entry& a,
                         const pcl::TrafficStats::Entry& b) {
    return std::tie(a.step, a.from, a.to) < std::tie(b.step, b.from, b.to);
  };
  std::sort(got.begin(), got.end(), by_key);

  int failures = 0;
  if (reference.label != outcome.label || reference.label != s1_label) {
    std::fprintf(
        stderr, "session %u parity: label mismatch (in-process %s, "
                "client %s, S1 file %s)\n",
        outcome.info.id,
        reference.label ? std::to_string(*reference.label).c_str() : "bot",
        outcome.label ? std::to_string(*outcome.label).c_str() : "bot",
        s1_label ? std::to_string(*s1_label).c_str() : "bot");
    ++failures;
  }
  if (expect.size() != got.size()) {
    std::fprintf(stderr,
                 "session %u parity: %zu traffic rows in-process vs %zu "
                 "merged\n",
                 outcome.info.id, expect.size(), got.size());
    ++failures;
  }
  for (std::size_t i = 0; i < expect.size() && i < got.size(); ++i) {
    if (expect[i] == got[i]) continue;
    std::fprintf(stderr,
                 "session %u parity: row %zu differs:\n"
                 "  in-process  %s %s->%s bytes=%zu msgs=%zu\n"
                 "  serve-mode  %s %s->%s bytes=%zu msgs=%zu\n",
                 outcome.info.id, i, expect[i].step.c_str(),
                 expect[i].from.c_str(), expect[i].to.c_str(),
                 expect[i].bytes, expect[i].messages, got[i].step.c_str(),
                 got[i].from.c_str(), got[i].to.c_str(), got[i].bytes,
                 got[i].messages);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// Fetches and schema-validates one daemon's live admin snapshots, then
/// sends the quit command.  Returns the number of problems found.
int quit_daemon(const Options& opt, const std::string& role) {
  int problems = 0;
  std::string endpoint_text;
  try {
    endpoint_text =
        pcl::obs::read_text_file(opt.out_dir + "/admin-" + role + ".txt");
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pc_party: no admin endpoint for %s: %s\n",
                 role.c_str(), err.what());
    return 1;
  }
  while (!endpoint_text.empty() &&
         (endpoint_text.back() == '\n' || endpoint_text.back() == '\r')) {
    endpoint_text.pop_back();
  }
  try {
    const pcl::TcpEndpoint endpoint = pcl::parse_admin_endpoint(endpoint_text);
    // The daemon is still alive here: these are LIVE snapshots, the same
    // path `pc_trace --live` polls, validated against their schemas.
    const JsonValue sessions =
        JsonValue::parse(pcl::admin_request(endpoint, "sessions"));
    for (const std::string& problem :
         pcl::obs::validate_sessions_json(sessions)) {
      std::fprintf(stderr, "pc_party: %s sessions snapshot: %s\n",
                   role.c_str(), problem.c_str());
      ++problems;
    }
    const JsonValue metrics =
        JsonValue::parse(pcl::admin_request(endpoint, "metrics"));
    for (const std::string& problem :
         pcl::obs::validate_metrics_json(metrics)) {
      std::fprintf(stderr, "pc_party: %s metrics snapshot: %s\n", role.c_str(),
                   problem.c_str());
      ++problems;
    }
    (void)pcl::admin_request(endpoint, "quit");
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pc_party: admin handshake with %s failed: %s\n",
                 role.c_str(), err.what());
    ++problems;
  }
  return problems;
}

int run_serve_all(const Options& opt) {
  const std::vector<std::vector<double>> votes = make_votes(opt);

  pcl::TcpListener s1_listener = pcl::TcpListener::bind("127.0.0.1", 0);
  pcl::TcpListener s2_listener = pcl::TcpListener::bind("127.0.0.1", 0);
  pcl::EndpointMap endpoints;
  endpoints["S1"] = pcl::TcpEndpoint{"127.0.0.1", s1_listener.port()};
  endpoints["S2"] = pcl::TcpEndpoint{"127.0.0.1", s2_listener.port()};
  pcl::obs::write_text_file(opt.out_dir + "/endpoints.txt",
                            pcl::format_endpoint_map(endpoints));

  // One keygen, shared with both daemons through fork (run_all's trick).
  // The serve-side precompute service is forked threadless into the
  // daemons (each warms its own copy in serve_role) and also serves the
  // orchestrator's in-process user programs.
  pcl::PrecomputeService precompute;
  pcl::DeterministicRng keygen(opt.keygen_seed);
  pcl::ConsensusProtocol protocol(make_config(opt, &precompute), keygen);

  // Precompute streams are consumed IN ORDER per (key, seed): the client's
  // user programs above will advance the parent service's user streams, so
  // the per-session parity replay needs a FRESH service (same derivation,
  // positions back at zero) — and its own protocol bound to it.  Same
  // keygen seed, identical keys.
  std::unique_ptr<pcl::PrecomputeService> replay_precompute;
  std::unique_ptr<pcl::ConsensusProtocol> replay_protocol;
  pcl::ConsensusProtocol* replay = &protocol;
  if (opt.precompute) {
    replay_precompute = std::make_unique<pcl::PrecomputeService>();
    pcl::DeterministicRng replay_keygen(opt.keygen_seed);
    replay_protocol = std::make_unique<pcl::ConsensusProtocol>(
        make_config(opt, replay_precompute.get()), replay_keygen);
    replay = replay_protocol.get();
  }

  std::map<std::string, ChildResult> children;
  for (const std::string role : {"S1", "S2"}) {
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("pc_party: fork");
      for (auto& [r, c] : children) kill(c.pid, SIGKILL);
      return 1;
    }
    if (pid == 0) {
      pcl::TcpListener mine =
          role == "S1" ? std::move(s1_listener) : std::move(s2_listener);
      if (role != "S1") s1_listener.close();
      if (role != "S2") s2_listener.close();
      int code = 1;
      try {
        code = serve_role(protocol, opt, role, votes, endpoints,
                          std::move(mine));
      } catch (const std::exception& err) {
        std::fprintf(stderr, "pc_party[%s]: fatal: %s\n", role.c_str(),
                     err.what());
      }
      std::fflush(nullptr);
      _exit(code);
    }
    children[role] = ChildResult{pid, -1, false, false};
  }
  s1_listener.close();
  s2_listener.close();

  // The session client runs IN the orchestrator: its per-session traffic
  // rows feed the parity gate directly, no artifact round-trip.
  const std::uint64_t start_ns = pcl::obs::monotonic_time_ns();
  std::vector<pcl::SessionSpec> specs;
  for (std::size_t i = 0; i < opt.sessions; ++i) {
    pcl::SessionSpec spec;
    spec.info.id = static_cast<std::uint32_t>(i + 1);
    spec.info.seed = pcl::derive_party_seed(opt.seed, i);
    spec.run_users = static_cast<int>(i) != opt.fail_session;
    specs.push_back(spec);
  }
  std::vector<pcl::SessionOutcome> outcomes;
  int code = 0;
  try {
    pcl::SessionClientConfig ccfg;
    ccfg.num_users = opt.users;
    ccfg.endpoints = endpoints;
    ccfg.timeouts = timeouts_from(opt);
    ccfg.max_in_flight = std::min<std::size_t>(opt.max_sessions, 4);
    ccfg.open_budget = std::chrono::milliseconds(opt.recv_timeout_ms);
    pcl::SessionClient client(
        ccfg, [&protocol, &votes](const pcl::SessionInfo& info,
                                  const std::string& user, pcl::Channel& chan) {
          const pcl::ConsensusProtocol::SessionContext ctx{info.id, info.seed};
          (void)protocol.run_party_session(user, votes, ctx, chan);
        });
    client.connect();
    outcomes = client.run(specs);
    client.close();
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pc_party: session client failed: %s\n", err.what());
    code = 1;
  }

  // Live snapshots + the drain-then-exit quit handshake, then reap.
  for (const std::string role : {"S1", "S2"}) {
    if (quit_daemon(opt, role) != 0) code = 1;
  }
  const std::uint64_t reap_deadline_ns =
      pcl::obs::monotonic_time_ns() +
      static_cast<std::uint64_t>(opt.recv_timeout_ms) * 3'000'000ull +
      60'000'000'000ull;
  std::size_t live = children.size();
  while (live > 0) {
    for (auto& [role, child] : children) {
      if (child.reaped) continue;
      int status = 0;
      const pid_t r = waitpid(child.pid, &status, WNOHANG);
      if (r == 0) continue;
      child.reaped = true;
      --live;
      if (r < 0) {
        child.code = 1;
      } else if (WIFEXITED(status)) {
        child.code = WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        child.code = 128 + WTERMSIG(status);
      }
    }
    if (live == 0) break;
    if (pcl::obs::monotonic_time_ns() > reap_deadline_ns) {
      for (auto& [role, child] : children) {
        if (child.reaped) continue;
        kill(child.pid, SIGKILL);
        child.killed = true;
        int status = 0;
        waitpid(child.pid, &status, 0);
        child.reaped = true;
        child.code = 128 + SIGKILL;
      }
      live = 0;
      std::fprintf(stderr, "pc_party: FAIL: daemons missed the reap "
                           "deadline\n");
      code = 1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const double elapsed_ms =
      static_cast<double>(pcl::obs::monotonic_time_ns() - start_ns) / 1e6;
  for (const auto& [role, child] : children) {
    std::printf("pc_party: serve %-3s pid %d exit %d%s\n", role.c_str(),
                static_cast<int>(child.pid), child.code,
                child.killed ? " (killed on deadline)" : "");
    if (child.code != 0) code = 1;
  }

  // Per-session verdicts: the abandoned session (if any) must fail TYPED on
  // both daemons and dump flight records; every other session must be ok
  // and byte-identical to its isolated in-process replay.
  std::size_t parity_ok = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const pcl::SessionOutcome& outcome = outcomes[i];
    if (static_cast<int>(i) == opt.fail_session) {
      if (outcome.ok || outcome.status.rfind("error", 0) != 0) {
        std::fprintf(stderr,
                     "pc_party: FAIL: abandoned session %u reported '%s', "
                     "expected a typed error\n",
                     outcome.info.id, outcome.status.c_str());
        code = 1;
      }
      for (const char* role : {"S1", "S2"}) {
        const std::string path = opt.out_dir + "/flight-" +
                                 session_tag(role, outcome.info.id) + ".json";
        try {
          (void)pcl::obs::read_text_file(path);
        } catch (const std::exception&) {
          std::fprintf(stderr, "pc_party: FAIL: missing flight dump %s\n",
                       path.c_str());
          code = 1;
        }
      }
      continue;
    }
    if (!outcome.ok) {
      std::fprintf(stderr, "pc_party: FAIL: session %u: %s\n", outcome.info.id,
                   outcome.status.c_str());
      code = 1;
      continue;
    }
    if (check_session_parity(*replay, opt, votes, outcome) != 0) {
      code = 1;
    } else {
      ++parity_ok;
    }
  }
  if (outcomes.size() != opt.sessions) {
    std::fprintf(stderr, "pc_party: FAIL: drove %zu sessions, expected %zu\n",
                 outcomes.size(), opt.sessions);
    code = 1;
  }
  if (code == 0) {
    if (opt.fail_session >= 0) {
      std::printf(
          "serve-all OK: session %d failed typed and isolated, %zu/%zu "
          "neighbors byte-identical, %.0f ms\n",
          opt.fail_session + 1, parity_ok, opt.sessions - 1, elapsed_ms);
    } else {
      std::printf(
          "serve-all OK: %zu/%zu sessions byte-identical to isolated "
          "replays, %.0f ms\n",
          parity_ok, opt.sessions, elapsed_ms);
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt.has_value()) return usage(argv[0]);
  // Best-effort: create the artifact directory (one level); EEXIST is fine,
  // anything else surfaces on the first write_text_file.
  mkdir(opt->out_dir.c_str(), 0755);
  // The flight recorder is always armed in the daemon: its rings are the
  // only timeline that survives a protocol failure, and recording costs a
  // bounded struct copy per closed span.
  pcl::obs::FlightRecorder::enable();
  try {
    if (opt->serve_all) return run_serve_all(*opt);
    if (opt->serve) return run_serve(*opt);
    return opt->all ? run_all(*opt) : run_single(*opt);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pc_party: %s\n", err.what());
    return 1;
  }
}
