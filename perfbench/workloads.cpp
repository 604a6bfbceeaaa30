// pc-bench workloads: the three workloads, their inputs, and the
// live systems that run them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "crypto/packing.h"
#include "crypto/precompute_service.h"
#include "mpc/lane_pool.h"
#include "net/party_runner.h"
#include "net/session/session_client.h"
#include "net/session/session_server.h"
#include "net/tcp_transport.h"

namespace pcbench {

using namespace pcl;

namespace {

/// Keys are generated from fixed seeds, so every run sets up the same key
/// material and set-up time measures the same work whatever --seed is.
constexpr std::uint64_t kKeySeed = 20200706;

/// Request indices at or above this mark are warm-up requests, never timed
/// and never reported.
constexpr std::uint64_t kWarmupRequest = 1'000'000;

/// Batch workloads time a set-up round after a request while set-up rounds
/// have taken less than this share of the pass's wall so far.
constexpr double kSetupShare = 0.15;

/// Every fourth query is contested (make_query).
bool contested(std::uint64_t index) { return index % 4 == 3; }

/// Base seed of request `request` (before any fixed-mix redraw).
std::uint64_t request_seed(std::uint64_t seed, std::uint64_t request) {
  return derive_party_seed(seed ^ 0x7265717565737473ULL, request);
}

/// True for a span S1 opened around one Alg. 5 step.
bool is_s1_step(const obs::TraceEvent& e) {
  return e.party == "S1" &&
         std::any_of(std::begin(kSteps), std::end(kSteps),
                     [&](const StepTag& s) { return e.name == s.tag; });
}

/// The paper's Table I parameters (Sec. VI) at |U| = `users`.
ConsensusConfig paper_config(std::size_t users) {
  ConsensusConfig c;
  c.num_classes = 10;
  c.num_users = users;
  c.threshold_fraction = 0.6;
  c.sigma1 = 2.0;
  c.sigma2 = 1.0;
  c.paillier_bits = 64;
  c.share_bits = 40;
  c.compare_bits = 52;
  c.dgk_params.n_bits = 192;
  c.dgk_params.v_bits = 40;
  c.dgk_params.plaintext_bound = 256;
  return c;
}

std::vector<Workload> build_workloads() {
  std::vector<Workload> out;

  Workload batch;
  batch.name = "paper-batch";
  batch.profile = "paper";
  batch.kind = Kind::kBatch;
  batch.config = paper_config(20);
  batch.lanes = 16;
  batch.reference_sample = 8;
  batch.setup_round = 8;
  batch.why =
      "Table I parameters lane-batched: rounds collapse, so the time is "
      "crypto at widths the generic Montgomery tier serves";
  out.push_back(batch);

  Workload serve;
  serve.name = "serve";
  serve.profile = "paper";
  serve.kind = Kind::kServe;
  serve.config = paper_config(2);
  serve.lanes = 1;
  serve.reference_sample = 16;
  serve.why =
      "daemon sessions over loopback TCP: thousands of round trips through "
      "the mux, framing, admission and worker pools per query";
  out.push_back(serve);

  Workload split;
  split.name = "deploy-split";
  split.profile = "deployment";
  split.kind = Kind::kSplit;
  split.config = paper_config(5);
  split.config.paillier_bits = 2048;
  split.config.dgk_params.n_bits = 2048;
  split.config.dgk_params.v_bits = 160;
  split.config.argmax_strategy = ArgmaxStrategy::kTournament;
  split.config.pack_secure_sum = true;
  // One query per request: a 2048-bit query costs seconds, and its offline
  // phase several times its online one, so single-query requests give a
  // run the most online samples.
  split.lanes = 1;
  split.reference_sample = 16;
  split.fixed_mix = true;
  split.why =
      "deployment key sizes with offline precompute: fixed-width kernels do "
      "the work, written offline and read online; contested queries return ⊥";
  out.push_back(split);
  return out;
}

bool limit_reached(const PassLimit& limit, std::size_t done,
                   std::uint64_t start_ns) {
  if (limit.count > 0) return done >= limit.count;
  return static_cast<double>(now_ns() - start_ns) / 1e9 >= limit.seconds;
}

void merge_traffic(const TrafficStats& stats, obs::TrafficByStep& into) {
  for (const auto& [step, t] : stats.by_step()) {
    into[step].bytes += t.bytes;
    into[step].messages += t.messages;
  }
}

void set_traffic(obs::TrafficByStep traffic, Pass& pass) {
  pass.traffic = std::move(traffic);
  for (const auto& [step, t] : pass.traffic) {
    pass.bytes += t.bytes;
    pass.messages += t.messages;
  }
}

void add_ops(const obs::MetricsRegistry& metrics,
             std::map<std::string, std::uint64_t>& ops) {
  for (const obs::MetricsRegistry::Entry& e : metrics.entries()) {
    ops[obs::op_name(e.op)] += e.count;
  }
}

std::vector<Votes> request_votes(const Workload& w, std::uint64_t seed,
                                 std::uint64_t request) {
  std::vector<Votes> batch;
  batch.reserve(w.lanes);
  for (std::size_t q = 0; q < w.lanes; ++q) {
    batch.push_back(make_query(w, seed, request * w.lanes + q));
  }
  return batch;
}

std::vector<std::string> party_names(std::size_t users) {
  std::vector<std::string> parties = {"S1", "S2"};
  for (std::size_t u = 0; u < users; ++u) {
    parties.push_back("user:" + std::to_string(u));
  }
  return parties;
}

// ---- paper-batch and deploy-split -----------------------------------------

/// One key set plus (kSplit) the precompute service its parties draw from.
struct Replica {
  std::unique_ptr<PrecomputeService> service;
  std::unique_ptr<ConsensusProtocol> protocol;
};

/// The smallest Paillier width (a multiple of 256 bits) whose packing
/// layout has as many ciphertexts per vector as the workload's own.
std::size_t calibration_paillier_bits(const ConsensusConfig& c) {
  if (!c.pack_secure_sum) return 512;
  const auto cts = [&](std::size_t bits) {
    return make_packing_layout(c.num_classes, c.share_bits + 3,
                               c.num_users + 1, bits - 2)
        .num_cts;
  };
  std::size_t bits = 512;
  while (bits < c.paillier_bits && cts(bits) != cts(c.paillier_bits)) {
    bits += 256;
  }
  return std::min(bits, c.paillier_bits);
}

Replica make_replica(const Workload& w, std::uint64_t key_seed) {
  Replica r;
  ConsensusConfig config = w.config;
  if (w.kind == Kind::kSplit) {
    r.service = std::make_unique<PrecomputeService>();
    config.precompute = r.service.get();
  }
  DeterministicRng keygen(key_seed);
  r.protocol = std::make_unique<ConsensusProtocol>(config, keygen);
  return r;
}

class BatchSystem final : public System {
 public:
  BatchSystem(const Workload& w, std::uint64_t seed, std::uint64_t key_seed)
      : w_(w),
        seed_(seed),
        key_seed_(key_seed),
        parties_(party_names(w.config.num_users)) {
    replicas_.push_back(make_replica(w, key_seed));
  }

  /// kBatch: one untimed request.  kSplit: learns the per-stream offline
  /// demand instead (a cold deployment-size request would cost as much as
  /// several timed ones).
  void warm_up() override {
    if (w_.kind == Kind::kSplit) {
      learn_demand();
      return;
    }
    const Pass pass = run(kWarmupRequest, PassLimit{0.0, 1}, false, nullptr);
    const RequestRecord& rec = pass.requests.front();
    if (rec.failed) throw std::runtime_error("warm-up request: " + rec.error);
  }

  Pass run(std::uint64_t first_request, const PassLimit& limit, bool traced,
           obs::TraceSink* bench_sink) override {
    // A traced pass replays requests the untraced pass already ran; with
    // precompute attached, replaying a lane seed needs fresh streams (the
    // consumed ones have moved on), so it gets a fresh replica of the keys.
    if (traced && w_.kind == Kind::kSplit) {
      replicas_.push_back(make_replica(w_, key_seed_));
    }
    Replica& replica = replicas_.back();
    ConsensusProtocol& protocol = *replica.protocol;

    Pass pass;
    obs::TraceSink trace;
    obs::MetricsRegistry metrics;
    protocol.stats().clear();
    protocol.set_observer(traced ? &trace : nullptr,
                          traced ? &metrics : nullptr);
    const PrecomputeStats pool0 = replica.service != nullptr
                                      ? replica.service->totals()
                                      : PrecomputeStats{};
    const BenchScope bench(bench_sink);
    const std::uint64_t start = now_ns();
    double setup_wall = 0.0;
    for (std::uint64_t r = first_request;
         !limit_reached(limit, pass.requests.size(), start); ++r) {
      const std::vector<Votes> batch = request_votes(w_, seed_, r);
      RequestRecord rec;
      rec.index = r;
      rec.base_seed = base_seed(r, batch);
      if (!demand_.empty()) {
        offline_phase(replica, rec.base_seed, traced ? &trace : nullptr, pass);
      }
      const double cpu0 = cpu_seconds();
      rec.start_ns = now_ns();
      try {
        const obs::Span span("request");
        for (const auto& result : protocol.run_batch_seeded(
                 batch, rec.base_seed, ConsensusTransport::kThreaded,
                 BatchMode::kLaneBatched)) {
          rec.labels.push_back(result.label);
        }
      } catch (const std::exception& e) {
        rec.failed = true;
        rec.error = e.what();
      }
      rec.end_ns = now_ns();
      pass.cpu_s += cpu_seconds() - cpu0;
      pass.wall_s += static_cast<double>(rec.end_ns - rec.start_ns) / 1e9;
      pass.requests.push_back(std::move(rec));
      if (limit.setups && setup_wall < kSetupShare *
                                           static_cast<double>(now_ns() - start) /
                                           1e9) {
        setup_wall += setup_round(pass);
      }
    }
    protocol.set_observer(nullptr, nullptr);

    set_traffic(protocol.stats().by_step(), pass);
    if (replica.service != nullptr) {
      const PrecomputeStats pool1 = replica.service->totals();
      pass.pool_hits = pool1.hits - pool0.hits;
      pass.pool_misses = pool1.misses - pool0.misses;
      pass.pool_generated = pool1.generated - pool0.generated;
    }
    if (traced) {
      pass.events = trace.events();
      add_ops(metrics, pass.ops);
      // Requests run one after another, so each S1 step span belongs to
      // the request whose wall contains its start.
      for (const obs::TraceEvent& e : pass.events) {
        if (!is_s1_step(e)) continue;
        for (RequestRecord& rec : pass.requests) {
          if (e.start_ns >= rec.start_ns && e.start_ns < rec.end_ns) {
            rec.s1_steps.push_back(e);
            break;
          }
        }
      }
    }
    return pass;
  }

 private:
  /// Times one round of set-ups: the key sets of key seeds key_seed_ ..
  /// key_seed_ + setup_round - 1, each generated as the system's own was.
  /// Every round is the same work.  Returns the round's wall in seconds.
  double setup_round(Pass& pass) {
    double wall = 0.0;
    for (std::size_t i = 0; i < w_.setup_round; ++i) {
      const std::uint64_t t0 = now_ns();
      const Replica replica = make_replica(w_, key_seed_ + i);
      const double s = static_cast<double>(now_ns() - t0) / 1e9;
      pass.setup_s.push_back(s);
      wall += s;
    }
    return wall;
  }

  /// The per-stream demand of one lane.  Each party's figure is the
  /// maximum over lanes: a lane that released a label drew the most, and a
  /// ⊥ lane leaves part of its material unused.
  struct Demand {
    std::uint64_t pk1 = 0, pk2 = 0, dgk = 0;
  };

  /// Reads the demand from the pool misses of one cold request (the
  /// bench_batch_pipeline method), run on a calibration key set: the
  /// paper's DGK key and the smallest Paillier key with the workload's
  /// packing layout.  Draw counts depend on the ciphertext counts, not on
  /// key widths, so the demand is the workload's own at a fraction of the
  /// cost.
  void learn_demand() {
    ConsensusConfig config = w_.config;
    config.dgk_params = paper_config(config.num_users).dgk_params;
    config.paillier_bits = calibration_paillier_bits(config);
    PrecomputeService service;
    config.precompute = &service;
    DeterministicRng keygen(key_seed_);
    ConsensusProtocol protocol(config, keygen);
    const std::vector<Votes> batch = request_votes(w_, seed_, kWarmupRequest);
    const std::uint64_t base = base_seed(kWarmupRequest, batch);
    (void)protocol.run_batch_seeded(batch, base, ConsensusTransport::kThreaded,
                                    BatchMode::kLaneBatched);
    for (const std::string& party : parties_) {
      Demand& d = demand_[party];
      for (std::size_t q = 0; q < w_.lanes; ++q) {
        const PartyPrecompute pre =
            protocol.party_precompute(party, derive_party_seed(base, q));
        d.pk1 = std::max(d.pk1, pre.powers_pk1->stats().misses);
        d.pk2 = std::max(d.pk2, pre.powers_pk2->stats().misses);
        if (pre.dgk_powers != nullptr) {
          d.dgk = std::max(d.dgk, pre.dgk_powers->stats().misses);
        }
      }
    }
  }

  /// Registers the request's lane streams and generates exactly their
  /// demand, largest streams first, fanned out over the LanePool.
  void offline_phase(Replica& replica, std::uint64_t base,
                     obs::TraceSink* trace, Pass& pass) {
    struct Task {
      std::uint64_t items;
      std::function<void()> run;
    };
    std::vector<Task> tasks;
    const obs::Span span("offline");
    const std::uint64_t start = now_ns();
    for (std::size_t q = 0; q < w_.lanes; ++q) {
      const std::uint64_t seed = derive_party_seed(base, q);
      for (const std::string& party : parties_) {
        const PartyPrecompute pre =
            replica.protocol->party_precompute(party, seed);
        const Demand& d = demand_.at(party);
        tasks.push_back({d.pk1, [s = pre.powers_pk1, n = d.pk1] {
                           s->generate(n);
                         }});
        tasks.push_back({d.pk2, [s = pre.powers_pk2, n = d.pk2] {
                           s->generate(n);
                         }});
        if (pre.dgk_powers != nullptr) {
          tasks.push_back({d.dgk, [s = pre.dgk_powers, n = d.dgk] {
                             s->generate(n);
                           }});
        }
      }
    }
    std::sort(tasks.begin(), tasks.end(),
              [](const Task& a, const Task& b) { return a.items > b.items; });
    {
      // Pool workers inherit this binding: generation spans file under
      // "offline", and no counter lands in the online metrics.
      std::optional<obs::ObserverScope> scope;
      if (trace != nullptr) scope.emplace(trace, nullptr, "offline");
      LanePool::shared().run(tasks.size(),
                             [&](std::size_t i) { tasks[i].run(); });
    }
    pass.offline_s += static_cast<double>(now_ns() - start) / 1e9;
    for (const Task& t : tasks) pass.offline_items += t.items;
  }

  /// The request's base seed.  With a fixed mix, candidates are drawn in
  /// a seeded order until the reference returns ⊥ on exactly the contested
  /// lanes;
  /// the choice is remembered, so a replay runs the same lanes.
  std::uint64_t base_seed(std::uint64_t request,
                          const std::vector<Votes>& batch) {
    if (!w_.fixed_mix) return request_seed(seed_, request);
    if (const auto it = bases_.find(request); it != bases_.end()) {
      return it->second;
    }
    if (reference_ == nullptr) reference_ = make_reference(w_);
    for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
      const std::uint64_t base =
          derive_party_seed(request_seed(seed_, request), attempt);
      bool agrees = true;
      for (std::size_t q = 0; q < batch.size() && agrees; ++q) {
        agrees = reference_->run_query_seeded(batch[q],
                                              derive_party_seed(base, q))
                     .label.has_value() != contested(request * w_.lanes + q);
      }
      if (agrees) return bases_[request] = base;
    }
    throw std::runtime_error("no base seed gives request " +
                             std::to_string(request) + " its fixed mix");
  }

  const Workload& w_;
  const std::uint64_t seed_;
  const std::uint64_t key_seed_;
  const std::vector<std::string> parties_;
  std::vector<Replica> replicas_;
  std::map<std::string, Demand> demand_;
  std::unique_ptr<ConsensusProtocol> reference_;
  std::map<std::uint64_t, std::uint64_t> bases_;
};

// ---- serve ---------------------------------------------------------------

/// What the daemon and client callbacks share with the caller threads.
struct ServeState {
  std::mutex mu;
  std::condition_variable closed_cv;
  std::map<std::uint32_t, Votes> votes;  ///< by session id
  struct S1Times {
    std::uint64_t opened_ns = 0, start_ns = 0, run_ns = 0;
    std::vector<obs::TraceEvent> steps;
  };
  std::map<std::uint32_t, S1Times> s1;
  std::size_t closed = 0;  ///< daemon-side session closes absorbed
  obs::TrafficByStep traffic;  ///< daemon-side rows of every session
  std::vector<obs::TraceEvent> events;
  std::map<std::string, std::uint64_t> ops;
  obs::TraceSink user_trace;
  obs::MetricsRegistry user_metrics;

  Votes votes_for(std::uint32_t id) {
    const std::lock_guard<std::mutex> lock(mu);
    return votes.at(id);
  }
};

class ServeSystem final : public System {
 public:
  ServeSystem(const Workload& w, std::uint64_t seed, std::uint64_t key_seed)
      : w_(w), seed_(seed) {
    DeterministicRng keygen(key_seed);
    protocol_ = std::make_unique<ConsensusProtocol>(w.config, keygen);

    TcpListener s1_listener = TcpListener::bind("127.0.0.1", 0);
    TcpListener s2_listener = TcpListener::bind("127.0.0.1", 0);
    EndpointMap endpoints;
    endpoints["S1"] = TcpEndpoint{"127.0.0.1", s1_listener.port()};
    endpoints["S2"] = TcpEndpoint{"127.0.0.1", s2_listener.port()};
    TcpTimeouts timeouts;
    timeouts.connect = std::chrono::milliseconds(30000);
    timeouts.accept = std::chrono::milliseconds(30000);
    timeouts.recv = std::chrono::milliseconds(30000);
    timeouts.send = std::chrono::milliseconds(30000);

    const auto server = [&](const std::string& role) {
      SessionServerConfig config;
      config.role = role;
      config.num_users = w.config.num_users;
      config.endpoints = endpoints;
      config.timeouts = timeouts;
      config.manager.max_sessions = 2 * in_flight();
      config.manager.workers = in_flight();
      return std::make_unique<SessionServer>(
          config,
          [this, role](const SessionInfo& info,
                       Channel& chan) -> std::optional<int> {
            const Votes votes = state_.votes_for(info.id);
            const std::uint64_t t0 = now_ns();
            const std::optional<int> label = protocol_->run_party_session(
                role, votes, {info.id, info.seed}, chan);
            if (role == "S1") {
              const std::uint64_t run = now_ns() - t0;
              const std::lock_guard<std::mutex> lock(state_.mu);
              state_.s1[info.id].start_ns = t0;
              state_.s1[info.id].run_ns = run;
            }
            return label;
          },
          [this, role](const SessionRecord& record, SessionObs& obs) {
            absorb_close(role, record, obs);
          });
    };
    s1_ = server("S1");
    s2_ = server("S2");
    // Each daemon's handshake blocks until its peers dial, so both run on
    // threads while the client dials; their errors are rethrown here.
    std::exception_ptr s1_error, s2_error;
    std::thread s1_start([&, l = std::move(s1_listener)]() mutable {
      try {
        s1_->start(std::move(l));
      } catch (...) {
        s1_error = std::current_exception();
      }
    });
    std::thread s2_start([&, l = std::move(s2_listener)]() mutable {
      try {
        s2_->start(std::move(l));
      } catch (...) {
        s2_error = std::current_exception();
      }
    });

    SessionClientConfig ccfg;
    ccfg.num_users = w.config.num_users;
    ccfg.endpoints = endpoints;
    ccfg.timeouts = timeouts;
    ccfg.max_in_flight = 1;  // each caller thread is one closed-loop client
    ccfg.open_budget = std::chrono::milliseconds(60000);
    client_ = std::make_unique<SessionClient>(
        ccfg, [this](const SessionInfo& info, const std::string& user,
                     Channel& chan) {
          const Votes votes = state_.votes_for(info.id);
          std::optional<obs::ObserverScope> scope;
          if (traced_.load()) {
            scope.emplace(&state_.user_trace, &state_.user_metrics, user);
          }
          (void)protocol_->run_party_session(user, votes, {info.id, info.seed},
                                             chan);
        });
    std::exception_ptr client_error;
    try {
      client_->connect();
    } catch (...) {
      client_error = std::current_exception();
    }
    s1_start.join();
    s2_start.join();
    for (const std::exception_ptr& error : {client_error, s1_error, s2_error}) {
      if (error) std::rethrow_exception(error);
    }
  }

  ~ServeSystem() override {
    try {
      client_->close();
      s1_->drain_and_stop();
      s2_->drain_and_stop();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pc_bench: serve teardown: %s\n", e.what());
    }
  }

  ServeSystem(const ServeSystem&) = delete;
  ServeSystem& operator=(const ServeSystem&) = delete;

  void warm_up() override {
    const Pass pass =
        run(kWarmupRequest, PassLimit{0.0, in_flight()}, false, nullptr);
    if (pass.failed() != 0) {
      throw std::runtime_error("warm-up session failed: " +
                               pass.requests.front().error);
    }
  }

  Pass run(std::uint64_t first_request, const PassLimit& limit, bool traced,
           obs::TraceSink* bench_sink) override {
    {
      const std::lock_guard<std::mutex> lock(state_.mu);
      state_.closed = 0;
      state_.traffic.clear();
      state_.events.clear();
      state_.ops.clear();
      state_.user_trace.clear();
      state_.user_metrics.clear();
    }
    traced_ = traced;

    Pass pass;
    std::mutex pass_mu;
    std::map<std::uint64_t, std::uint32_t> session_of;  // request -> id
    std::vector<std::shared_ptr<TrafficStats>> user_traffic;
    std::atomic<std::uint64_t> next{first_request};
    const std::uint64_t start = now_ns();
    const double cpu0 = cpu_seconds();
    const auto caller = [&] {
      const BenchScope bench(bench_sink);
      for (;;) {
        // Claim the index only when going on, so completed requests are
        // exactly first_request .. first_request + N - 1.
        if (limit.count == 0 && limit_reached(limit, 0, start)) return;
        const std::uint64_t r = next++;
        if (limit.count > 0 && r >= first_request + limit.count) return;
        const std::uint32_t id = next_id_++;
        {
          const std::lock_guard<std::mutex> lock(state_.mu);
          state_.votes[id] = make_query(w_, seed_, r);
        }
        RequestRecord rec;
        rec.index = r;
        rec.base_seed = request_seed(seed_, r);
        SessionSpec spec;
        spec.info.id = id;
        spec.info.seed = derive_party_seed(rec.base_seed, 0);
        rec.start_ns = now_ns();
        SessionOutcome outcome;
        try {
          const obs::Span span("request");
          outcome = client_->run({spec}).front();
        } catch (const std::exception& e) {
          outcome.status = e.what();
        }
        rec.end_ns = now_ns();
        rec.failed = !outcome.ok;
        rec.error = outcome.status;
        rec.labels.push_back(outcome.label);
        const std::lock_guard<std::mutex> lock(pass_mu);
        session_of[r] = id;
        if (outcome.traffic != nullptr) user_traffic.push_back(outcome.traffic);
        pass.requests.push_back(std::move(rec));
      }
    };
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < in_flight(); ++t) callers.emplace_back(caller);
    for (std::thread& t : callers) t.join();
    pass.wall_s = static_cast<double>(now_ns() - start) / 1e9;
    pass.cpu_s = cpu_seconds() - cpu0;
    traced_ = false;

    // Each daemon's close sink runs after its CLOSE frame went out, so wait
    // for both daemons' sinks of every session before reading the totals.
    std::unique_lock<std::mutex> lock(state_.mu);
    const bool all_closed = state_.closed_cv.wait_for(
        lock, std::chrono::seconds(30),
        [&] { return state_.closed >= 2 * pass.requests.size(); });
    if (!all_closed) {
      throw std::runtime_error("serve: daemon close sinks did not finish");
    }
    std::sort(pass.requests.begin(), pass.requests.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                return a.index < b.index;
              });
    for (RequestRecord& rec : pass.requests) {
      const std::uint32_t id = session_of.at(rec.index);
      const ServeState::S1Times& t = state_.s1[id];
      rec.s1_opened_ns = t.opened_ns;
      rec.s1_start_ns = t.start_ns;
      rec.s1_run_ns = t.run_ns;
      rec.s1_steps = t.steps;
      state_.votes.erase(id);
      state_.s1.erase(id);
    }
    for (const auto& stats : user_traffic) merge_traffic(*stats, state_.traffic);
    set_traffic(std::move(state_.traffic), pass);
    if (traced) {
      pass.events = std::move(state_.events);
      for (const obs::TraceEvent& e : state_.user_trace.events()) {
        pass.events.push_back(e);
      }
      pass.ops = state_.ops;
      add_ops(state_.user_metrics, pass.ops);
    }
    return pass;
  }

 private:
  /// Closed-loop callers: at most nproc user-program threads in total.
  [[nodiscard]] std::size_t in_flight() const {
    const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
    return std::max<std::size_t>(1, cores / w_.config.num_users);
  }

  void absorb_close(const std::string& role, const SessionRecord& record,
                    SessionObs& obs) {
    const std::lock_guard<std::mutex> lock(state_.mu);
    merge_traffic(obs.traffic, state_.traffic);
    ServeState::S1Times& s1 = state_.s1[record.info.id];
    if (role == "S1") s1.opened_ns = record.opened_ns;
    if (traced_.load()) {
      for (obs::TraceEvent& e : obs.trace.events()) {
        if (is_s1_step(e)) s1.steps.push_back(e);
        state_.events.push_back(std::move(e));
      }
      add_ops(obs.metrics, state_.ops);
    }
    ++state_.closed;
    state_.closed_cv.notify_all();
  }

  const Workload& w_;
  const std::uint64_t seed_;
  std::unique_ptr<ConsensusProtocol> protocol_;
  ServeState state_;
  std::atomic<bool> traced_{false};
  std::atomic<std::uint32_t> next_id_{1};
  std::unique_ptr<SessionServer> s1_, s2_;
  std::unique_ptr<SessionClient> client_;
};

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = build_workloads();
  return workloads;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::unique_ptr<ConsensusProtocol> make_reference(const Workload& w) {
  ConsensusConfig c = w.config;
  const ConsensusConfig paper = paper_config(c.num_users);
  c.paillier_bits = paper.paillier_bits;
  c.dgk_params = paper.dgk_params;
  c.pack_secure_sum = false;
  c.precompute = nullptr;
  DeterministicRng keygen(0x7265666b657973ULL);
  return std::make_unique<ConsensusProtocol>(c, keygen);
}

Votes make_query(const Workload& w, std::uint64_t seed, std::uint64_t index) {
  DeterministicRng rng(derive_party_seed(seed ^ 0x766f746573ULL, index));
  const std::size_t k = w.config.num_classes;
  const std::size_t users = w.config.num_users;
  const std::size_t majority = rng.index_below(k);
  Votes votes(users, std::vector<double>(k, 0.0));
  for (std::size_t u = 0; u < users; ++u) {
    const bool random = contested(index) && u % 2 == 1;
    votes[u][random ? rng.index_below(k) : majority] = 1.0;
  }
  return votes;
}

SetupResult make_system(const Workload& w, std::uint64_t seed, bool repeat) {
  // Repeated set-ups: at least 3, more while they are cheap (up to 9 or
  // 0.25 s).  Batch workloads time more between the pass's requests
  // (PassLimit::setups), so their median samples the whole run.
  SetupResult out;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0;
       i == 0 || (repeat && (i < 3 || (i < 9 && now_ns() - start < 250'000'000)));
       ++i) {
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<System> system;
    if (w.kind == Kind::kServe) {
      system = std::make_unique<ServeSystem>(w, seed, kKeySeed + i);
    } else {
      system = std::make_unique<BatchSystem>(w, seed, kKeySeed + i);
    }
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (i == 0) {
      out.system = std::move(system);
    } else {
      out.spares.push_back(std::move(system));
    }
  }
  return out;
}

}  // namespace pcbench
