#include "net/session/session_client.h"

#include <mutex>
#include <utility>

#include "net/errors.h"
#include "net/message.h"
#include "net/session/session_channel.h"

namespace pcl {

namespace {

[[nodiscard]] std::string user_name(std::size_t u) {
  std::string name = "user:";
  name += std::to_string(u);
  return name;
}

[[nodiscard]] std::string user_conn(std::size_t u, const std::string& server) {
  std::string label = "u";
  label += std::to_string(u);
  label += ":";
  label += server;
  return label;
}

}  // namespace

SessionClient::SessionClient(SessionClientConfig config, UserProgram program)
    : config_(std::move(config)),
      program_(std::move(program)),
      mux_(SessionLimits{}) {}

SessionClient::~SessionClient() { close(); }

void SessionClient::connect() {
  if (connected_) throw std::logic_error("session client: connect() twice");
  connected_ = true;
  const auto dial = [this](const std::string& server,
                           const std::string& hello_name,
                           const std::string& label) {
    attach_connection(loop_, mux_, label,
                      std::make_shared<SharedSocket>(
                          dial_peer(endpoint_of(config_.endpoints, server),
                                    hello_name, config_.timeouts)),
                      [this](const std::string& who, const std::string& why) {
                        mux_.fail_connection(who, why);
                      });
  };
  for (const std::string server : {"S1", "S2"}) {
    for (std::size_t u = 0; u < config_.num_users; ++u) {
      dial(server, user_name(u), user_conn(u, server));
    }
    std::string ctl = "ctl:";
    ctl += server;
    dial(server, "ctl", ctl);
  }
  loop_thread_ = std::thread([this] { loop_.run(); });
}

void SessionClient::open_on(const std::string& server,
                            const SessionInfo& info) {
  std::string ctl = "ctl:";
  ctl += server;
  const std::uint64_t start = obs::monotonic_time_ns();
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(config_.open_budget.count()) * 1'000'000ull;
  std::size_t attempt = 0;
  for (;;) {
    MessageWriter writer;
    writer.write_u64(info.seed);
    Frame open;
    open.kind = FrameKind::kSessionOpen;
    open.session = info.id;
    open.payload = std::move(writer).take();
    mux_.connection(ctl).write(open, config_.timeouts.send);
    const Frame reply =
        mux_.recv_control(info.id, ctl, config_.timeouts.recv);
    if (reply.kind == FrameKind::kSessionAccept) return;
    const std::string text(reply.payload.begin(), reply.payload.end());
    if (reply.kind != FrameKind::kSessionReject || reply.step != "busy") {
      throw ChannelError("session " + std::to_string(info.id) + ": '" +
                         server + "' refused: " + text);
    }
    if (obs::monotonic_time_ns() - start >= budget_ns) {
      throw ChannelBusy("session " + std::to_string(info.id) + ": '" +
                        server + "' still busy after " +
                        std::to_string(config_.open_budget.count()) +
                        "ms: " + text);
    }
    // Busy is an invitation to come back: reuse the transport's jittered
    // schedule so a fleet of rejected opens does not re-arrive in lockstep.
    std::this_thread::sleep_for(dial_backoff(attempt++, info.seed));
  }
}

SessionOutcome SessionClient::run_one(const SessionSpec& spec) {
  SessionOutcome outcome;
  outcome.info = spec.info;
  outcome.traffic = std::make_shared<TrafficStats>();
  const std::uint64_t t0 = obs::monotonic_time_ns();
  mux_.register_session(spec.info.id);
  try {
    {
      // The whole S2+S1 open pair is one critical section: both daemons
      // must admit sessions in the SAME global order, or their FIFO pools
      // can schedule disjoint session sets and stall until the recv
      // deadlines (see session_manager.h on deadlock-freedom).  Busy
      // retries sleep with the lock held on purpose — later opens waiting
      // here is exactly what keeps the order aligned while the rejecting
      // server finishes an earlier session and frees its cap.
      const std::lock_guard<std::mutex> open_lock(open_mu_);
      // S2 before S1: once S1 accepts, its program may immediately emit
      // trunk frames for this session, and S2 must know the id by then
      // (orphan parking covers the residual race, not the common path).
      open_on("S2", spec.info);
      open_on("S1", spec.info);
    }
    std::vector<std::string> user_errors(config_.num_users);
    if (spec.run_users) {
      std::vector<std::thread> users;
      users.reserve(config_.num_users);
      for (std::size_t u = 0; u < config_.num_users; ++u) {
        users.emplace_back([this, &spec, &outcome, &user_errors, u] {
          SessionRoutes routes;
          routes.session = spec.info.id;
          routes.self = user_name(u);
          routes.conn_for["S1"] = user_conn(u, "S1");
          routes.conn_for["S2"] = user_conn(u, "S2");
          routes.send_deadline = config_.timeouts.send;
          routes.recv_deadline = config_.timeouts.recv;
          SessionChannel channel(mux_, std::move(routes),
                                 outcome.traffic.get());
          try {
            program_(spec.info, user_name(u), channel);
          } catch (const std::exception& e) {
            user_errors[u] = e.what();
          }
        });
      }
      for (std::thread& t : users) t.join();
    }
    // An abandoned session (run_users=false) is failed by the SERVERS' recv
    // deadlines, so their CLOSE verdicts arrive up to one full recv timeout
    // late — wait two timeouts plus slack before giving up on a verdict.
    const auto close_wait =
        config_.timeouts.recv * 2 + std::chrono::milliseconds(1000);
    for (const std::string server : {"S1", "S2"}) {
      std::string ctl = "ctl:";
      ctl += server;
      const Frame close_frame =
          mux_.recv_control(spec.info.id, ctl, close_wait);
      if (close_frame.kind != FrameKind::kSessionClose) {
        throw FramingError("session " + std::to_string(spec.info.id) +
                           ": expected CLOSE from '" + server + "'");
      }
      MessageReader reader(std::vector<std::uint8_t>(close_frame.payload));
      const std::int64_t label = reader.read_i64();
      const std::string status = reader.read_string();
      if (server == "S1") {
        outcome.s1_status = status;
        if (label >= 0) outcome.label = static_cast<int>(label);
      } else {
        outcome.s2_status = status;
      }
    }
    outcome.ok = outcome.s1_status == "ok" && outcome.s2_status == "ok";
    outcome.status = outcome.s1_status != "ok"
                         ? outcome.s1_status
                         : (outcome.s2_status != "ok" ? outcome.s2_status
                                                      : std::string("ok"));
    for (const std::string& err : user_errors) {
      if (!err.empty()) {
        outcome.ok = false;
        if (outcome.status == "ok") outcome.status = "error:user: " + err;
      }
    }
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.status = std::string("error: ") + e.what();
  }
  mux_.unregister_session(spec.info.id);
  outcome.latency_ns = obs::monotonic_time_ns() - t0;
  metrics_.latency_for("session", obs::Phase::kOnline)
      .record(outcome.latency_ns);
  return outcome;
}

std::vector<SessionOutcome> SessionClient::run(
    const std::vector<SessionSpec>& specs) {
  if (!connected_) throw std::logic_error("session client: run before connect");
  std::vector<SessionOutcome> outcomes(specs.size());
  {
    WorkerPool pool(config_.max_in_flight);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      pool.submit([this, &specs, &outcomes, i] {
        outcomes[i] = run_one(specs[i]);
      });
    }
    // Destruction drains the FIFO queue and joins — the completion barrier.
  }
  return outcomes;
}

void SessionClient::close() {
  if (!connected_ || closed_) return;
  closed_ = true;
  loop_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  mux_.close_sockets();
}

}  // namespace pcl
