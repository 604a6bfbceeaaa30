#include "net/session/session_server.h"

#include <set>
#include <utility>

#include "net/errors.h"
#include "net/message.h"

namespace pcl {

namespace {

/// Control-frame payloads: OPEN carries the session seed, CLOSE carries
/// (label-or--1, status text).  Step tags stay short classifications so
/// arbitrary error text never fights the step-length cap.
[[nodiscard]] Frame control_frame(FrameKind kind, std::uint32_t session,
                                  std::string step,
                                  std::vector<std::uint8_t> payload) {
  Frame frame;
  frame.kind = kind;
  frame.session = session;
  frame.step = std::move(step);
  frame.payload = std::move(payload);
  return frame;
}

}  // namespace

std::string build_sessions_json(const std::string& role, std::size_t active,
                                const std::vector<SessionRecord>& records) {
  using obs::JsonValue;
  JsonValue::Array rows;
  rows.reserve(records.size());
  for (const SessionRecord& r : records) {
    const std::uint64_t end =
        r.closed_ns != 0 ? r.closed_ns : obs::monotonic_time_ns();
    const std::uint64_t elapsed_ms = (end - r.opened_ns) / 1'000'000;
    JsonValue::Object row;
    row["id"] = JsonValue(std::uint64_t{r.info.id});
    row["state"] = r.state == SessionState::kRunning
                       ? "running"
                       : (r.state == SessionState::kDone ? "done" : "failed");
    row["status"] = r.status;
    row["label"] = r.label.has_value() ? JsonValue(*r.label) : JsonValue();
    row["elapsed_ms"] = JsonValue(elapsed_ms);
    rows.emplace_back(std::move(row));
  }
  JsonValue::Object doc;
  doc["schema"] = "pc-sessions-v1";
  doc["source"] = role;
  doc["active"] = JsonValue(std::uint64_t{active});
  doc["sessions"] = std::move(rows);
  return JsonValue(std::move(doc)).dump(2) + "\n";
}

SessionServer::SessionServer(SessionServerConfig config, Program program,
                             CloseSink artifact_sink)
    : config_(std::move(config)),
      program_(std::move(program)),
      artifact_sink_(std::move(artifact_sink)),
      mux_(config_.limits),
      manager_(config_.manager, mux_) {}

SessionServer::~SessionServer() { drain_and_stop(); }

SessionRoutes SessionServer::routes_for(std::uint32_t session) const {
  SessionRoutes routes;
  routes.session = session;
  routes.self = config_.role;
  routes.send_deadline = config_.timeouts.send;
  routes.recv_deadline = config_.timeouts.recv;
  const std::string trunk_peer = config_.role == "S1" ? "S2" : "S1";
  routes.conn_for[trunk_peer] = trunk_peer;
  for (std::size_t u = 0; u < config_.num_users; ++u) {
    std::string user = "user:";
    user += std::to_string(u);
    routes.conn_for[user] = user;
    if (config_.role == "S1") routes.bulletin_listeners.push_back(user);
  }
  return routes;
}

void SessionServer::start(TcpListener listener) {
  if (started_) throw std::logic_error("session server: start() twice");
  started_ = true;
  std::set<std::string> expected;
  for (std::size_t u = 0; u < config_.num_users; ++u) {
    std::string user = "user:";
    user += std::to_string(u);
    expected.insert(std::move(user));
  }
  expected.insert("ctl");
  std::map<std::string, TcpSocket> conns;
  if (config_.role == "S2") {
    // Dial the trunk first: S1 is already accepting, and arriving there
    // before any user guarantees S1 sees the trunk inside its accept set.
    conns.emplace("S1", dial_peer(endpoint_of(config_.endpoints, "S1"),
                                  config_.role, config_.timeouts));
  } else if (config_.role == "S1") {
    expected.insert("S2");
  } else {
    throw ChannelError("session server: role must be S1 or S2, got '" +
                       config_.role + "'");
  }
  if (!listener.valid()) {
    const TcpEndpoint& own = endpoint_of(config_.endpoints, config_.role);
    listener = TcpListener::bind(own.host, own.port);
  }
  conns.merge(accept_peers(listener, std::move(expected), config_.role,
                           config_.timeouts));
  listener.close();
  mux_.set_control_handler(
      [this](const std::string& conn, Frame frame) {
        handle_open(conn, std::move(frame));
      });
  for (auto& [label, socket] : conns) {
    attach_connection(loop_, mux_, label,
                      std::make_shared<SharedSocket>(std::move(socket)),
                      [this](const std::string& who, const std::string& why) {
                        // A dead connection strands every session (v1: each
                        // session spans every connection); fail them all,
                        // typed, so their programs unwind promptly.
                        mux_.fail_connection(who, why);
                      });
  }
  loop_thread_ = std::thread([this] { loop_.run(); });
}

void SessionServer::handle_open(const std::string& conn, Frame frame) {
  SessionInfo info;
  info.id = frame.session;
  try {
    MessageReader reader(std::move(frame.payload));
    info.seed = reader.read_u64();
  } catch (const std::exception& e) {
    const std::string what = e.what();
    mux_.connection(conn).write(
        control_frame(FrameKind::kSessionReject, info.id, "error",
                      std::vector<std::uint8_t>(what.begin(), what.end())),
        config_.timeouts.send);
    return;
  }
  try {
    manager_.admit(info);
  } catch (const ChannelBusy& e) {
    const std::string what = e.what();
    mux_.connection(conn).write(
        control_frame(FrameKind::kSessionReject, info.id, "busy",
                      std::vector<std::uint8_t>(what.begin(), what.end())),
        config_.timeouts.send);
    return;
  } catch (const ChannelError& e) {
    const std::string what = e.what();
    mux_.connection(conn).write(
        control_frame(FrameKind::kSessionReject, info.id, "error",
                      std::vector<std::uint8_t>(what.begin(), what.end())),
        config_.timeouts.send);
    return;
  }
  mux_.connection(conn).write(
      control_frame(FrameKind::kSessionAccept, info.id, "", {}),
      config_.timeouts.send);
  manager_.launch(
      info, routes_for(info.id), program_,
      [this, conn](const SessionRecord& record, SessionObs& obs) {
        MessageWriter writer;
        writer.write_i64(record.label.has_value() ? *record.label : -1);
        writer.write_string(record.status);
        const std::string step =
            record.state == SessionState::kDone ? "ok" : "error";
        try {
          mux_.connection(conn).write(
              control_frame(FrameKind::kSessionClose, record.info.id, step,
                            std::move(writer).take()),
              config_.timeouts.send);
        } catch (const ChannelError&) {
          // The control connection died; the record still closes locally.
        }
        if (artifact_sink_) artifact_sink_(record, obs);
      });
}

void SessionServer::drain_and_stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  manager_.begin_drain();
  manager_.await_idle();
  loop_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  mux_.close_sockets();
}

std::string SessionServer::sessions_json() const {
  // One list() snapshot supplies both the rows and the active count: state
  // transitions happen under the manager's lock, so counting kRunning rows
  // here always satisfies the pc-sessions-v1 cross-check (active == running
  // rows), even while a concurrent teardown is in flight.
  const std::vector<SessionRecord> records = manager_.list();
  std::size_t active = 0;
  for (const SessionRecord& r : records) {
    if (r.state == SessionState::kRunning) ++active;
  }
  return build_sessions_json(config_.role, active, records);
}

}  // namespace pcl
