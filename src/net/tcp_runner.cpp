#include "net/tcp_runner.h"

#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/errors.h"
#include "net/tcp_channel.h"
#include "obs/flight.h"

namespace pcl {

namespace {

/// Root-cause preference when several parties fail together: a protocol
/// error (rank 0) beats the ChannelClosed its unwinding causes in peers
/// (rank 1), which beats the ChannelTimeout a starved bystander hits
/// (rank 2).
[[nodiscard]] int error_rank(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const ChannelTimeout&) {
    return 2;
  } catch (const ChannelClosed&) {
    return 1;
  } catch (...) {
    return 0;
  }
}

}  // namespace

PartyRunReport run_parties_tcp_loopback(std::span<const Party> parties,
                                        const PartyRunOptions& options) {
  const std::size_t n = parties.size();
  PartyRunReport report;
  if (n == 0) return report;

  // Party i dials every lower-indexed party and accepts every higher one:
  // acyclic by construction, so pre-binding the listeners here (ephemeral
  // ports; parallel test runs never collide) makes connect() race-free.
  std::vector<TcpListener> listeners(n);
  EndpointMap endpoints;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    listeners[i] = TcpListener::bind("127.0.0.1", 0);
    endpoints[parties[i].name] =
        TcpEndpoint{"127.0.0.1", listeners[i].port()};
  }

  // One deadline knob governs every way a dead peer could stall us.
  TcpTimeouts timeouts;
  timeouts.connect = options.recv_timeout;
  timeouts.accept = options.recv_timeout;
  timeouts.recv = options.recv_timeout;
  timeouts.send = options.recv_timeout;

  std::vector<std::string> names;
  names.reserve(n);
  for (const Party& p : parties) names.push_back(p.name);

  std::vector<std::exception_ptr> errors(n);
  std::vector<std::size_t> pending(n, 0);
  std::vector<std::size_t> bytes(n, 0);

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      const obs::ObserverScope obs_scope(options.trace, options.metrics,
                                         names[i]);
      TcpPartyWiring wiring;
      wiring.self = names[i];
      wiring.dial.assign(names.begin(),
                         names.begin() + static_cast<std::ptrdiff_t>(i));
      wiring.accept.assign(names.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                           names.end());
      wiring.endpoints = endpoints;
      wiring.bulletin_host = names[0];
      if (i == 0) wiring.bulletin_listeners.assign(names.begin() + 1,
                                                   names.end());
      wiring.timeouts = timeouts;
      TcpChannel chan(std::move(wiring), options.stats);
      try {
        chan.connect(std::move(listeners[i]));
        parties[i].run(chan);
      } catch (...) {
        // Timeline marker: the drained flight-recorder trace shows which
        // party's program threw (peers then fail as EOF collateral).
        obs::FlightRecorder::note(("party failed: " + names[i]).c_str());
        errors[i] = std::current_exception();
      }
      pending[i] = chan.pending_messages();
      bytes[i] = chan.bytes_sent();
      // ~TcpChannel closes the sockets, so peers of a failed party see EOF
      // (ChannelClosed) instead of waiting out their full recv deadline.
    });
  }
  for (std::thread& t : threads) t.join();

  const std::exception_ptr* best = nullptr;
  int best_rank = 3;
  for (const std::exception_ptr& error : errors) {
    if (!error) continue;
    const int rank = error_rank(error);
    if (rank < best_rank) {
      best = &error;
      best_rank = rank;
    }
  }
  if (best != nullptr) std::rethrow_exception(*best);

  for (std::size_t i = 0; i < n; ++i) {
    report.undelivered += pending[i];
    report.bytes_sent += bytes[i];
  }
  return report;
}

}  // namespace pcl
