// Party runner — executes a set of per-party protocol programs.
//
// A `Party` is a name plus a program written against `Channel` (see
// net/channel.h).  The runner owns everything deployment-shaped that the
// programs must not contain: transport construction, scheduling, error
// collection, and traffic/transcript reporting.  Protocol code never
// constructs a `Network` itself (lint rule PC006 enforces this outside
// src/net/ and the thin runner files).
//
// The two in-memory schedules run one engine over one `Network` that the
// runner builds for the run, each party on its own thread with a
// NetworkChannel:
//
//   * Deterministic (`kDeterministic`): a single baton serializes the
//     parties — at most one executes at any instant, and when a party waits
//     (recv on an empty link, or awaiting the bulletin) the runnable party
//     with the lowest index resumes.  The interleaving — and therefore the
//     transcript order and every shared-Rng consumption order — is a pure
//     function of the protocol, and a run where every party waits is
//     diagnosed as a deadlock with its wait graph.  The mutex handoffs give
//     every cross-party access a happens-before edge, so the same code is
//     TSan-clean.
//   * Threaded (`kThreaded`): the parties run freely, interleaved by data
//     availability as TCP endpoints would be; waits block in the Network
//     until its deadline.  Per-step traffic totals are byte-identical to
//     the deterministic schedule for the same party programs and seeds
//     (totals are order-independent; payloads depend only on each party's
//     own Rng stream).
//
// Both schedules share one failure rule: the first error a party throws
// ends the run, every peer blocked in a recv or an await unwinds at once
// (those unwinds are not errors), and the runner rethrows that first error.
//
// TCP transport (`kTcp`): one thread per party over REAL loopback sockets
// (net/tcp_runner.h) — the single-machine rehearsal of the multi-process
// deployment that tools/pc_party forks for real.  Same byte-identity
// contract as kThreaded; it keeps its own root-cause ranking, since a
// socket peer's failure reaches the others as EOF or a timeout.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/transport.h"
#include "obs/trace.h"

namespace pcl {

/// One protocol party: a name and a program run against its channel.
struct Party {
  std::string name;
  std::function<void(Channel&)> run;
};

enum class PartyTransport { kDeterministic, kThreaded, kTcp };

struct PartyRunOptions {
  PartyTransport transport = PartyTransport::kDeterministic;
  /// Receives per-step traffic (every transport).
  TrafficStats* stats = nullptr;
  /// Capture per-message metadata (in-memory schedules; its order is a
  /// function of the protocol only under kDeterministic).
  bool record_transcript = false;
  /// Per-recv deadline for the threaded and TCP transports (on kTcp it
  /// also bounds connect/accept/send, so one knob caps every stall).
  std::chrono::milliseconds recv_timeout = std::chrono::seconds(30);
  /// Optional observability: each party's thread is bound to these for the
  /// duration of its program, so ChannelStepScope spans (the per-step time
  /// of paper Table I) and obs::count() calls are recorded per party.
  /// Purely passive — attaching them never changes protocol traffic (obs
  /// code touches no Rng stream).
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct PartyRunReport {
  /// Send-ordered metadata (in-memory schedules with record_transcript).
  std::vector<TranscriptEntry> transcript;
  /// Messages still queued after every party returned (0 for a complete
  /// protocol).
  std::size_t undelivered = 0;
  /// Total bytes sent across all links.
  std::size_t bytes_sent = 0;
};

/// Runs the parties over a transport the runner builds, chosen by
/// `options`.
/// On the in-memory schedules a party's error ends the run and is
/// rethrown (see the file comment); a deterministic run in which every
/// party waits throws std::logic_error naming the wait graph.  On kTcp the
/// root-cause error is preferred over the EOFs and timeouts it causes.
PartyRunReport run_parties(std::span<const Party> parties,
                           const PartyRunOptions& options);

/// One party's seed from a query seed, splitmix64(seed, index) (see
/// bigint/rng.h), so every transport hands party `index` an identical Rng
/// stream.
[[nodiscard]] std::uint64_t derive_party_seed(std::uint64_t seed,
                                              std::uint64_t index);

}  // namespace pcl
