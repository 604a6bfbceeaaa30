// Channel — the per-party view of a transport.
//
// A protocol party program (see mpc/consensus_batch.h and the role functions
// in mpc/dgk_compare.h, mpc/secure_sum.h, mpc/blind_permute.h) is written
// once against this interface: it knows its own name, sends to and receives
// from named peers, and labels its traffic with the current protocol step so
// `TrafficStats` (paper Tables I/II) reads identically off every transport.
//
// Two implementations are provided:
//   * NetworkChannel  — over the deterministic in-process `Network`.  The
//     party runner (net/party_runner.h) installs a wait hook so a recv on an
//     empty link yields to the peer instead of throwing; standalone (no
//     hook) it inherits Network's sends-precede-recvs discipline.
//   * BlockingChannel — over `BlockingNetwork`, for parties on real
//     threads.  Sends from different parties race, which TrafficStats'
//     internal lock absorbs.
//
// The one piece of Alg. 5 that is NOT point-to-point is the step-5 verdict:
// the threshold decision (proceed vs ⊥) is public protocol output, and users
// learn it out-of-band (a deployment would publish it on a bulletin board —
// servers never message users).  `post_public` / `await_public` model that
// bulletin; the runner wires them up.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "net/blocking_network.h"
#include "net/message.h"
#include "net/transport.h"
#include "obs/trace.h"

namespace pcl {

/// Transport-agnostic endpoint a party program talks through.
class Channel {
 public:
  virtual ~Channel() = default;

  /// This party's name ("S1", "S2", "user:3", ...).
  [[nodiscard]] virtual const std::string& self() const = 0;

  virtual void send(const std::string& to, MessageWriter message) = 0;
  [[nodiscard]] virtual MessageReader recv(const std::string& from) = 0;

  /// Step label attached to subsequent sends (empty = inherit the
  /// transport's ambient label).  Prefer ChannelStepScope over calling this
  /// directly.
  virtual void set_step(std::string step) = 0;
  [[nodiscard]] virtual const std::string& step() const = 0;

  /// Accumulates wall time for a step (paper Table I).  Exactly one party
  /// per protocol should time a given step, or it is double-counted.
  virtual void add_step_time(const std::string& step,
                             std::chrono::nanoseconds elapsed) = 0;

  /// Out-of-band public bulletin (see file comment).  Posts form an ordered
  /// log: every consumer reads the sequence from its own cursor, one entry
  /// per await_public() call (lane-batched runs post one verdict per
  /// query).  Throws std::logic_error when the transport has no bulletin
  /// attached.
  virtual void post_public(std::int64_t value) = 0;
  [[nodiscard]] virtual std::int64_t await_public() = 0;
};

/// RAII step label: sets the channel's step, restores the previous one on
/// exit, and (for kTimed) accumulates the elapsed wall time into the stats.
/// Also opens an obs::Span named after the step, so a run with a tracer
/// attached gets per-party, per-step events (and per-step crypto-op
/// attribution) for free — every party opens its span, while step *timing*
/// stays single-party via kTimed.  Protocol steps are on-line work by
/// definition (they sit between a query arriving and its label releasing),
/// so the scope defaults the ambient obs::Phase to kOnline; pass kOffline
/// for precompute traffic (e.g. pool refill shipping).
class ChannelStepScope {
 public:
  enum class Timing { kUntimed, kTimed };

  ChannelStepScope(Channel& chan, std::string step,
                   Timing timing = Timing::kUntimed,
                   obs::Phase phase = obs::Phase::kOnline);
  ~ChannelStepScope();
  ChannelStepScope(const ChannelStepScope&) = delete;
  ChannelStepScope& operator=(const ChannelStepScope&) = delete;

 private:
  Channel& chan_;
  std::string step_;
  std::string previous_step_;
  Timing timing_;
  std::uint64_t start_ns_;
  obs::PhaseScope phase_scope_;  // before span_: the span records under it
  obs::Span span_;  // after step_: named by it, closed while it is alive
};

/// Channel over the deterministic in-process Network.
class NetworkChannel final : public Channel {
 public:
  /// `timing_stats` receives add_step_time() calls (traffic accounting is
  /// Network's own job); may be null.
  NetworkChannel(Network& net, std::string self,
                 TrafficStats* timing_stats = nullptr);

  /// Installed by the party runner: called before a recv that would find
  /// the (from -> self) link empty, so the party can yield until the peer
  /// has sent.  Without a hook, recv inherits Network's throw-on-empty.
  void set_wait_hook(std::function<void(const std::string& from)> hook);
  /// Installed by the party runner: the shared public bulletin.
  void set_public_hooks(std::function<void(std::int64_t)> post,
                        std::function<std::int64_t()> await);
  /// Installed by the party runner: total-bytes counter (runner-owned; all
  /// writes are serialized by the runner's scheduling).
  void set_byte_counter(std::size_t* counter);

  [[nodiscard]] const std::string& self() const override { return self_; }
  void send(const std::string& to, MessageWriter message) override;
  [[nodiscard]] MessageReader recv(const std::string& from) override;
  void set_step(std::string step) override { step_ = std::move(step); }
  [[nodiscard]] const std::string& step() const override { return step_; }
  void add_step_time(const std::string& step,
                     std::chrono::nanoseconds elapsed) override;
  void post_public(std::int64_t value) override;
  [[nodiscard]] std::int64_t await_public() override;

 private:
  Network& net_;
  std::string self_;
  std::string step_;
  TrafficStats* timing_stats_;
  std::function<void(const std::string&)> wait_hook_;
  std::function<void(std::int64_t)> post_hook_;
  std::function<std::int64_t()> await_hook_;
  std::size_t* byte_counter_ = nullptr;
};

/// Channel over BlockingNetwork for parties on real threads.  Step-tagged
/// traffic accounting happens here (BlockingNetwork itself only counts raw
/// bytes); TrafficStats is internally locked, so concurrent channels may
/// share one stats object directly.
class BlockingChannel final : public Channel {
 public:
  BlockingChannel(BlockingNetwork& net, std::string self,
                  TrafficStats* stats = nullptr);

  /// Installed by the party runner: the shared public bulletin.
  void set_public_hooks(std::function<void(std::int64_t)> post,
                        std::function<std::int64_t()> await);

  [[nodiscard]] const std::string& self() const override { return self_; }
  void send(const std::string& to, MessageWriter message) override;
  [[nodiscard]] MessageReader recv(const std::string& from) override;
  void set_step(std::string step) override { step_ = std::move(step); }
  [[nodiscard]] const std::string& step() const override { return step_; }
  void add_step_time(const std::string& step,
                     std::chrono::nanoseconds elapsed) override;
  void post_public(std::int64_t value) override;
  [[nodiscard]] std::int64_t await_public() override;

 private:
  BlockingNetwork& net_;
  std::string self_;
  std::string step_;
  TrafficStats* stats_;
  std::function<void(std::int64_t)> post_hook_;
  std::function<std::int64_t()> await_hook_;
};

}  // namespace pcl
