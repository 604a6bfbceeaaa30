// Channel — the per-party view of a transport.
//
// A protocol party program (the lane-batched Alg. 5 programs of
// mpc/consensus_batch.h) is written once against this interface: it knows
// its own name, sends to and receives from named peers, and labels its
// traffic with the current protocol step, so `TrafficStats` (paper Table
// II) reads identically off every transport and each step's obs span
// (paper Table I) carries the same name.
//
// The in-memory implementation is NetworkChannel, a party's endpoint on the
// in-process `Network`; the party runner (net/party_runner.h) runs it under
// a deterministic baton or on free threads.  Over TCP the implementations
// are TcpChannel and the serving daemons' SessionChannel.
//
// The one piece of Alg. 5 that is NOT point-to-point is the step-5 verdict:
// the threshold decision (proceed vs ⊥) is public protocol output, and users
// learn it out-of-band (a deployment would publish it on a bulletin board —
// servers never message users).  `post_public` / `await_public` model that
// bulletin.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

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

  /// Step label attached to subsequent sends (empty = kUnsetStep, see
  /// net/transport.h).  Prefer ChannelStepScope over calling this directly.
  virtual void set_step(std::string step) = 0;
  [[nodiscard]] virtual const std::string& step() const = 0;

  /// Out-of-band public bulletin (see file comment).  Posts form an ordered
  /// log: every consumer reads the sequence from its own cursor, one entry
  /// per await_public() call (lane-batched runs post one verdict per
  /// query).
  virtual void post_public(std::int64_t value) = 0;
  [[nodiscard]] virtual std::int64_t await_public() = 0;
};

/// RAII step label: sets the channel's step and restores the previous one
/// on exit.  Also opens an obs::Span named after the step, so a run with a
/// tracer attached gets per-party, per-step events (and per-step crypto-op
/// attribution): the span is the step's only clock, and paper Table I sums
/// S1's (obs::span_seconds).  Protocol steps are on-line work by definition
/// (they sit between a query arriving and its label releasing), so the
/// scope sets the ambient obs::Phase to kOnline.
class ChannelStepScope {
 public:
  ChannelStepScope(Channel& chan, std::string step);
  ~ChannelStepScope();
  ChannelStepScope(const ChannelStepScope&) = delete;
  ChannelStepScope& operator=(const ChannelStepScope&) = delete;

 private:
  Channel& chan_;
  std::string step_;
  std::string previous_step_;
  obs::PhaseScope phase_scope_;  // before span_: the span records under it
  obs::Span span_;  // after step_: named by it, closed while it is alive
};

/// A party's endpoint on the in-process Network.  Sends are recorded by the
/// Network under this channel's step.  Without a wait hook, recv and
/// await_public block in the Network until data arrives or its deadline
/// passes.
class NetworkChannel final : public Channel {
 public:
  NetworkChannel(Network& net, std::string self);

  /// Called before every recv or await_public with what the party awaits
  /// (a peer's name, or "public signal") and a test that holds once the
  /// wait can complete; returns when it holds.  The party runner's
  /// deterministic schedule installs one to pass its baton while a party
  /// waits.
  using WaitHook = std::function<void(const std::string& awaited,
                                      const std::function<bool()>& ready)>;
  void set_wait_hook(WaitHook hook);

  [[nodiscard]] const std::string& self() const override { return self_; }
  void send(const std::string& to, MessageWriter message) override;
  [[nodiscard]] MessageReader recv(const std::string& from) override;
  void set_step(std::string step) override { step_ = std::move(step); }
  [[nodiscard]] const std::string& step() const override { return step_; }
  void post_public(std::int64_t value) override;
  [[nodiscard]] std::int64_t await_public() override;

 private:
  Network& net_;
  std::string self_;
  std::string step_;
  std::size_t public_cursor_ = 0;  // next bulletin entry to read
  WaitHook wait_hook_;
};

}  // namespace pcl
