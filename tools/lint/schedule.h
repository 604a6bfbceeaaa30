// PC009 — protocol-schedule extraction and cross-party verification.
//
// Every party program speaks over `Channel` (src/net/channel.h): directed
// `send`/`recv` with literal counterparty names plus the `post_public` /
// `await_public` bulletin, labelled by `ChannelStepScope` step tags.  This
// pass recovers the communication schedule of each party *statically*:
//
//   * Direct events: `chan.send("S2", ...)`, `chan.recv(from)`,
//     `chan.post_public(...)`, `chan.await_public()`.  Peers are literal
//     names, `"user:" + ...` (normalized to `user:*`), or `$param` when
//     the peer is a function parameter.
//   * Call expansion: a call that passes the channel to another scanned
//     function (helper or role-class method, resolved through local object
//     types) splices in that function's events, substituting `$param`
//     peers positionally and inheriting the caller's step tag.
//   * Multiplicity: events inside loop or lambda bodies get count `*`
//     (unknown repetition); straight-line events count exactly.  Adjacent
//     events with identical (op, peer, step) coalesce.
//
// The extracted schedules are checked against a committed manifest
// (PROTOCOL_SCHEDULE.json, schema pc-schedule-v1) and against each other:
//
//   1. Drift: extraction must equal the manifest event-for-event, so the
//      manifest can never silently rot.
//   2. Lane matching: for every ordered party pair A -> B, A's sends to B
//      and B's recvs from A must agree positionally in step tag, with
//      counts equal or `*` on either side.
//   3. Bulletin: a party that awaits public values needs some party that
//      posts them.
//   4. Rendezvous simulation (finite schedules only): sends buffer, recvs
//      block on a matching buffered message, awaits block on the bulletin;
//      if no party can advance, the schedule deadlocks and the blocked
//      event of every unfinished party is reported.
//
// Loops and lambdas bound what token-level analysis can promise: `*`
// counts are matched loosely and exempt a program from the simulation.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "functions.h"
#include "report.h"

namespace pclint {

/// One schedule event.  count == -1 renders as "*" (unknown repetition).
struct ScheduleEvent {
  std::string op;    // "send" | "recv" | "post" | "await"
  std::string peer;  // "" for post/await
  std::string step;  // ChannelStepScope tag in force, "" when none
  long count = 1;

  bool operator==(const ScheduleEvent& o) const {
    return op == o.op && peer == o.peer && step == o.step && count == o.count;
  }
};

struct PartySchedule {
  std::string party;     // "S1" | "S2" | "user"
  std::string function;  // qualified name, e.g. "ConsensusS1BatchProgram::run"
  std::vector<ScheduleEvent> events;
};

struct ProgramSchedule {
  std::string name;  // "consensus_batch", "dgk_compare", ...
  std::vector<PartySchedule> parties;
};

/// Cross-file schedule extractor.  Add every scanned file first, then ask
/// for per-function event summaries (memoized, recursion-guarded).
class ScheduleExtractor {
 public:
  /// Registers a file; the pointers must outlive the extractor.
  void add_file(const LexedFile* lex, const FileModel* model);

  /// Events for a function by qualified ("Cls::fn") or bare name.  Returns
  /// false when the function is not in the corpus.
  bool events_for(const std::string& function,
                  std::vector<ScheduleEvent>& out);

 private:
  struct Source {
    const LexedFile* lex = nullptr;
    const FileModel* model = nullptr;
    const FunctionModel* fn = nullptr;
  };
  std::vector<ScheduleEvent> extract(const Source& src);
  const Source* resolve(const std::string& name) const;

  std::map<std::string, Source> by_name_;   // qualified name -> source
  std::map<std::string, std::string> bare_; // bare name -> qualified (unique)
  std::set<std::string> known_types_;       // class names with methods
  std::map<std::string, std::vector<ScheduleEvent>> memo_;
  std::set<std::string> visiting_;
};

/// The four party programs and their entry functions, used by
/// --dump-schedule when no manifest exists yet.
std::vector<ProgramSchedule> builtin_programs();

/// Parses a pc-schedule-v1 manifest.  Returns false and sets `err` on
/// malformed input.
bool parse_manifest(const std::string& json_text,
                    std::vector<ProgramSchedule>& out, std::string& err);

/// Serializes programs as a pc-schedule-v1 manifest document.
std::string render_manifest(const std::vector<ProgramSchedule>& programs);

/// Runs all PC009 checks: extraction-vs-manifest drift, lane matching,
/// bulletin pairing, and the rendezvous simulation.  `manifest_rel` is the
/// file findings are attributed to.
void check_schedules(const std::vector<ProgramSchedule>& manifest,
                     ScheduleExtractor& extractor,
                     const std::string& manifest_rel,
                     std::vector<Finding>& out);

}  // namespace pclint
