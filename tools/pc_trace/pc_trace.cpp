// pc_trace — summarize and validate the observability files the benches and
// the party runner emit, and poll live daemons.
//
//   pc_trace <trace.json>            render a per-phase summary table
//   pc_trace --check <file>...       validate files against their schemas
//   pc_trace --merge <out> <in>...   merge per-process traces (pc_party)
//                                    into one validated timeline
//   pc_trace --live <host:port>      fetch + render a pc-metrics-v1
//                                    snapshot from `pc_party --admin`
//                                    (--out FILE saves the raw JSON)
//   pc_trace --quit <host:port>      ask a lingering daemon to exit
//   pc_trace --diff <old> <new>      compare two pc-bench-v1 records;
//                                    nonzero exit on cost regression
//                                    (--tolerance PCT, --wall)
//
// A trace file is Chrome trace-event JSON ("pc-trace-v1"): open it in
// chrome://tracing or Perfetto for the timeline; this tool renders the
// machine-readable "pc" summary — per protocol step: wall time (max over
// parties of that party's span time, since parties run concurrently),
// bytes and messages on the wire, and the Paillier / DGK / modexp counts
// behind the paper's Tables I/II.  Lane-batched runs attribute ops to one
// "lane:<q>" slot per query (mpc/consensus_batch.h); those rows collapse
// into a single "lanes (N queries)" aggregate plus a per-query footer so a
// 100-query trace stays one screen.  --check also accepts "pc-bench-v1"
// records, "pc-lint-v1" analyzer reports (tools/lint), "pc-metrics-v1"
// snapshots and JSONL metrics dumps, returning nonzero if anything fails
// validation — CI gates the bench and lint artifacts on it.
//
// --diff compares the DETERMINISTIC cost surface of two bench records with
// the same bench name: per-op counts and payload bytes, which are seeded
// and machine-independent.  wall_ms is noise across hosts, so it only
// participates under --wall.  A regression is a count that grew beyond
// --tolerance percent (default 0: any growth fails), a nonzero op that
// appeared out of nowhere, or an op the reference counts that vanished
// (absent or 0: its work went uncounted, or the counter was renamed);
// a count that shrinks but stays nonzero is an improvement and passes.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/tcp_admin.h"
#include "obs/export.h"
#include "obs/json.h"

namespace {

using pcl::obs::JsonValue;

struct StepRow {
  std::string step;
  double wall_ms = 0.0;
  double first_ts = -1.0;  ///< earliest span start (µs); -1 = no span
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t paillier = 0;
  std::uint64_t dgk = 0;
  std::uint64_t modexp = 0;
};

std::uint64_t op_sum(const JsonValue& ops, const char* prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, count] : ops.as_object()) {
    if (name.rfind(prefix, 0) == 0 && count.is_number()) {
      total += static_cast<std::uint64_t>(count.as_number());
    }
  }
  return total;
}

int summarize(const std::string& path) {
  const JsonValue doc = JsonValue::parse(pcl::obs::read_text_file(path));
  const std::vector<std::string> problems =
      pcl::obs::validate_trace_json(doc);
  if (!problems.empty()) {
    std::fprintf(stderr, "%s: not a valid pc-trace-v1 file:\n", path.c_str());
    for (const std::string& p : problems) {
      std::fprintf(stderr, "  - %s\n", p.c_str());
    }
    return 1;
  }

  // Per-(step, party) span time from the timeline; a step's wall time is
  // the busiest party's total (parties overlap, so summing would lie).
  std::map<std::string, std::map<std::string, double>> span_us;
  std::map<std::string, double> first_ts;
  std::map<double, std::string> party_of_tid;
  const JsonValue::Array& events = doc.find("traceEvents")->as_array();
  for (const JsonValue& e : events) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    if (ph->as_string() == "M") {
      const JsonValue* args = e.find("args");
      const JsonValue* tid = e.find("tid");
      if (args != nullptr && tid != nullptr && tid->is_number()) {
        const JsonValue* name = args->find("name");
        if (name != nullptr && name->is_string()) {
          party_of_tid[tid->as_number()] = name->as_string();
        }
      }
    }
  }
  for (const JsonValue& e : events) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
    const std::string& name = e.find("name")->as_string();
    const double ts = e.find("ts")->as_number();
    const double dur = e.find("dur")->as_number();
    const JsonValue* tid = e.find("tid");
    std::string party = "?";
    if (tid != nullptr && tid->is_number()) {
      const auto it = party_of_tid.find(tid->as_number());
      if (it != party_of_tid.end()) party = it->second;
    }
    span_us[name][party] += dur;
    const auto it = first_ts.find(name);
    if (it == first_ts.end() || ts < it->second) first_ts[name] = ts;
  }

  std::vector<StepRow> rows;
  const JsonValue::Object& steps =
      doc.find("pc")->find("steps")->as_object();
  for (const auto& [step, info] : steps) {
    StepRow row;
    row.step = step;
    row.bytes = static_cast<std::uint64_t>(info.find("bytes")->as_number());
    row.messages =
        static_cast<std::uint64_t>(info.find("messages")->as_number());
    const JsonValue* ops = info.find("ops");
    if (ops != nullptr && ops->is_object()) {
      row.paillier = op_sum(*ops, "paillier.");
      row.dgk = op_sum(*ops, "dgk.");
      row.modexp = op_sum(*ops, "bigint.modexp");
    }
    const auto spans = span_us.find(step);
    if (spans != span_us.end()) {
      double busiest = 0.0;
      for (const auto& [party, us] : spans->second) {
        busiest = std::max(busiest, us);
      }
      row.wall_ms = busiest / 1000.0;
      row.first_ts = first_ts.at(step);
    }
    rows.push_back(std::move(row));
  }
  // Lane-batched runs produce one "lane:<q>" slot per query; collapse them
  // into a single aggregate row so big batches stay readable, and keep the
  // totals around for the ops-per-query footer.  Lane wall times are
  // summed: on a pool worker they overlap, so this is lane-CPU time, not
  // elapsed time (the enclosing step span carries the wall clock).
  StepRow lane_total;
  std::size_t lane_count = 0;
  {
    std::vector<StepRow> kept;
    for (StepRow& row : rows) {
      if (row.step.rfind("lane:", 0) != 0) {
        kept.push_back(std::move(row));
        continue;
      }
      ++lane_count;
      lane_total.wall_ms += row.wall_ms;
      if (row.first_ts >= 0 &&
          (lane_total.first_ts < 0 || row.first_ts < lane_total.first_ts)) {
        lane_total.first_ts = row.first_ts;
      }
      lane_total.bytes += row.bytes;
      lane_total.messages += row.messages;
      lane_total.paillier += row.paillier;
      lane_total.dgk += row.dgk;
      lane_total.modexp += row.modexp;
    }
    if (lane_count > 0) {
      lane_total.step =
          "lanes (" + std::to_string(lane_count) + " queries)";
      kept.push_back(lane_total);
    }
    rows = std::move(kept);
  }

  // Protocol order = order of first span; span-less steps trail, sorted.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const StepRow& a, const StepRow& b) {
                     if ((a.first_ts < 0) != (b.first_ts < 0)) {
                       return b.first_ts < 0;
                     }
                     if (a.first_ts < 0) return a.step < b.step;
                     return a.first_ts < b.first_ts;
                   });

  std::printf("%s\n", path.c_str());
  std::printf("%-26s %10s %12s %6s %10s %8s %10s\n", "phase", "wall ms",
              "bytes", "msgs", "paillier", "dgk", "modexp");
  StepRow total;
  for (const StepRow& row : rows) {
    std::printf("%-26s %10.2f %12llu %6llu %10llu %8llu %10llu\n",
                row.step.c_str(), row.wall_ms,
                static_cast<unsigned long long>(row.bytes),
                static_cast<unsigned long long>(row.messages),
                static_cast<unsigned long long>(row.paillier),
                static_cast<unsigned long long>(row.dgk),
                static_cast<unsigned long long>(row.modexp));
    total.wall_ms += row.wall_ms;
    total.bytes += row.bytes;
    total.messages += row.messages;
    total.paillier += row.paillier;
    total.dgk += row.dgk;
    total.modexp += row.modexp;
  }
  std::printf("%-26s %10.2f %12llu %6llu %10llu %8llu %10llu\n", "total",
              total.wall_ms, static_cast<unsigned long long>(total.bytes),
              static_cast<unsigned long long>(total.messages),
              static_cast<unsigned long long>(total.paillier),
              static_cast<unsigned long long>(total.dgk),
              static_cast<unsigned long long>(total.modexp));
  if (lane_count > 0) {
    const double n = static_cast<double>(lane_count);
    std::printf("%-26s %10.2f %12.1f %6.1f %10.1f %8.1f %10.1f\n",
                "per query", lane_total.wall_ms / n,
                static_cast<double>(lane_total.bytes) / n,
                static_cast<double>(lane_total.messages) / n,
                static_cast<double>(lane_total.paillier) / n,
                static_cast<double>(lane_total.dgk) / n,
                static_cast<double>(lane_total.modexp) / n);
  }
  return 0;
}

/// Validates one JSONL metrics line: {"step": s, "op": o, "count": n}.
std::vector<std::string> validate_metrics_line(const JsonValue& v) {
  std::vector<std::string> problems;
  const JsonValue* step = v.find("step");
  if (step == nullptr || !step->is_string()) {
    problems.emplace_back("missing or non-string \"step\"");
  }
  const JsonValue* op = v.find("op");
  if (op == nullptr || !op->is_string()) {
    problems.emplace_back("missing or non-string \"op\"");
  }
  const JsonValue* count = v.find("count");
  if (count == nullptr || !count->is_number() || count->as_number() < 0) {
    problems.emplace_back("missing or negative \"count\"");
  }
  return problems;
}

int check_one(const std::string& path) {
  const std::string text = pcl::obs::read_text_file(path);
  std::vector<std::string> problems;
  std::string kind;
  try {
    const JsonValue doc = JsonValue::parse(text);
    const JsonValue* schema = doc.find("schema");
    const JsonValue* pc = doc.find("pc");
    if (pc != nullptr || (schema != nullptr && schema->is_string() &&
                          schema->as_string() == pcl::obs::kTraceSchema)) {
      kind = pcl::obs::kTraceSchema;
      problems = pcl::obs::validate_trace_json(doc);
    } else if (schema != nullptr && schema->is_string() &&
               schema->as_string() == pcl::obs::kBenchSchema) {
      kind = pcl::obs::kBenchSchema;
      problems = pcl::obs::validate_bench_json(doc);
    } else if (schema != nullptr && schema->is_string() &&
               schema->as_string() == pcl::obs::kLintSchema) {
      kind = pcl::obs::kLintSchema;
      problems = pcl::obs::validate_lint_json(doc);
    } else if (schema != nullptr && schema->is_string() &&
               schema->as_string() == pcl::obs::kMetricsSchema) {
      kind = pcl::obs::kMetricsSchema;
      problems = pcl::obs::validate_metrics_json(doc);
    } else if (schema != nullptr && schema->is_string() &&
               schema->as_string() == pcl::obs::kSessionsSchema) {
      kind = pcl::obs::kSessionsSchema;
      problems = pcl::obs::validate_sessions_json(doc);
    } else {
      kind = "unknown";
      problems.emplace_back(
          "no recognizable schema (expected pc-trace-v1, pc-bench-v1, "
          "pc-lint-v1, pc-metrics-v1 or pc-sessions-v1)");
    }
  } catch (const std::invalid_argument&) {
    // Not a single JSON document: try JSONL (metrics dump).
    kind = "metrics-jsonl";
    std::size_t lineno = 0, seen = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t eol = text.find('\n', pos);
      const std::string line =
          text.substr(pos, eol == std::string::npos ? eol : eol - pos);
      pos = eol == std::string::npos ? text.size() : eol + 1;
      ++lineno;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      ++seen;
      try {
        for (const std::string& p :
             validate_metrics_line(JsonValue::parse(line))) {
          problems.push_back("line " + std::to_string(lineno) + ": " + p);
        }
      } catch (const std::invalid_argument& err) {
        problems.push_back("line " + std::to_string(lineno) + ": " +
                           err.what());
      }
    }
    if (seen == 0) problems.emplace_back("no JSONL records");
  }

  if (problems.empty()) {
    std::printf("%s: OK (%s)\n", path.c_str(), kind.c_str());
    return 0;
  }
  std::fprintf(stderr, "%s: INVALID (%s)\n", path.c_str(), kind.c_str());
  for (const std::string& p : problems) {
    std::fprintf(stderr, "  - %s\n", p.c_str());
  }
  return 1;
}

/// Merges per-process pc-trace-v1 files (tools/pc_party emits one per
/// party process) into a single timeline document, validating the result
/// before writing it.
int merge(const std::string& out_path,
          const std::vector<std::string>& in_paths) {
  std::vector<JsonValue> docs;
  docs.reserve(in_paths.size());
  for (const std::string& path : in_paths) {
    JsonValue doc;
    try {
      doc = JsonValue::parse(pcl::obs::read_text_file(path));
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "%s: not valid JSON: %s\n", path.c_str(),
                   err.what());
      return 1;
    }
    const std::vector<std::string> problems =
        pcl::obs::validate_trace_json(doc);
    if (!problems.empty()) {
      std::fprintf(stderr, "%s: not a valid pc-trace-v1 file:\n",
                   path.c_str());
      for (const std::string& p : problems) {
        std::fprintf(stderr, "  - %s\n", p.c_str());
      }
      return 1;
    }
    docs.push_back(std::move(doc));
  }
  const JsonValue merged = pcl::obs::merge_traces(docs);
  const std::vector<std::string> problems =
      pcl::obs::validate_trace_json(merged);
  if (!problems.empty()) {
    std::fprintf(stderr, "merged document failed validation:\n");
    for (const std::string& p : problems) {
      std::fprintf(stderr, "  - %s\n", p.c_str());
    }
    return 1;
  }
  pcl::obs::write_text_file(out_path, merged.dump(2) + "\n");
  std::printf("%s: merged %zu trace(s)\n", out_path.c_str(), docs.size());
  return 0;
}

/// Renders one pc-metrics-v1 document as a per-(step, phase) latency table.
void print_metrics(const JsonValue& doc) {
  const JsonValue* source = doc.find("source");
  std::printf("pc-metrics-v1%s%s\n",
              source != nullptr && source->is_string() ? " from " : "",
              source != nullptr && source->is_string()
                  ? source->as_string().c_str()
                  : "");
  std::printf("%-26s %-9s %8s %10s %10s %10s %10s\n", "step", "phase",
              "count", "p50 ms", "p90 ms", "p99 ms", "max ms");
  const auto ms = [](const JsonValue* v) {
    return v != nullptr && v->is_number() ? v->as_number() / 1e6 : 0.0;
  };
  std::size_t rows = 0;
  for (const auto& [step, info] : doc.find("steps")->as_object()) {
    const JsonValue* latency = info.find("latency");
    if (latency == nullptr || !latency->is_object()) continue;
    for (const auto& [phase, s] : latency->as_object()) {
      const JsonValue* count = s.find("count");
      std::printf("%-26s %-9s %8.0f %10.3f %10.3f %10.3f %10.3f\n",
                  step.c_str(), phase.c_str(),
                  count != nullptr && count->is_number() ? count->as_number()
                                                         : 0.0,
                  ms(s.find("p50_ns")), ms(s.find("p90_ns")),
                  ms(s.find("p99_ns")), ms(s.find("max_ns")));
      ++rows;
    }
  }
  if (rows == 0) std::printf("(no latency samples yet)\n");
}

/// Fetches a live snapshot from a pc_party admin endpoint, validates it,
/// renders it, and optionally saves the raw JSON.
int live(const std::string& endpoint_text, const std::string& out_path) {
  const pcl::TcpEndpoint endpoint =
      pcl::parse_admin_endpoint(endpoint_text);
  const std::string body = pcl::admin_request(endpoint, "metrics");
  const JsonValue doc = JsonValue::parse(body);
  const std::vector<std::string> problems =
      pcl::obs::validate_metrics_json(doc);
  if (!problems.empty()) {
    std::fprintf(stderr, "%s: served an invalid pc-metrics-v1 snapshot:\n",
                 endpoint_text.c_str());
    for (const std::string& p : problems) {
      std::fprintf(stderr, "  - %s\n", p.c_str());
    }
    return 1;
  }
  if (!out_path.empty()) pcl::obs::write_text_file(out_path, body);
  print_metrics(doc);
  return 0;
}

/// Renders one pc-sessions-v1 document as the daemon's session table.
void print_sessions(const JsonValue& doc) {
  const JsonValue* source = doc.find("source");
  const JsonValue* active = doc.find("active");
  std::printf("pc-sessions-v1%s%s (%.0f active)\n",
              source != nullptr && source->is_string() ? " from " : "",
              source != nullptr && source->is_string()
                  ? source->as_string().c_str()
                  : "",
              active != nullptr && active->is_number() ? active->as_number()
                                                       : 0.0);
  std::printf("%6s  %-8s %6s %12s  %s\n", "id", "state", "label",
              "elapsed ms", "status");
  std::size_t rows = 0;
  for (const JsonValue& row : doc.find("sessions")->as_array()) {
    const JsonValue* label = row.find("label");
    const std::string label_text =
        label != nullptr && label->is_number()
            ? std::to_string(static_cast<int>(label->as_number()))
            : "bot";
    std::printf("%6.0f  %-8s %6s %12.0f  %s\n",
                row.find("id")->as_number(),
                row.find("state")->as_string().c_str(), label_text.c_str(),
                row.find("elapsed_ms")->as_number(),
                row.find("status")->as_string().c_str());
    ++rows;
  }
  if (rows == 0) std::printf("(no sessions yet)\n");
}

/// Fetches the live session table from a serving pc_party daemon
/// (net/session/), validates it, renders it, and optionally saves the raw
/// JSON.  Only multi-session daemons answer "sessions"; a plain --all
/// daemon serves metrics only.
int live_sessions(const std::string& endpoint_text,
                  const std::string& out_path) {
  const pcl::TcpEndpoint endpoint = pcl::parse_admin_endpoint(endpoint_text);
  const std::string body = pcl::admin_request(endpoint, "sessions");
  const JsonValue doc = JsonValue::parse(body);
  const std::vector<std::string> problems =
      pcl::obs::validate_sessions_json(doc);
  if (!problems.empty()) {
    std::fprintf(stderr, "%s: served an invalid pc-sessions-v1 snapshot:\n",
                 endpoint_text.c_str());
    for (const std::string& p : problems) {
      std::fprintf(stderr, "  - %s\n", p.c_str());
    }
    return 1;
  }
  if (!out_path.empty()) pcl::obs::write_text_file(out_path, body);
  print_sessions(doc);
  return 0;
}

int quit_daemon(const std::string& endpoint_text) {
  (void)pcl::admin_request(pcl::parse_admin_endpoint(endpoint_text), "quit");
  std::printf("%s: quit acknowledged\n", endpoint_text.c_str());
  return 0;
}

/// Loads + validates one pc-bench-v1 record for --diff.
JsonValue load_bench(const std::string& path) {
  const JsonValue doc = JsonValue::parse(pcl::obs::read_text_file(path));
  const std::vector<std::string> problems =
      pcl::obs::validate_bench_json(doc);
  if (!problems.empty()) {
    std::string what = path + ": not a valid pc-bench-v1 record:";
    for (const std::string& p : problems) what += "\n  - " + p;
    throw std::runtime_error(what);
  }
  return doc;
}

std::map<std::string, double> bench_ops(const JsonValue& doc) {
  std::map<std::string, double> out;
  for (const auto& [name, count] : doc.find("ops")->as_object()) {
    if (count.is_number()) out[name] = count.as_number();
  }
  return out;
}

/// Compares the deterministic cost surface of two same-named bench records
/// (see the file comment).  Returns the number of regressions.
int diff_benches(const std::string& old_path, const std::string& new_path,
                 double tolerance_pct, bool compare_wall) {
  const JsonValue old_doc = load_bench(old_path);
  const JsonValue new_doc = load_bench(new_path);
  const std::string& old_bench = old_doc.find("bench")->as_string();
  const std::string& new_bench = new_doc.find("bench")->as_string();
  if (old_bench != new_bench) {
    std::fprintf(stderr,
                 "diff: bench names differ (\"%s\" vs \"%s\"); refusing to "
                 "compare unrelated records\n",
                 old_bench.c_str(), new_bench.c_str());
    return 1;
  }
  const double allowance = 1.0 + tolerance_pct / 100.0;
  int regressions = 0;
  const auto compare = [&](const std::string& what, double old_value,
                           double new_value) {
    if (new_value > old_value * allowance) {
      const double pct =
          old_value > 0 ? (new_value / old_value - 1.0) * 100.0
                        : std::numeric_limits<double>::infinity();
      std::fprintf(stderr, "REGRESSION %-28s %14.0f -> %14.0f (+%.2f%%)\n",
                   what.c_str(), old_value, new_value, pct);
      ++regressions;
    } else if (new_value < old_value) {
      std::printf("improved   %-28s %14.0f -> %14.0f\n", what.c_str(),
                  old_value, new_value);
    }
  };
  compare("bytes", old_doc.find("bytes")->as_number(),
          new_doc.find("bytes")->as_number());
  if (compare_wall) {
    compare("wall_ms", old_doc.find("wall_ms")->as_number(),
            new_doc.find("wall_ms")->as_number());
  }
  const std::map<std::string, double> old_ops = bench_ops(old_doc);
  const std::map<std::string, double> new_ops = bench_ops(new_doc);
  for (const auto& [op, old_value] : old_ops) {
    const auto it = new_ops.find(op);
    const double new_value = it != new_ops.end() ? it->second : 0.0;
    if (old_value > 0 && new_value == 0) {
      std::fprintf(stderr, "REGRESSION %-28s %14.0f -> %14s (vanished)\n",
                   ("ops." + op).c_str(), old_value,
                   it != new_ops.end() ? "0" : "absent");
      ++regressions;
      continue;
    }
    compare("ops." + op, old_value, new_value);
  }
  for (const auto& [op, new_value] : new_ops) {
    if (old_ops.contains(op) || new_value == 0) continue;
    std::fprintf(stderr, "REGRESSION %-28s %14s -> %14.0f (new op)\n",
                 ("ops." + op).c_str(), "absent", new_value);
    ++regressions;
  }
  if (regressions == 0) {
    std::printf("diff OK: \"%s\" within %.2f%% of %s\n", new_bench.c_str(),
                tolerance_pct, old_path.c_str());
    return 0;
  }
  std::fprintf(stderr, "diff: %d regression(s) beyond %.2f%% tolerance\n",
               regressions, tolerance_pct);
  return 1;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <trace.json>            summarize a trace\n"
      "       %s --check <file>...       validate trace/bench/"
      "lint/metrics files\n"
      "       %s --merge <out> <in>...   merge per-process traces\n"
      "       %s --live <host:port> [--sessions] [--out FILE]\n"
      "                                  fetch a live pc-metrics-v1 snapshot\n"
      "                                  (--sessions: the pc-sessions-v1\n"
      "                                  session table of a serving daemon)\n"
      "       %s --quit <host:port>      stop a lingering daemon\n"
      "       %s --diff <old> <new> [--tolerance PCT] [--wall]\n"
      "                                  compare pc-bench-v1 cost records\n",
      argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "--check") == 0) {
      if (argc < 3) return usage(argv[0]);
      int failures = 0;
      for (int i = 2; i < argc; ++i) failures += check_one(argv[i]);
      return failures == 0 ? 0 : 1;
    }
    if (argc >= 2 && std::strcmp(argv[1], "--merge") == 0) {
      if (argc < 4) return usage(argv[0]);
      return merge(argv[2],
                   std::vector<std::string>(argv + 3, argv + argc));
    }
    if (argc >= 2 && std::strcmp(argv[1], "--live") == 0) {
      if (argc < 3) return usage(argv[0]);
      bool sessions = false;
      std::string out_path;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sessions") == 0) {
          sessions = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else {
          return usage(argv[0]);
        }
      }
      return sessions ? live_sessions(argv[2], out_path)
                      : live(argv[2], out_path);
    }
    if (argc >= 2 && std::strcmp(argv[1], "--quit") == 0) {
      if (argc != 3) return usage(argv[0]);
      return quit_daemon(argv[2]);
    }
    if (argc >= 2 && std::strcmp(argv[1], "--diff") == 0) {
      if (argc < 4) return usage(argv[0]);
      double tolerance = 0.0;
      bool wall = false;
      for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
          tolerance = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--wall") == 0) {
          wall = true;
        } else {
          return usage(argv[0]);
        }
      }
      if (tolerance < 0) return usage(argv[0]);
      return diff_benches(argv[2], argv[3], tolerance, wall);
    }
    if (argc != 2) return usage(argv[0]);
    return summarize(argv[1]);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pc_trace: %s\n", err.what());
    return 1;
  }
}
