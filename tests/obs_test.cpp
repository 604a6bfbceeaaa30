// Unit tests for the observability layer: the span tracer and thread-local
// observer binding, the per-step op counters, the JSON value type, and the
// trace/bench exporters with their validators.  The property the rest of
// the suite leans on — instrumentation never perturbs protocol traffic —
// is asserted end-to-end in consensus_threaded_test.cpp; here we pin the
// obs layer's own contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "obs/clock.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pcl::obs {
namespace {

TEST(Clock, MonotonicAndNonzero) {
  const std::uint64_t a = monotonic_time_ns();
  const std::uint64_t b = monotonic_time_ns();
  EXPECT_GT(a, 0u);
  EXPECT_GE(b, a);
}

TEST(Metrics, CountsPerStepAndTotals) {
  MetricsRegistry reg;
  reg.counters_for("step A").add(Op::kPaillierEncrypt, 3);
  reg.counters_for("step A").add(Op::kPaillierEncrypt, 2);
  reg.counters_for("step B").add(Op::kPaillierEncrypt, 1);
  reg.counters_for("step B").add(Op::kDgkEncrypt, 7);

  EXPECT_EQ(reg.counters_for("step A").get(Op::kPaillierEncrypt), 5u);
  EXPECT_EQ(reg.total(Op::kPaillierEncrypt), 6u);
  EXPECT_EQ(reg.total(Op::kDgkEncrypt), 7u);
  EXPECT_EQ(reg.total(Op::kBigIntModExp), 0u);
}

TEST(Metrics, EntriesAreNonZeroAndDeterministicallyOrdered) {
  MetricsRegistry reg;
  reg.counters_for("z").add(Op::kDgkEncrypt, 1);
  reg.counters_for("a").add(Op::kPaillierDecrypt, 2);
  reg.counters_for("a").add(Op::kBigIntModExp, 4);
  (void)reg.counters_for("untouched");  // zero — must not appear

  const std::vector<MetricsRegistry::Entry> entries = reg.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].step, "a");
  EXPECT_EQ(entries[0].op, Op::kBigIntModExp);
  EXPECT_EQ(entries[0].count, 4u);
  EXPECT_EQ(entries[1].step, "a");
  EXPECT_EQ(entries[1].op, Op::kPaillierDecrypt);
  EXPECT_EQ(entries[2].step, "z");
}

TEST(Metrics, ClearZeroesButKeepsHandedOutPointersValid) {
  MetricsRegistry reg;
  StepCounters& slot = reg.counters_for("s");
  slot.add(Op::kBigIntModMul, 10);
  reg.clear();
  EXPECT_EQ(slot.get(Op::kBigIntModMul), 0u);
  EXPECT_TRUE(reg.entries().empty());
  slot.add(Op::kBigIntModMul, 1);  // same block keeps working
  EXPECT_EQ(reg.total(Op::kBigIntModMul), 1u);
}

TEST(Metrics, OpNamesAreStableSchemaKeys) {
  EXPECT_STREQ(op_name(Op::kBigIntModExp), "bigint.modexp");
  EXPECT_STREQ(op_name(Op::kPaillierEncrypt), "paillier.encrypt");
  EXPECT_STREQ(op_name(Op::kDgkCompareBit), "dgk.compare_bit");
  EXPECT_STREQ(op_name(Op::kNoisyMaxRelease), "noisy_max.release");
  // Every op has a distinct non-empty name (schema keys must not collide).
  std::set<std::string> names;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const char* name = op_name(static_cast<Op>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

TEST(Tracer, CountIsANoOpWithoutAnObserver) {
  // No ObserverScope installed: must not crash, must not record anywhere.
  count(Op::kPaillierEncrypt, 1000);
  MetricsRegistry reg;
  {
    const ObserverScope scope(nullptr, &reg, "p");
    count(Op::kPaillierEncrypt);
  }
  count(Op::kPaillierEncrypt, 1000);  // after the scope: unobserved again
  EXPECT_EQ(reg.total(Op::kPaillierEncrypt), 1u);
}

TEST(Tracer, SpanIsANoOpWithoutAnObserver) {
  // No sink, no metrics: spans must be constructible anywhere for free.
  const Span outer("outer");
  const Span inner("inner");
  SUCCEED();
}

TEST(Tracer, SpansRecordNestingDepthAndParty) {
  TraceSink sink;
  {
    const ObserverScope scope(&sink, nullptr, "S1");
    const Span outer("outer");
    {
      const Span inner("inner");
    }
  }
  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[0].party, "S1");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  // The outer span envelopes the inner one.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
}

TEST(Tracer, CountsLandInTheInnermostOpenSpan) {
  MetricsRegistry reg;
  const ObserverScope scope(nullptr, &reg, "S1");
  count(Op::kBigIntModExp);  // before any span: unattributed
  {
    const Span outer("Secure Sum (2)");
    count(Op::kPaillierEncrypt);
    {
      const Span inner("Secure Comparison (4)");
      count(Op::kDgkEncrypt, 2);
    }
    count(Op::kPaillierEncrypt);  // attribution restored on span close
  }
  EXPECT_EQ(reg.counters_for(kUnattributedStep).get(Op::kBigIntModExp), 1u);
  EXPECT_EQ(reg.counters_for("Secure Sum (2)").get(Op::kPaillierEncrypt), 2u);
  EXPECT_EQ(reg.counters_for("Secure Comparison (4)").get(Op::kDgkEncrypt),
            2u);
  EXPECT_EQ(reg.counters_for("Secure Comparison (4)")
                .get(Op::kPaillierEncrypt),
            0u);
}

TEST(Tracer, MetricsOnlyScopeRecordsNoEvents) {
  MetricsRegistry reg;
  const ObserverScope scope(nullptr, &reg, "S1");
  {
    const Span span("step");
    count(Op::kDgkZeroTest);
  }
  EXPECT_EQ(reg.counters_for("step").get(Op::kDgkZeroTest), 1u);
}

TEST(Tracer, ObserverScopesNestAndRestore) {
  TraceSink outer_sink, inner_sink;
  {
    const ObserverScope outer(&outer_sink, nullptr, "outer");
    {
      const ObserverScope inner(&inner_sink, nullptr, "inner");
      const Span span("from inner");
    }
    const Span span("from outer");
  }
  ASSERT_EQ(inner_sink.size(), 1u);
  EXPECT_EQ(inner_sink.events()[0].party, "inner");
  ASSERT_EQ(outer_sink.size(), 1u);
  EXPECT_EQ(outer_sink.events()[0].party, "outer");
}

TEST(Tracer, ConcurrentThreadsShareOneSinkAndRegistry) {
  // The threaded transport's usage pattern: N party threads, one sink, one
  // registry.  Under the tsan preset this is the obs-layer race check.
  TraceSink sink;
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, &reg, t] {
      std::string party = "P";
      party += std::to_string(t);
      const ObserverScope scope(&sink, &reg, party);
      for (int i = 0; i < kIters; ++i) {
        const Span span("shared step");
        count(Op::kBigIntModMul);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sink.size(), static_cast<std::size_t>(kThreads * kIters));
  EXPECT_EQ(reg.counters_for("shared step").get(Op::kBigIntModMul),
            static_cast<std::uint64_t>(kThreads * kIters));
}

TEST(Tracer, SpanSecondsSumsOnePartysSpansOfOneName) {
  // The step clock: a party's spans of one step add up, other parties' and
  // other names' spans do not count, and a step never opened reads 0.
  const std::vector<TraceEvent> events = {
      {"step A", "S1", 0, 10'000'000, 0},
      {"step A", "S1", 20'000'000, 5'000'000, 0},
      {"step B", "S1", 30'000'000, 1'000'000, 0},
      {"step A", "S2", 0, 7'000'000, 0},
  };
  EXPECT_NEAR(span_seconds(events, "S1", "step A"), 0.015, 1e-12);
  EXPECT_NEAR(span_seconds(events, "S1", "step B"), 0.001, 1e-12);
  EXPECT_NEAR(span_seconds(events, "S2", "step A"), 0.007, 1e-12);
  EXPECT_EQ(span_seconds(events, "S1", "missing"), 0.0);
  EXPECT_EQ(span_seconds({}, "S1", "step A"), 0.0);
}

TEST(Json, DumpParsesBackIdentically) {
  JsonValue::Object obj;
  obj["int"] = JsonValue(42);
  obj["neg"] = JsonValue(-17);
  obj["frac"] = JsonValue(2.5);
  obj["str"] = "with \"quotes\" and \\slashes\\ and \n control";
  obj["flag"] = JsonValue(true);
  obj["nothing"] = JsonValue();
  obj["arr"] = JsonValue(JsonValue::Array{JsonValue(1), JsonValue("two")});
  const JsonValue v(std::move(obj));

  for (const int indent : {0, 2}) {
    const JsonValue back = JsonValue::parse(v.dump(indent));
    EXPECT_EQ(back.find("int")->as_number(), 42);
    EXPECT_EQ(back.find("neg")->as_number(), -17);
    EXPECT_EQ(back.find("frac")->as_number(), 2.5);
    EXPECT_EQ(back.find("str")->as_string(),
              "with \"quotes\" and \\slashes\\ and \n control");
    EXPECT_TRUE(back.find("flag")->as_bool());
    EXPECT_TRUE(back.find("nothing")->is_null());
    ASSERT_EQ(back.find("arr")->as_array().size(), 2u);
    EXPECT_EQ(back.find("arr")->as_array()[1].as_string(), "two");
  }
}

TEST(Json, IntegralNumbersPrintWithoutDecimalPoint) {
  EXPECT_EQ(JsonValue(std::uint64_t{123456789}).dump(), "123456789");
  EXPECT_EQ(JsonValue(0).dump(), "0");
  EXPECT_EQ(JsonValue(2.5).dump().find("2.5"), 0u);
}

TEST(Json, ParseRejectsMalformedInputWithOffset) {
  EXPECT_THROW((void)JsonValue::parse(""), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("{\"a\":1} trailing"),
               std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("nul"), std::invalid_argument);
  try {
    (void)JsonValue::parse("[1, x]");
    FAIL() << "must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("4"), std::string::npos) << e.what();
  }
}

TEST(Json, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(JsonValue(1).find("x"), nullptr);
  EXPECT_EQ(JsonValue(JsonValue::Object{}).find("x"), nullptr);
  EXPECT_THROW((void)JsonValue(1).as_string(), std::logic_error);
}

TEST(Export, TraceJsonValidatesAndCarriesTrafficAndOps) {
  TraceSink sink;
  MetricsRegistry reg;
  {
    const ObserverScope scope(&sink, &reg, "S1");
    const Span span("Secure Sum (2)");
    count(Op::kPaillierEncrypt, 5);
  }
  {
    const ObserverScope scope(&sink, &reg, "S2");
    const Span span("Secure Sum (2)");
  }
  TrafficByStep traffic;
  traffic["Secure Sum (2)"] = {680, 10};
  traffic["compute-only is fine"] = {0, 0};

  const JsonValue doc = build_trace_json(sink, traffic, &reg);
  EXPECT_TRUE(validate_trace_json(doc).empty());

  // Two parties -> two metadata events + two X events.
  EXPECT_EQ(doc.find("traceEvents")->as_array().size(), 4u);
  const JsonValue* step = doc.find("pc")->find("steps")->find("Secure Sum (2)");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->find("bytes")->as_number(), 680);
  EXPECT_EQ(step->find("messages")->as_number(), 10);
  EXPECT_EQ(step->find("ops")->find("paillier.encrypt")->as_number(), 5);
  const JsonValue* totals = doc.find("pc")->find("totals");
  EXPECT_EQ(totals->find("bytes")->as_number(), 680);
  EXPECT_EQ(totals->find("spans")->as_number(), 2);
  // ts is rebased to the earliest span.
  double min_ts = 1e18;
  for (const JsonValue& e : doc.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() == "X") {
      min_ts = std::min(min_ts, e.find("ts")->as_number());
    }
  }
  EXPECT_EQ(min_ts, 0.0);
}

TEST(Export, TraceJsonWithNoEventsStillValidates) {
  TraceSink sink;
  const JsonValue doc = build_trace_json(sink, {}, nullptr);
  EXPECT_TRUE(validate_trace_json(doc).empty());
}

TEST(Export, ValidatorRejectsBrokenTrace) {
  const JsonValue not_object = JsonValue(3);
  EXPECT_FALSE(validate_trace_json(not_object).empty());
  const JsonValue wrong_schema = JsonValue::parse(
      R"({"traceEvents": [], "pc": {"schema": "pc-trace-v0",)"
      R"( "steps": {}, "totals": {}}})");
  EXPECT_FALSE(validate_trace_json(wrong_schema).empty());
  const JsonValue bad_event = JsonValue::parse(
      R"({"traceEvents": [{"ph": "X", "name": "s", "ts": -1, "dur": 0}],)"
      R"( "pc": {"schema": "pc-trace-v1", "steps": {}, "totals": {}}})");
  EXPECT_FALSE(validate_trace_json(bad_event).empty());
}

TEST(Export, BenchJsonValidatesAndRoundTrips) {
  const JsonValue doc = build_bench_json(
      "bench_x", {{"classes", 4.0}}, 12.5, 9999, {{"paillier.encrypt", 3}});
  EXPECT_TRUE(validate_bench_json(doc).empty());
  const JsonValue back = JsonValue::parse(doc.dump(2));
  EXPECT_EQ(back.find("bench")->as_string(), "bench_x");
  EXPECT_EQ(back.find("bytes")->as_number(), 9999);
  EXPECT_EQ(back.find("ops")->find("paillier.encrypt")->as_number(), 3);

  const JsonValue missing = JsonValue::parse(R"({"schema": "pc-bench-v1"})");
  EXPECT_FALSE(validate_bench_json(missing).empty());
}

TEST(Export, LintJsonValidatorAcceptsReportsAndChecksCounts) {
  const JsonValue good = JsonValue::parse(
      R"({"schema": "pc-lint-v1", "files_scanned": 2, "findings": [)"
      R"({"rule": "PC008", "file": "src/crypto/x.cc", "line": 7,)"
      R"( "suppressed": true, "message": "secret branch"}],)"
      R"( "counts": {"total": 1, "suppressed": 1, "unsuppressed": 0}})");
  EXPECT_TRUE(validate_lint_json(good).empty());

  // Counts must agree with the findings array.
  const JsonValue bad_counts = JsonValue::parse(
      R"({"schema": "pc-lint-v1", "files_scanned": 2, "findings": [],)"
      R"( "counts": {"total": 3, "suppressed": 0, "unsuppressed": 3}})");
  EXPECT_FALSE(validate_lint_json(bad_counts).empty());

  const JsonValue bad_rule = JsonValue::parse(
      R"({"schema": "pc-lint-v1", "files_scanned": 1, "findings": [)"
      R"({"rule": "X9", "file": "f", "line": 1, "suppressed": false,)"
      R"( "message": "m"}],)"
      R"( "counts": {"total": 1, "suppressed": 0, "unsuppressed": 1}})");
  EXPECT_FALSE(validate_lint_json(bad_rule).empty());

  const JsonValue missing = JsonValue::parse(R"({"schema": "pc-lint-v1"})");
  EXPECT_FALSE(validate_lint_json(missing).empty());
}

TEST(Export, ProcessTagCarriesNamePidAndEpoch) {
  TraceSink sink;
  {
    const ObserverScope scope(&sink, nullptr, "S1");
    const Span span("Secure Sum (2)");
  }
  const TraceProcess process{"S1", 3};
  const JsonValue doc = build_trace_json(sink, {}, nullptr, &process);
  EXPECT_TRUE(validate_trace_json(doc).empty());
  const JsonValue* tag = doc.find("pc")->find("process");
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(tag->find("name")->as_string(), "S1");
  EXPECT_EQ(tag->find("pid")->as_number(), 3);
  EXPECT_GT(tag->find("epoch_us")->as_number(), 0.0);
  // Every event is attributed to the tagged pid.
  for (const JsonValue& e : doc.find("traceEvents")->as_array()) {
    EXPECT_EQ(e.find("pid")->as_number(), 3);
  }
}

TEST(Export, MergeTracesRealignsAndSumsPerProcessFiles) {
  // Two "processes" recorded against the same monotonic clock; the later
  // one's file is rebased to its own start, so only the pc.process epoch
  // can realign them.
  TraceSink sink_a;
  {
    const ObserverScope scope(&sink_a, nullptr, "S1");
    const Span span("Secure Sum (2)");
  }
  TrafficByStep traffic_a;
  traffic_a["Secure Sum (2)"] = {100, 2};
  const TraceProcess pa{"S1", 1};
  const JsonValue doc_a = build_trace_json(sink_a, traffic_a, nullptr, &pa);

  TraceSink sink_b;
  {
    const ObserverScope scope(&sink_b, nullptr, "S2");
    const Span span("Secure Sum (2)");
    const Span inner("Blind-and-Permute (3)");
  }
  TrafficByStep traffic_b;
  traffic_b["Secure Sum (2)"] = {40, 1};
  traffic_b["Blind-and-Permute (3)"] = {7, 1};
  const TraceProcess pb{"S2", 2};
  const JsonValue doc_b = build_trace_json(sink_b, traffic_b, nullptr, &pb);

  const JsonValue merged = merge_traces({doc_a, doc_b});
  EXPECT_TRUE(validate_trace_json(merged).empty());

  // Per-step traffic sums across processes.
  const JsonValue* steps = merged.find("pc")->find("steps");
  EXPECT_EQ(steps->find("Secure Sum (2)")->find("bytes")->as_number(), 140);
  EXPECT_EQ(steps->find("Secure Sum (2)")->find("messages")->as_number(), 3);
  EXPECT_EQ(steps->find("Blind-and-Permute (3)")->find("bytes")->as_number(),
            7);
  // The process roster survives the merge.
  const JsonValue* processes = merged.find("pc")->find("processes");
  ASSERT_NE(processes, nullptr);
  ASSERT_EQ(processes->as_array().size(), 2u);
  EXPECT_EQ(processes->as_array()[0].find("name")->as_string(), "S1");
  EXPECT_EQ(processes->as_array()[1].find("name")->as_string(), "S2");
  // Events from different source files keep distinct pids, and process_name
  // metadata names each track.
  std::size_t name_metas = 0;
  for (const JsonValue& e : merged.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() == "M" &&
        e.find("name")->as_string() == "process_name") {
      ++name_metas;
    }
  }
  EXPECT_EQ(name_metas, 2u);
}

TEST(Export, MergeTracesRejectsEmptyAndMalformedInput) {
  EXPECT_THROW((void)merge_traces({}), std::invalid_argument);
  const JsonValue no_events = JsonValue::parse(R"({"pc": {}})");
  EXPECT_THROW((void)merge_traces({no_events}), std::invalid_argument);
}

TEST(Export, MetricsJsonlHasOneValidObjectPerCounter) {
  MetricsRegistry reg;
  reg.counters_for("Secure Sum (2)").add(Op::kPaillierEncrypt, 4);
  reg.counters_for("Restoration (9)").add(Op::kRestorationReveal, 1);
  const std::string jsonl = metrics_to_jsonl(reg);

  std::size_t lines = 0, pos = 0;
  while (pos < jsonl.size()) {
    const std::size_t eol = jsonl.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // every record newline-terminated
    const JsonValue line = JsonValue::parse(jsonl.substr(pos, eol - pos));
    EXPECT_TRUE(line.find("step")->is_string());
    EXPECT_TRUE(line.find("op")->is_string());
    EXPECT_GT(line.find("count")->as_number(), 0);
    pos = eol + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(Export, MetricsJsonValidatesAndCarriesLatencyPerPhase) {
  MetricsRegistry reg;
  reg.counters_for("Secure Sum (2)").add(Op::kPaillierEncrypt, 4);
  for (std::uint64_t v = 1; v <= 100; ++v) {
    reg.latency_for("Secure Sum (2)", Phase::kOnline).record(v * 1000);
  }
  reg.latency_for("pool_refill", Phase::kOffline).record(777);

  const JsonValue doc = build_metrics_json(reg, "S1");
  EXPECT_TRUE(validate_metrics_json(doc).empty());
  EXPECT_EQ(doc.find("schema")->as_string(), "pc-metrics-v1");
  EXPECT_EQ(doc.find("source")->as_string(), "S1");

  const JsonValue* step = doc.find("steps")->find("Secure Sum (2)");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->find("ops")->find("paillier.encrypt")->as_number(), 4);
  const JsonValue* online = step->find("latency")->find("online");
  ASSERT_NE(online, nullptr);
  EXPECT_EQ(online->find("count")->as_number(), 100);
  // Bucket floors of the 50th and 99th samples (50'000 and 99'000 ns) at
  // 3 significant bits.
  EXPECT_EQ(online->find("p50_ns")->as_number(), 49152);
  EXPECT_EQ(online->find("p99_ns")->as_number(), 98304);
  EXPECT_EQ(online->find("max_ns")->as_number(), 100000);

  const JsonValue* offline =
      doc.find("steps")->find("pool_refill")->find("latency")->find("offline");
  ASSERT_NE(offline, nullptr);
  EXPECT_EQ(offline->find("count")->as_number(), 1);

  EXPECT_EQ(doc.find("totals")->find("latency_samples")->as_number(), 101);
}

TEST(Export, MetricsValidatorRejectsBrokenDocs) {
  MetricsRegistry reg;
  reg.latency_for("s", Phase::kOnline).record(5);
  const std::string good = build_metrics_json(reg).dump();

  JsonValue bad_schema = JsonValue::parse(good);
  bad_schema.as_object()["schema"] = JsonValue("pc-metrics-v0");
  EXPECT_FALSE(validate_metrics_json(bad_schema).empty());

  JsonValue bad_phase = JsonValue::parse(good);
  auto& latency = bad_phase.as_object()["steps"]
                      .as_object()["s"]
                      .as_object()["latency"]
                      .as_object();
  latency["lunch-break"] = latency["online"];
  EXPECT_FALSE(validate_metrics_json(bad_phase).empty());

  JsonValue missing_field = JsonValue::parse(good);
  missing_field.as_object()["steps"]
      .as_object()["s"]
      .as_object()["latency"]
      .as_object()["online"]
      .as_object()
      .erase("p99_ns");
  EXPECT_FALSE(validate_metrics_json(missing_field).empty());

  JsonValue no_totals = JsonValue::parse(good);
  no_totals.as_object().erase("totals");
  EXPECT_FALSE(validate_metrics_json(no_totals).empty());
}

TEST(Export, BenchValidatorAcceptsAndChecksHostMetadata) {
  const JsonValue base =
      build_bench_json("b", {{"users", 5.0}}, 1.5, 0, {{"op", 1}});
  EXPECT_TRUE(validate_bench_json(base).empty());  // host stays optional

  JsonValue with_host = base;
  JsonValue::Object host;
  host["cpus"] = JsonValue(8.0);
  host["preset"] = JsonValue("release");
  host["git_rev"] = JsonValue("abc123");
  with_host.as_object()["host"] = JsonValue(host);
  EXPECT_TRUE(validate_bench_json(with_host).empty());

  JsonValue bad_cpus = with_host;
  bad_cpus.as_object()["host"].as_object()["cpus"] = JsonValue(0.0);
  EXPECT_FALSE(validate_bench_json(bad_cpus).empty());

  JsonValue bad_preset = with_host;
  bad_preset.as_object()["host"].as_object()["preset"] = JsonValue(3.0);
  EXPECT_FALSE(validate_bench_json(bad_preset).empty());
}

TEST(Flight, DisabledRecorderIsInertAndDrainsEmpty) {
  FlightRecorder::disable();
  FlightRecorder::clear();
  FlightRecorder::record("ignored", "p", 1, 2, 0);
  EXPECT_TRUE(FlightRecorder::drain().empty());
}

TEST(Flight, KeepsOnlyTheLastCapacityEventsPerThread) {
  FlightRecorder::disable();
  FlightRecorder::clear();
  FlightRecorder::enable(8);
  // A fresh thread gets the small capacity; overflow evicts oldest-first.
  std::thread([] {
    for (int i = 0; i < 20; ++i) {
      FlightRecorder::record(("ev" + std::to_string(i)).c_str(), "party",
                             static_cast<std::uint64_t>(100 + i), 1, 0);
    }
  }).join();
  const std::vector<TraceEvent> events = FlightRecorder::drain();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().name, "ev12");  // 20 - 8
  EXPECT_EQ(events.back().name, "ev19");
  EXPECT_EQ(events.front().party, "party");
  FlightRecorder::disable();
  FlightRecorder::clear();
}

TEST(Flight, SpanFeedsTheRecorderEvenWithoutAnObserver) {
  FlightRecorder::disable();
  FlightRecorder::clear();
  FlightRecorder::enable();
  {
    const Span span("flight.only_span");
  }
  FlightRecorder::note("flight.marker");
  const std::vector<TraceEvent> events = FlightRecorder::drain();
  FlightRecorder::disable();
  FlightRecorder::clear();

  bool saw_span = false, saw_marker = false;
  for (const TraceEvent& e : events) {
    if (e.name == "flight.only_span") saw_span = true;
    if (e.name == "flight.marker") {
      saw_marker = true;
      EXPECT_EQ(e.duration_ns, 0u);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_marker);
}

TEST(Flight, DrainedEventsBuildAValidTraceDocument) {
  FlightRecorder::disable();
  FlightRecorder::clear();
  FlightRecorder::enable();
  {
    const Span span("flight.step");
  }
  const std::vector<TraceEvent> events = FlightRecorder::drain();
  FlightRecorder::disable();
  FlightRecorder::clear();
  ASSERT_FALSE(events.empty());

  const TraceProcess process{"S1", 41};
  const JsonValue doc = build_trace_json(events, {}, nullptr, &process);
  EXPECT_TRUE(validate_trace_json(doc).empty());
  // Two flight dumps merge like ordinary per-process trace files.
  const JsonValue merged = merge_traces({doc, doc});
  EXPECT_TRUE(validate_trace_json(merged).empty());
}

TEST(Metrics, ConcurrentMultiSessionWritersProduceMergeableArtifacts) {
  // Models pc_party's async serving: several sessions share one registry
  // (counters + histograms) while each writes its own trace sink, with the
  // flight recorder running and an admin-style reader snapshotting
  // mid-flight.  Run under TSan this pins the data-race freedom of the
  // whole telemetry path; functionally the per-session artifacts must merge
  // to the exact totals.
  FlightRecorder::disable();
  FlightRecorder::clear();
  FlightRecorder::enable();
  MetricsRegistry reg;
  constexpr int kSessions = 6;
  constexpr int kOpsPerSession = 200;
  std::vector<TraceSink> sinks(kSessions);
  std::vector<std::thread> sessions;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const JsonValue doc = build_metrics_json(reg, "reader");
      EXPECT_TRUE(validate_metrics_json(doc).empty());
    }
  });
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      const ObserverScope scope(&sinks[static_cast<std::size_t>(s)], &reg,
                                "session:" + std::to_string(s),
                                Phase::kOnline);
      for (int i = 0; i < kOpsPerSession; ++i) {
        // The span itself feeds latency_for("shared.step", kOnline) with
        // wall-clock durations; the hand-recorded "manual.step" histogram
        // gets deterministic values the final assertions can pin.
        const Span span("shared.step");
        count(Op::kPaillierEncrypt);
        reg.latency_for("manual.step", Phase::kOnline)
            .record(static_cast<std::uint64_t>(i + 1));
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  FlightRecorder::disable();

  EXPECT_EQ(reg.total(Op::kPaillierEncrypt),
            static_cast<std::uint64_t>(kSessions) * kOpsPerSession);
  EXPECT_EQ(reg.latency_for("manual.step", Phase::kOnline).count(),
            static_cast<std::uint64_t>(kSessions) * kOpsPerSession);
  EXPECT_EQ(reg.latency_for("shared.step", Phase::kOnline).count(),
            static_cast<std::uint64_t>(kSessions) * kOpsPerSession);

  // Per-session traces merge into one valid timeline with summed totals.
  std::vector<JsonValue> docs;
  for (int s = 0; s < kSessions; ++s) {
    const TraceProcess process{"session:" + std::to_string(s), s + 1};
    docs.push_back(build_trace_json(sinks[static_cast<std::size_t>(s)], {},
                                    nullptr, &process));
  }
  const JsonValue merged = merge_traces(docs);
  EXPECT_TRUE(validate_trace_json(merged).empty());
  std::size_t complete_events = 0;
  for (const JsonValue& e : merged.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() == "X") ++complete_events;
  }
  EXPECT_EQ(complete_events,
            static_cast<std::size_t>(kSessions) * kOpsPerSession);

  const std::vector<TraceEvent> flight = FlightRecorder::drain();
  FlightRecorder::clear();
  EXPECT_FALSE(flight.empty());  // spans also landed in the rings

  const std::vector<MetricsRegistry::LatencyEntry> latencies =
      reg.latencies();
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_EQ(latencies[0].step, "manual.step");
  EXPECT_EQ(latencies[0].phase, Phase::kOnline);
  EXPECT_EQ(latencies[0].hist.max,
            static_cast<std::uint64_t>(kOpsPerSession));
  EXPECT_EQ(latencies[1].step, "shared.step");
}

}  // namespace
}  // namespace pcl::obs
