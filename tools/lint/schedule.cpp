#include "schedule.h"

#include <algorithm>
#include <deque>

#include "obs/json.h"

namespace pclint {

namespace {

using pcl::obs::JsonValue;

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// String-literal token text is stored without the surrounding quotes.
std::string literal_value(const Token& t) { return t.text; }

// Token ranges whose events repeat an unknown number of times: loop bodies
// and lambda bodies.
std::vector<std::pair<std::size_t, std::size_t>> many_ranges(
    const std::vector<Token>& toks, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& tk = toks[i];
    if (tk.kind == TokKind::kIdent &&
        (tk.text == "for" || tk.text == "while")) {
      if (i + 1 >= end || !is_punct(toks[i + 1], "(")) continue;
      const std::size_t close = match_group(toks, i + 1);
      if (close + 1 >= end) continue;
      if (is_punct(toks[close + 1], "{")) {
        const std::size_t body_end = match_group(toks, close + 1);
        if (body_end < end) out.push_back({close + 1, body_end});
      } else {
        // Single-statement body: until the next ';' at group level.
        std::size_t depth = 0;
        for (std::size_t k = close + 1; k < end; ++k) {
          if (toks[k].kind != TokKind::kPunct) continue;
          const std::string& t = toks[k].text;
          if (t == "(" || t == "[" || t == "{") ++depth;
          else if (t == ")" || t == "]" || t == "}") --depth;
          else if (t == ";" && depth == 0) {
            out.push_back({close + 1, k});
            break;
          }
        }
      }
      continue;
    }
    if (tk.kind == TokKind::kIdent && tk.text == "do" && i + 1 < end &&
        is_punct(toks[i + 1], "{")) {
      const std::size_t body_end = match_group(toks, i + 1);
      if (body_end < end) out.push_back({i + 1, body_end});
      continue;
    }
    // Lambda introducer: '[' not preceded by an expression (those are
    // subscripts) and not an attribute '[['.
    if (is_punct(tk, "[")) {
      if (i + 1 < end && is_punct(toks[i + 1], "[")) continue;  // attribute
      if (i > 0) {
        const Token& prev = toks[i - 1];
        if (prev.kind == TokKind::kIdent ||
            (prev.kind == TokKind::kPunct &&
             (prev.text == "]" || prev.text == ")"))) {
          continue;  // subscript
        }
      }
      std::size_t p = match_group(toks, i);
      if (p >= end) continue;
      ++p;
      if (p < end && is_punct(toks[p], "(")) {
        p = match_group(toks, p);
        if (p >= end) continue;
        ++p;
      }
      // Skip specifiers / trailing return up to the body brace.
      while (p < end && !is_punct(toks[p], "{")) {
        if (toks[p].kind == TokKind::kPunct &&
            (toks[p].text == ";" || toks[p].text == ")" ||
             toks[p].text == "," || toks[p].text == "}")) {
          p = end;  // not a lambda after all
          break;
        }
        if (toks[p].kind == TokKind::kPunct &&
            (toks[p].text == "(" || toks[p].text == "[")) {
          p = match_group(toks, p);
          if (p >= end) break;
        }
        ++p;
      }
      if (p < end && is_punct(toks[p], "{")) {
        const std::size_t body_end = match_group(toks, p);
        if (body_end < end) out.push_back({p, body_end});
      }
      continue;
    }
  }
  return out;
}

bool in_any_range(
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
    std::size_t i) {
  for (const auto& [b, e] : ranges) {
    if (i > b && i < e) return true;
  }
  return false;
}

// Splits a call's argument list [open+1, close) on top-level commas.
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& toks, std::size_t open, std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (close <= open + 1) return out;
  std::size_t depth = 0;
  std::size_t b = open + 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]" || t == "}") --depth;
    else if (t == "," && depth == 0) {
      out.push_back({b, i});
      b = i + 1;
    }
  }
  out.push_back({b, close});
  return out;
}

void coalesce(std::vector<ScheduleEvent>& events) {
  std::vector<ScheduleEvent> out;
  for (const ScheduleEvent& e : events) {
    if (!out.empty() && out.back().op == e.op && out.back().peer == e.peer &&
        out.back().step == e.step) {
      if (out.back().count < 0 || e.count < 0) out.back().count = -1;
      else out.back().count += e.count;
      continue;
    }
    out.push_back(e);
  }
  events = std::move(out);
}

// Does manifest peer `p` refer to manifest party `party`?
bool peer_refers(const std::string& p, const std::string& party) {
  if (p == party) return true;
  if (p == "user:*" && party == "user") return true;
  return false;
}

JsonValue event_to_json(const ScheduleEvent& e) {
  JsonValue::Object o;
  o["op"] = JsonValue(e.op);
  if (e.op == "send" || e.op == "recv") o["peer"] = JsonValue(e.peer);
  o["step"] = JsonValue(e.step);
  o["count"] = e.count < 0 ? JsonValue("*")
                           : JsonValue(static_cast<double>(e.count));
  return JsonValue(std::move(o));
}

std::string event_str(const ScheduleEvent& e) {
  std::string s = e.op;
  if (!e.peer.empty()) s += " " + e.peer;
  if (!e.step.empty()) s += " [" + e.step + "]";
  s += " x";
  s += e.count < 0 ? "*" : std::to_string(e.count);
  return s;
}

}  // namespace

void ScheduleExtractor::add_file(const LexedFile* lex,
                                 const FileModel* model) {
  for (const FunctionModel& fn : model->functions) {
    Source src{lex, model, &fn};
    by_name_[fn.name] = src;
    const std::size_t sep = fn.name.rfind("::");
    if (sep != std::string::npos) {
      known_types_.insert(fn.name.substr(0, sep));
    } else {
      // Bare names map to themselves unless ambiguous.
      auto [it, fresh] = bare_.insert({fn.name, fn.name});
      if (!fresh && it->second != fn.name) it->second.clear();
      (void)it;
    }
  }
}

const ScheduleExtractor::Source* ScheduleExtractor::resolve(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return &it->second;
  auto bare = bare_.find(name);
  if (bare != bare_.end() && !bare->second.empty()) {
    it = by_name_.find(bare->second);
    if (it != by_name_.end()) return &it->second;
  }
  return nullptr;
}

bool ScheduleExtractor::events_for(const std::string& function,
                                   std::vector<ScheduleEvent>& out) {
  const Source* src = resolve(function);
  if (src == nullptr) return false;
  auto memo = memo_.find(src->fn->name);
  if (memo != memo_.end()) {
    out = memo->second;
    return true;
  }
  if (visiting_.count(src->fn->name) != 0) {
    out.clear();  // recursion guard: a cycle contributes no events
    return true;
  }
  visiting_.insert(src->fn->name);
  std::vector<ScheduleEvent> events = extract(*src);
  visiting_.erase(src->fn->name);
  memo_[src->fn->name] = events;
  out = std::move(events);
  return true;
}

std::vector<ScheduleEvent> ScheduleExtractor::extract(const Source& src) {
  const std::vector<Token>& toks = src.lex->tokens;
  const FunctionModel& fn = *src.fn;
  const std::size_t begin = fn.body_begin;
  const std::size_t end = fn.body_end;
  std::vector<ScheduleEvent> events;

  const auto ranges = many_ranges(toks, begin, end);
  const auto locals =
      local_object_types(toks, begin, end, known_types_);

  const auto is_param = [&](const std::string& name) {
    for (const ParamDecl& p : fn.params) {
      if (p.name == name) return true;
    }
    return false;
  };

  // Evaluates a peer-argument token span in this function's context.
  const auto peer_of = [&](std::size_t b, std::size_t e) -> std::string {
    if (e <= b) return "*";
    if (toks[b].kind == TokKind::kString) {
      const std::string lit = literal_value(toks[b]);
      if (e == b + 1) return lit;
      if (lit.rfind("user:", 0) == 0 && is_punct(toks[b + 1], "+")) {
        return "user:*";
      }
      return "*";
    }
    if (e == b + 1 && toks[b].kind == TokKind::kIdent) {
      return is_param(toks[b].text) ? "$" + toks[b].text : "*";
    }
    return "*";
  };

  // Step-tag context: stack of (brace depth at declaration, label).
  std::vector<std::pair<long, std::string>> steps;
  long depth = 0;
  const auto current_step = [&]() -> std::string {
    return steps.empty() ? "" : steps.back().second;
  };
  const auto first_string_in = [&](std::size_t open,
                                   std::size_t close) -> std::string {
    for (std::size_t k = open + 1; k < close; ++k) {
      if (toks[k].kind == TokKind::kString) return literal_value(toks[k]);
    }
    return "";
  };

  for (std::size_t i = begin; i < end; ++i) {
    const Token& tk = toks[i];
    if (is_punct(tk, "{")) {
      ++depth;
      continue;
    }
    if (is_punct(tk, "}")) {
      --depth;
      while (!steps.empty() && steps.back().first > depth) steps.pop_back();
      continue;
    }
    // `ChannelStepScope scope(chan, "label", ...)`.
    if (tk.kind == TokKind::kIdent && tk.text == "ChannelStepScope" &&
        i + 2 < end && toks[i + 1].kind == TokKind::kIdent &&
        is_punct(toks[i + 2], "(")) {
      const std::size_t close = match_group(toks, i + 2);
      if (close < end) {
        const std::string label = first_string_in(i + 2, close);
        if (!label.empty()) steps.push_back({depth, label});
        i = close;
      }
      continue;
    }
    // `chan.set_step("label")`.
    if (tk.kind == TokKind::kIdent && tk.text == "set_step" && i > 0 &&
        is_punct(toks[i - 1], ".") && i + 1 < end &&
        is_punct(toks[i + 1], "(")) {
      const std::size_t close = match_group(toks, i + 1);
      if (close < end) {
        const std::string label = first_string_in(i + 1, close);
        if (!steps.empty() && steps.back().first == depth) {
          steps.back().second = label;
        } else {
          steps.push_back({depth, label});
        }
        i = close;
      }
      continue;
    }

    if (tk.kind != TokKind::kIdent) continue;
    if (i + 1 >= end || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_group(toks, i + 1);
    if (close >= end) continue;
    const bool many = in_any_range(ranges, i);
    const bool method = i > 0 && is_punct(toks[i - 1], ".");

    // Direct channel events.
    if (method &&
        (tk.text == "send" || tk.text == "recv" ||
         tk.text == "post_public" || tk.text == "await_public")) {
      ScheduleEvent ev;
      ev.step = current_step();
      ev.count = many ? -1 : 1;
      if (tk.text == "send" || tk.text == "recv") {
        ev.op = tk.text;
        const auto args = split_args(toks, i + 1, close);
        if (!args.empty()) ev.peer = peer_of(args[0].first, args[0].second);
        else ev.peer = "*";
      } else {
        ev.op = tk.text == "post_public" ? "post" : "await";
      }
      events.push_back(ev);
      continue;
    }

    // Call expansion: helper functions and role-class methods.
    std::string callee;
    const Source* sub = nullptr;
    if (method && i >= 2 && toks[i - 2].kind == TokKind::kIdent) {
      auto obj = locals.find(toks[i - 2].text);
      if (obj != locals.end()) {
        callee = obj->second + "::" + tk.text;
        sub = resolve(callee);
      }
    } else if (!method && !(i > 0 && (is_punct(toks[i - 1], "->") ||
                                      is_punct(toks[i - 1], "::")))) {
      callee = tk.text;
      sub = resolve(callee);
    }
    if (sub == nullptr || sub->fn == &fn) continue;
    std::vector<ScheduleEvent> sub_events;
    if (!events_for(sub->fn->name, sub_events) || sub_events.empty()) {
      continue;
    }
    const auto args = split_args(toks, i + 1, close);
    for (ScheduleEvent ev : sub_events) {
      if (!ev.peer.empty() && ev.peer[0] == '$') {
        const std::string pname = ev.peer.substr(1);
        std::string mapped = "*";
        for (std::size_t pi = 0; pi < sub->fn->params.size(); ++pi) {
          if (sub->fn->params[pi].name == pname && pi < args.size()) {
            mapped = peer_of(args[pi].first, args[pi].second);
            break;
          }
        }
        ev.peer = mapped;
      }
      if (ev.step.empty()) ev.step = current_step();
      if (many) ev.count = -1;
      events.push_back(ev);
    }
    i = close;  // arguments were handled by the expansion
  }

  coalesce(events);
  return events;
}

std::vector<ProgramSchedule> builtin_programs() {
  const auto prog = [](std::string name,
                       std::vector<std::pair<std::string, std::string>>
                           parties) {
    ProgramSchedule p;
    p.name = std::move(name);
    for (auto& [party, function] : parties) {
      p.parties.push_back({party, function, {}});
    }
    return p;
  };
  return {
      prog("consensus_batch", {{"S1", "ConsensusS1BatchProgram::run"},
                               {"S2", "ConsensusS2BatchProgram::run"},
                               {"user", "ConsensusUserBatchProgram::run"}}),
      prog("dgk_compare", {{"S1", "dgk_compare_s1_geq"},
                           {"S2", "dgk_compare_s2_geq"}}),
      prog("secure_sum", {{"user", "secure_sum_submit"},
                          {"S1", "secure_sum_collect"},
                          {"S2", "secure_sum_collect"}}),
      prog("blind_permute", {{"S1", "BlindPermuteS1::run"},
                             {"S2", "BlindPermuteS2::run"}}),
  };
}

bool parse_manifest(const std::string& json_text,
                    std::vector<ProgramSchedule>& out, std::string& err) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(json_text);
  } catch (const std::exception& e) {
    err = e.what();
    return false;
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "pc-schedule-v1") {
    err = "manifest schema is not pc-schedule-v1";
    return false;
  }
  const JsonValue* programs = doc.find("programs");
  if (programs == nullptr || !programs->is_array()) {
    err = "manifest has no programs array";
    return false;
  }
  for (const JsonValue& p : programs->as_array()) {
    const JsonValue* name = p.find("name");
    const JsonValue* parties = p.find("parties");
    if (name == nullptr || !name->is_string() || parties == nullptr ||
        !parties->is_array()) {
      err = "program entry needs name and parties";
      return false;
    }
    ProgramSchedule prog;
    prog.name = name->as_string();
    for (const JsonValue& pt : parties->as_array()) {
      const JsonValue* party = pt.find("party");
      const JsonValue* function = pt.find("function");
      const JsonValue* events = pt.find("events");
      if (party == nullptr || !party->is_string() || function == nullptr ||
          !function->is_string() || events == nullptr ||
          !events->is_array()) {
        err = "party entry needs party, function and events";
        return false;
      }
      PartySchedule ps;
      ps.party = party->as_string();
      ps.function = function->as_string();
      for (const JsonValue& ev : events->as_array()) {
        const JsonValue* op = ev.find("op");
        const JsonValue* step = ev.find("step");
        const JsonValue* count = ev.find("count");
        if (op == nullptr || !op->is_string() || step == nullptr ||
            !step->is_string() || count == nullptr) {
          err = "event needs op, step and count";
          return false;
        }
        ScheduleEvent e;
        e.op = op->as_string();
        e.step = step->as_string();
        if (e.op == "send" || e.op == "recv") {
          const JsonValue* peer = ev.find("peer");
          if (peer == nullptr || !peer->is_string()) {
            err = "send/recv event needs a peer";
            return false;
          }
          e.peer = peer->as_string();
        }
        if (count->is_string() && count->as_string() == "*") {
          e.count = -1;
        } else if (count->is_number()) {
          e.count = static_cast<long>(count->as_number());
        } else {
          err = "event count must be a number or \"*\"";
          return false;
        }
        ps.events.push_back(std::move(e));
      }
      prog.parties.push_back(std::move(ps));
    }
    out.push_back(std::move(prog));
  }
  return true;
}

std::string render_manifest(const std::vector<ProgramSchedule>& programs) {
  JsonValue::Array progs;
  for (const ProgramSchedule& p : programs) {
    JsonValue::Array parties;
    for (const PartySchedule& pt : p.parties) {
      JsonValue::Array events;
      for (const ScheduleEvent& e : pt.events) {
        events.push_back(event_to_json(e));
      }
      JsonValue::Object o;
      o["party"] = JsonValue(pt.party);
      o["function"] = JsonValue(pt.function);
      o["events"] = JsonValue(std::move(events));
      parties.push_back(JsonValue(std::move(o)));
    }
    JsonValue::Object o;
    o["name"] = JsonValue(p.name);
    o["parties"] = JsonValue(std::move(parties));
    progs.push_back(JsonValue(std::move(o)));
  }
  JsonValue::Object root;
  root["schema"] = JsonValue("pc-schedule-v1");
  root["programs"] = JsonValue(std::move(progs));
  return JsonValue(std::move(root)).dump(2) + "\n";
}

namespace {

// Lane matching for one ordered pair of parties.
void check_lane(const ProgramSchedule& prog, const PartySchedule& a,
                const PartySchedule& b, const std::string& manifest_rel,
                std::vector<Finding>& out) {
  std::vector<ScheduleEvent> sends, recvs;
  for (const ScheduleEvent& e : a.events) {
    if (e.op == "send" && peer_refers(e.peer, b.party)) sends.push_back(e);
  }
  for (const ScheduleEvent& e : b.events) {
    if (e.op == "recv" && peer_refers(e.peer, a.party)) recvs.push_back(e);
  }
  // Projection can make same-step runs adjacent; merge on step only.
  const auto merge_steps = [](std::vector<ScheduleEvent>& evs) {
    std::vector<ScheduleEvent> m;
    for (const ScheduleEvent& e : evs) {
      if (!m.empty() && m.back().step == e.step) {
        if (m.back().count < 0 || e.count < 0) m.back().count = -1;
        else m.back().count += e.count;
        continue;
      }
      m.push_back(e);
    }
    evs = std::move(m);
  };
  merge_steps(sends);
  merge_steps(recvs);
  const std::string lane =
      prog.name + ": lane " + a.party + " -> " + b.party;
  if (sends.size() != recvs.size()) {
    out.push_back({manifest_rel, 0, "PC009",
                   lane + " is unbalanced: " + a.party + " sends in " +
                       std::to_string(sends.size()) + " step run(s), " +
                       b.party + " recvs in " +
                       std::to_string(recvs.size()),
                   false});
    return;
  }
  for (std::size_t i = 0; i < sends.size(); ++i) {
    if (sends[i].step != recvs[i].step) {
      out.push_back({manifest_rel, 0, "PC009",
                     lane + " step mismatch at run " + std::to_string(i) +
                         ": send tagged \"" + sends[i].step +
                         "\" but recv tagged \"" + recvs[i].step + "\"",
                     false});
      continue;
    }
    if (sends[i].count >= 0 && recvs[i].count >= 0 &&
        sends[i].count != recvs[i].count) {
      out.push_back({manifest_rel, 0, "PC009",
                     lane + " count mismatch in step \"" + sends[i].step +
                         "\": " + std::to_string(sends[i].count) +
                         " send(s) vs " + std::to_string(recvs[i].count) +
                         " recv(s)",
                     false});
    }
  }
}

// Rendezvous simulation over finite schedules: detects cross-lane ordering
// deadlocks that per-lane matching cannot see.
void simulate(const ProgramSchedule& prog, const std::string& manifest_rel,
              std::vector<Finding>& out) {
  for (const PartySchedule& p : prog.parties) {
    for (const ScheduleEvent& e : p.events) {
      if (e.count < 0) return;  // unbounded repetition: cannot simulate
    }
  }
  // Expand counts into unit events.
  struct Proc {
    const PartySchedule* party;
    std::deque<ScheduleEvent> todo;
    long await_cursor = 0;
  };
  std::vector<Proc> procs;
  for (const PartySchedule& p : prog.parties) {
    Proc pr;
    pr.party = &p;
    for (const ScheduleEvent& e : p.events) {
      for (long c = 0; c < e.count; ++c) {
        ScheduleEvent unit = e;
        unit.count = 1;
        pr.todo.push_back(unit);
      }
    }
    procs.push_back(std::move(pr));
  }
  // Buffered messages: (from, to, step) -> pending count.
  std::map<std::string, long> buffer;
  long posts = 0;
  const auto key = [](const std::string& from, const std::string& to,
                      const std::string& step) {
    return from + "\x1f" + to + "\x1f" + step;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (Proc& pr : procs) {
      while (!pr.todo.empty()) {
        const ScheduleEvent& e = pr.todo.front();
        if (e.op == "send") {
          std::string to = e.peer == "user:*" ? "user" : e.peer;
          ++buffer[key(pr.party->party, to, e.step)];
        } else if (e.op == "post") {
          ++posts;
        } else if (e.op == "recv") {
          const std::string from = e.peer == "user:*" ? "user" : e.peer;
          auto it = buffer.find(key(from, pr.party->party, e.step));
          if (it == buffer.end() || it->second == 0) break;
          --it->second;
        } else {  // await
          if (pr.await_cursor >= posts) break;
          ++pr.await_cursor;  // bulletin reads are per-party cursors
        }
        pr.todo.pop_front();
        progress = true;
      }
    }
  }
  std::string blocked;
  for (const Proc& pr : procs) {
    if (pr.todo.empty()) continue;
    if (!blocked.empty()) blocked += "; ";
    blocked += pr.party->party + " blocked on " + event_str(pr.todo.front());
  }
  if (!blocked.empty()) {
    out.push_back({manifest_rel, 0, "PC009",
                   prog.name + ": schedule deadlocks — " + blocked, false});
  }
}

}  // namespace

void check_schedules(const std::vector<ProgramSchedule>& manifest,
                     ScheduleExtractor& extractor,
                     const std::string& manifest_rel,
                     std::vector<Finding>& out) {
  for (const ProgramSchedule& prog : manifest) {
    // 1. Extraction-vs-manifest drift.
    for (const PartySchedule& party : prog.parties) {
      std::vector<ScheduleEvent> extracted;
      if (!extractor.events_for(party.function, extracted)) {
        out.push_back({manifest_rel, 0, "PC009",
                       prog.name + "/" + party.party + ": function '" +
                           party.function +
                           "' not found in the scanned sources",
                       false});
        continue;
      }
      if (extracted != party.events) {
        std::string detail;
        const std::size_t n =
            std::max(extracted.size(), party.events.size());
        for (std::size_t i = 0; i < n; ++i) {
          const bool have_x = i < extracted.size();
          const bool have_m = i < party.events.size();
          if (have_x && have_m && extracted[i] == party.events[i]) continue;
          detail = "first divergence at event " + std::to_string(i) +
                   ": extracted " +
                   (have_x ? event_str(extracted[i]) : "<none>") +
                   ", manifest " +
                   (have_m ? event_str(party.events[i]) : "<none>");
          break;
        }
        out.push_back({manifest_rel, 0, "PC009",
                       prog.name + "/" + party.party + " (" +
                           party.function +
                           ") drifted from the manifest; " + detail +
                           " — re-run pc_lint --dump-schedule and review",
                       false});
      }
    }
    // 2. Lane matching over the manifest events.
    for (const PartySchedule& a : prog.parties) {
      for (const PartySchedule& b : prog.parties) {
        if (&a == &b) continue;
        check_lane(prog, a, b, manifest_rel, out);
      }
    }
    // 3. Bulletin pairing.
    bool any_post = false;
    for (const PartySchedule& p : prog.parties) {
      for (const ScheduleEvent& e : p.events) {
        if (e.op == "post") any_post = true;
      }
    }
    for (const PartySchedule& p : prog.parties) {
      for (const ScheduleEvent& e : p.events) {
        if (e.op == "await" && !any_post) {
          out.push_back({manifest_rel, 0, "PC009",
                         prog.name + "/" + p.party +
                             " awaits a public value but no party posts one",
                         false});
        }
      }
    }
    // 4. Rendezvous simulation.
    simulate(prog, manifest_rel, out);
  }
}

}  // namespace pclint
