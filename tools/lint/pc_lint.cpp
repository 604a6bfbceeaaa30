// pc_lint — project-specific crypto-invariant checker.
//
// Generic tools (clang-tidy, sanitizers) cannot know which identifiers in
// this codebase are *secrets* or what the protocol schedule promises; this
// tool encodes that knowledge.  v2 is a small multi-pass analyzer: every
// file is lexed once (tools/lint/lexer.*), per-file symbol tables record
// functions, parameters and fields (tools/lint/functions.*), and three
// semantic passes run on top of the original line-level rules:
//
//   PC001 banned-rng        std::rand/srand/std::random_device anywhere but
//                           src/bigint/rng.* — all randomness must flow
//                           through the Rng interface.
//   PC003 missing-zeroize   a `class`/`struct` whose name ends in PrivateKey
//                           must declare zeroize() in the same file.
//   PC004 include-hygiene   #pragma once in headers; no <bits/stdc++.h>,
//                           `using namespace std` in headers, or "../"
//                           includes.
//   PC005 whitespace        no trailing whitespace, tab indentation, CR
//                           endings; files end with a newline.
//   PC006 transport-owner   Network construction only in src/net/; TCP
//                           transport types only in src/net/tcp* and
//                           tools/pc_party/.
//   PC007 raw-timing        raw clock sources outside src/obs/ are banned;
//                           time through obs::monotonic_time_ns().
//   PC008 secret-taint      intra-procedural taint dataflow in src/crypto
//                           and src/mpc: PC_SECRET declarations, private-key
//                           fields and decryption results must not reach
//                           branches, loop bounds, array indices,
//                           variable-time BigInt entry points, or message
//                           writes.  `pc_declassify(...)`
//                           (src/core/secrecy.h) is the audited escape.
//   PC009 protocol-schedule send/recv/bulletin schedules extracted from the
//                           party programs must match the committed
//                           manifest (PROTOCOL_SCHEDULE.json) and each
//                           other: every send has a tag- and counterparty-
//                           matching recv, and finite schedules must not
//                           deadlock under rendezvous semantics.
//   PC010 layering          the include graph must respect the layer DAG
//                           (obs < bigint < dp/ml/net < crypto < mpc <
//                           core < tools) and stay acyclic.
//
// PC002 (line-regex secret-branch) is retired: PC008 subsumes it with real
// dataflow, and the `ct-ok:` comment escape is replaced by the typed
// `pc_declassify` marker.
//
// Usage:
//   pc_lint --root <repo-root> [options] [subdir...]   scan (default: src)
//     --json <path>       write a pc-lint-v1 report
//     --baseline <path>   suppression baseline (default:
//                         <root>/tools/lint/pc_lint_baseline.txt)
//     --manifest <path>   schedule manifest (default:
//                         <root>/PROTOCOL_SCHEDULE.json; PC009 is skipped
//                         when the default is absent)
//     --only PCNNN[,..]   keep only these rules' findings
//     --dump-schedule     print the built-in party programs' extracted
//                         schedule as a pc-schedule-v1 manifest and exit
//                         (review, then commit); exit 1 when an entry
//                         function is missing
//   pc_lint --self-test <fixtures-dir>    assert each pcNNN fixture (file
//                                         or directory) fires rule PCNNN
//                                         and good_* fixtures stay clean
//
// Exit codes: 0 clean / self-test passed, 1 unsuppressed findings /
// self-test failure, 2 usage or I/O error.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "functions.h"
#include "layering.h"
#include "lexer.h"
#include "report.h"
#include "schedule.h"
#include "taint.h"

namespace fs = std::filesystem;

using pclint::FileModel;
using pclint::Finding;
using pclint::LexedFile;

namespace {

bool contains_identifier(const std::string& line, std::string_view ident) {
  std::size_t pos = 0;
  while ((pos = line.find(ident, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !pclint::is_ident_char(line[pos - 1]);
    const std::size_t end = pos + ident.size();
    const bool right_ok =
        end >= line.size() || !pclint::is_ident_char(line[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

std::string ltrim(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return s.substr(i);
}

std::string generic_rel(const fs::path& root, const fs::path& p) {
  return fs::relative(p, root).generic_string();
}

bool is_source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".cc";
}

// --- line-level rules (ported from pc_lint v1) -----------------------------

// PC001: all randomness flows through src/bigint/rng.*.
void rule_banned_rng(const std::string& rel, const LexedFile& ft,
                     std::vector<Finding>& out) {
  if (rel == "src/bigint/rng.cpp" || rel == "src/bigint/rng.h") return;
  static const std::vector<std::string> banned = {"rand", "srand",
                                                  "random_device"};
  for (std::size_t i = 0; i < ft.stripped.size(); ++i) {
    for (const std::string& b : banned) {
      if (!contains_identifier(ft.stripped[i], b)) continue;
      out.push_back(
          {rel, i + 1, "PC001",
           "banned RNG primitive '" + b +
               "' — use the pcl::Rng interface (src/bigint/rng.h)",
           false});
    }
  }
}

// PC003: private-key classes must support zeroization.
void rule_missing_zeroize(const std::string& rel, const LexedFile& ft,
                          std::vector<Finding>& out) {
  bool declares_private_key = false;
  std::size_t decl_line = 0;
  bool has_zeroize = false;
  for (std::size_t i = 0; i < ft.stripped.size(); ++i) {
    const std::string& line = ft.stripped[i];
    for (const char* kw : {"class ", "struct "}) {
      const std::size_t pos = line.find(kw);
      if (pos == std::string::npos) continue;
      std::size_t j = pos + std::string_view(kw).size();
      std::size_t start = j;
      while (j < line.size() && pclint::is_ident_char(line[j])) ++j;
      const std::string name = line.substr(start, j - start);
      if (name.size() > 10 &&
          name.compare(name.size() - 10, 10, "PrivateKey") == 0 &&
          !declares_private_key) {
        declares_private_key = true;
        decl_line = i + 1;
      }
    }
    if (contains_identifier(line, "zeroize")) has_zeroize = true;
  }
  if (declares_private_key && !has_zeroize) {
    out.push_back({rel, decl_line, "PC003",
                   "private-key type without zeroize() — key material must "
                   "be wiped on destruction",
                   false});
  }
}

// PC004: include hygiene.
void rule_include_hygiene(const std::string& rel, const LexedFile& ft,
                          std::vector<Finding>& out) {
  const bool header =
      rel.size() > 2 && rel.compare(rel.size() - 2, 2, ".h") == 0;
  bool has_pragma_once = false;
  for (std::size_t i = 0; i < ft.raw.size(); ++i) {
    const std::string& raw = ft.raw[i];
    const std::string& line = ft.stripped[i];
    if (raw.find("#pragma once") != std::string::npos) {
      has_pragma_once = true;
    }
    if (raw.find("bits/stdc++.h") != std::string::npos) {
      out.push_back({rel, i + 1, "PC004",
                     "<bits/stdc++.h> is non-portable and bans precise "
                     "include auditing",
                     false});
    }
    if (raw.find("#include \"../") != std::string::npos) {
      out.push_back({rel, i + 1, "PC004",
                     "parent-relative include — include project headers "
                     "rooted at src/ (e.g. \"bigint/bigint.h\")",
                     false});
    }
    if (header && line.find("using namespace std") != std::string::npos) {
      out.push_back({rel, i + 1, "PC004",
                     "`using namespace std` in a header pollutes every "
                     "includer",
                     false});
    }
  }
  if (header && !has_pragma_once && !ft.raw.empty()) {
    out.push_back({rel, 1, "PC004", "header missing #pragma once", false});
  }
}

// PC005: whitespace hygiene (also the no-clang-format fallback).
void rule_whitespace(const std::string& rel, const LexedFile& ft,
                     std::vector<Finding>& out) {
  for (std::size_t i = 0; i < ft.raw.size(); ++i) {
    const std::string& raw = ft.raw[i];
    if (!raw.empty() && raw.back() == '\r') {
      out.push_back({rel, i + 1, "PC005", "CR line ending", false});
      continue;
    }
    if (!raw.empty() && (raw.back() == ' ' || raw.back() == '\t')) {
      out.push_back({rel, i + 1, "PC005", "trailing whitespace", false});
    }
    const std::size_t first_nonspace = raw.find_first_not_of(" \t");
    const std::size_t limit =
        first_nonspace == std::string::npos ? raw.size() : first_nonspace;
    if (raw.find('\t') < limit) {
      out.push_back(
          {rel, i + 1, "PC005", "tab indentation (use spaces)", false});
    }
  }
  if (!ft.raw.empty() && !ft.ends_with_newline) {
    out.push_back({rel, ft.raw.size(), "PC005",
                   "file does not end with a newline", false});
  }
}

// PC006: transport construction is owned (see the header comment).
void flag_transport_constructions(const std::string& rel, const LexedFile& ft,
                                  const std::vector<std::string>& types,
                                  const std::string& hint,
                                  std::vector<Finding>& out) {
  const auto skip_spaces = [](const std::string& s, std::size_t j) {
    while (j < s.size() && s[j] == ' ') ++j;
    return j;
  };
  for (std::size_t i = 0; i < ft.stripped.size(); ++i) {
    const std::string& line = ft.stripped[i];
    for (const std::string& type : types) {
      std::size_t pos = 0;
      bool flagged = false;
      while (!flagged && (pos = line.find(type, pos)) != std::string::npos) {
        const std::size_t end = pos + type.size();
        const bool whole =
            (pos == 0 || !pclint::is_ident_char(line[pos - 1])) &&
            (end >= line.size() || !pclint::is_ident_char(line[end]));
        if (!whole) {
          pos = end;
          continue;
        }
        const std::string before = ltrim(line.substr(0, pos));
        std::string prev_word;
        if (!before.empty()) {
          std::size_t w = before.size();
          while (w > 0 && before[w - 1] == ' ') --w;
          std::size_t ws = w;
          while (ws > 0 && pclint::is_ident_char(before[ws - 1])) --ws;
          prev_word = before.substr(ws, w - ws);
        }
        if (prev_word == "class" || prev_word == "struct" ||
            prev_word == "friend" || prev_word == "enum") {
          pos = end;
          continue;
        }
        bool constructs = prev_word == "new";
        if (!constructs) {
          std::size_t j = skip_spaces(line, end);
          if (j < line.size() && (line[j] == '(' || line[j] == '{')) {
            constructs = true;
          } else if (j < line.size() && pclint::is_ident_char(line[j])) {
            while (j < line.size() && pclint::is_ident_char(line[j])) ++j;
            j = skip_spaces(line, j);
            if (j >= line.size() || line[j] == '(' || line[j] == '{' ||
                line[j] == ';' || line[j] == '=') {
              constructs = true;
            }
          }
        }
        if (constructs) {
          out.push_back({rel, i + 1, "PC006",
                         "direct " + type + " construction — " + hint,
                         false});
          flagged = true;
        }
        pos = end;
      }
    }
  }
}

void rule_direct_network_construction(const std::string& rel,
                                      const LexedFile& ft,
                                      bool force_in_scope,
                                      std::vector<Finding>& out) {
  static const std::vector<std::string> kNetworkTypes = {"Network"};
  static const std::vector<std::string> kTcpTypes = {
      "TcpChannel", "TcpListener", "TcpSocket"};
  if (force_in_scope ||
      (rel.rfind("src/", 0) == 0 && rel.rfind("src/net/", 0) != 0)) {
    flag_transport_constructions(
        rel, ft, kNetworkTypes,
        "protocol code must take a Channel& and let the party runner "
        "(src/net/party_runner.h) own the transport",
        out);
  }
  const bool tcp_owner = rel.rfind("src/net/tcp", 0) == 0 ||
                         rel.rfind("src/net/session/", 0) == 0 ||
                         rel.rfind("tools/pc_party/", 0) == 0;
  if (force_in_scope ||
      ((rel.rfind("src/", 0) == 0 || rel.rfind("tools/", 0) == 0) &&
       !tcp_owner)) {
    flag_transport_constructions(
        rel, ft, kTcpTypes,
        "only src/net/tcp*, src/net/session/ and tools/pc_party may build "
        "the TCP transport; use run_parties(PartyTransport::kTcp) or the "
        "pc_party daemon",
        out);
  }
}

// PC007: only src/obs/ may read a raw clock.
void rule_raw_timing(const std::string& rel, const LexedFile& ft,
                     bool force_in_scope, std::vector<Finding>& out) {
  const bool in_scope = force_in_scope || (rel.rfind("src/", 0) == 0 &&
                                           rel.rfind("src/obs/", 0) != 0);
  if (!in_scope) return;
  static const std::vector<std::string> kClockSources = {
      "steady_clock", "system_clock", "high_resolution_clock",
      "clock_gettime"};
  for (std::size_t i = 0; i < ft.stripped.size(); ++i) {
    for (const std::string& clock : kClockSources) {
      if (!contains_identifier(ft.stripped[i], clock)) continue;
      out.push_back({rel, i + 1, "PC007",
                     "raw clock source '" + clock +
                         "' outside src/obs/ — time through "
                         "obs::monotonic_time_ns() (src/obs/clock.h)",
                     false});
    }
  }
}

// --- scan driver -----------------------------------------------------------

struct ScannedFile {
  std::string rel;
  std::unique_ptr<LexedFile> lex;
  std::unique_ptr<FileModel> model;
};

bool taint_in_scope(const std::string& rel, bool force) {
  return force || rel.rfind("src/crypto/", 0) == 0 ||
         rel.rfind("src/mpc/", 0) == 0;
}

struct ScanOptions {
  bool force_all_rules = false;  // fixtures: every rule applies everywhere
  std::string manifest_path;     // empty: skip PC009
  std::string manifest_rel = "PROTOCOL_SCHEDULE.json";
};

// Lexes and models every source file under root/<subdirs>.
bool collect_files(const fs::path& root, const std::vector<std::string>& subs,
                   std::vector<ScannedFile>& files) {
  for (const std::string& sub : subs) {
    const fs::path dir = root / sub;
    if (!fs::exists(dir)) {
      std::cerr << "pc_lint: no such directory: " << dir << "\n";
      return false;
    }
    if (fs::is_regular_file(dir)) {
      if (is_source_file(dir)) {
        ScannedFile sf;
        sf.rel = generic_rel(root, dir);
        sf.lex = std::make_unique<LexedFile>(pclint::lex_file(dir.string()));
        sf.model =
            std::make_unique<FileModel>(pclint::build_file_model(*sf.lex));
        files.push_back(std::move(sf));
      }
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !is_source_file(entry.path())) {
        continue;
      }
      ScannedFile sf;
      sf.rel = generic_rel(root, entry.path());
      sf.lex =
          std::make_unique<LexedFile>(pclint::lex_file(entry.path().string()));
      sf.model =
          std::make_unique<FileModel>(pclint::build_file_model(*sf.lex));
      files.push_back(std::move(sf));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const ScannedFile& a, const ScannedFile& b) {
              return a.rel < b.rel;
            });
  return true;
}

std::vector<Finding> run_all_rules(const std::vector<ScannedFile>& files,
                                   const fs::path& root,
                                   const ScanOptions& opt) {
  std::vector<Finding> findings;
  std::map<std::string, const ScannedFile*> by_rel;
  for (const ScannedFile& f : files) by_rel[f.rel] = &f;

  for (const ScannedFile& f : files) {
    rule_banned_rng(f.rel, *f.lex, findings);
    rule_missing_zeroize(f.rel, *f.lex, findings);
    rule_include_hygiene(f.rel, *f.lex, findings);
    rule_whitespace(f.rel, *f.lex, findings);
    rule_direct_network_construction(f.rel, *f.lex, opt.force_all_rules,
                                     findings);
    rule_raw_timing(f.rel, *f.lex, opt.force_all_rules, findings);
    if (taint_in_scope(f.rel, opt.force_all_rules)) {
      // Paired header: PC_SECRET fields of foo.h also seed foo.cpp/.cc.
      std::vector<pclint::FieldDecl> header_fields;
      const std::size_t dot = f.rel.rfind('.');
      if (dot != std::string::npos && f.rel.substr(dot) != ".h") {
        auto hdr = by_rel.find(f.rel.substr(0, dot) + ".h");
        if (hdr != by_rel.end()) {
          header_fields = hdr->second->model->fields;
        }
      }
      pclint::run_taint_analysis(f.rel, *f.lex, *f.model, header_fields,
                                 findings);
    }
  }

  // PC010 over the whole scanned set.
  std::vector<pclint::LayerFile> layer_files;
  layer_files.reserve(files.size());
  for (const ScannedFile& f : files) {
    layer_files.push_back({f.rel, f.lex.get()});
  }
  pclint::run_layering_analysis(layer_files, root.string(), findings);

  // PC009 against the manifest, when one is configured.
  if (!opt.manifest_path.empty()) {
    std::ifstream in(opt.manifest_path);
    if (!in) {
      findings.push_back({opt.manifest_rel, 0, "PC009",
                          "schedule manifest is missing: " +
                              opt.manifest_path,
                          false});
    } else {
      std::ostringstream buf;
      buf << in.rdbuf();
      std::vector<pclint::ProgramSchedule> manifest;
      std::string err;
      if (!pclint::parse_manifest(buf.str(), manifest, err)) {
        findings.push_back({opt.manifest_rel, 0, "PC009",
                            "schedule manifest is malformed: " + err,
                            false});
      } else {
        pclint::ScheduleExtractor extractor;
        for (const ScannedFile& f : files) {
          extractor.add_file(f.lex.get(), f.model.get());
        }
        pclint::check_schedules(manifest, extractor, opt.manifest_rel,
                                findings);
      }
    }
  }
  return findings;
}

int dump_schedule(const fs::path& root, const std::vector<std::string>& subs) {
  std::vector<ScannedFile> files;
  if (!collect_files(root, subs, files)) return 2;
  pclint::ScheduleExtractor extractor;
  for (const ScannedFile& f : files) {
    extractor.add_file(f.lex.get(), f.model.get());
  }
  std::vector<pclint::ProgramSchedule> programs = pclint::builtin_programs();
  bool missing = false;
  for (pclint::ProgramSchedule& prog : programs) {
    for (pclint::PartySchedule& party : prog.parties) {
      if (!extractor.events_for(party.function, party.events)) {
        std::cerr << "pc_lint: function not found: " << party.function
                  << " (program " << prog.name << ")\n";
        missing = true;
      }
    }
  }
  if (missing) return 1;
  std::cout << pclint::render_manifest(programs);
  return 0;
}

struct CliOptions {
  fs::path root;
  std::vector<std::string> subdirs;
  std::string json_path;
  std::string baseline_path;
  std::string manifest_path;
  std::set<std::string> only;
  bool dump = false;
};

int run_scan(const CliOptions& cli) {
  ScanOptions opt;
  // Default manifest: <root>/PROTOCOL_SCHEDULE.json when present; an
  // explicitly-passed manifest must exist.
  std::string manifest = cli.manifest_path;
  if (manifest.empty()) {
    const fs::path def = cli.root / "PROTOCOL_SCHEDULE.json";
    if (fs::exists(def)) manifest = def.string();
  } else if (!fs::exists(manifest)) {
    std::cerr << "pc_lint: no such manifest: " << manifest << "\n";
    return 2;
  }
  if (!manifest.empty()) {
    opt.manifest_path = manifest;
    opt.manifest_rel = generic_rel(cli.root, fs::path(manifest));
  }

  std::vector<ScannedFile> files;
  if (!collect_files(cli.root, cli.subdirs, files)) return 2;
  std::vector<Finding> findings = run_all_rules(files, cli.root, opt);

  if (!cli.only.empty()) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    return cli.only.count(f.rule) == 0;
                                  }),
                   findings.end());
  }

  // Baseline: explicit path, else the committed default when present.
  std::string baseline_path = cli.baseline_path;
  if (baseline_path.empty()) {
    const fs::path def = cli.root / "tools" / "lint" / "pc_lint_baseline.txt";
    if (fs::exists(def)) baseline_path = def.string();
  }
  if (!baseline_path.empty()) {
    std::vector<std::string> baseline;
    if (!pclint::load_baseline(baseline_path, baseline)) return 2;
    pclint::apply_baseline(baseline, findings);
  }

  pclint::sort_findings(findings);
  std::size_t unsuppressed = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++unsuppressed;
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "]"
              << (f.suppressed ? " (suppressed)" : "") << " " << f.message
              << "\n";
  }
  std::cout << "pc_lint: " << files.size() << " files scanned, "
            << findings.size() << " finding(s), " << unsuppressed
            << " unsuppressed\n";

  if (!cli.json_path.empty()) {
    std::ofstream out(cli.json_path);
    if (!out) {
      std::cerr << "pc_lint: cannot write report: " << cli.json_path << "\n";
      return 2;
    }
    out << pclint::render_json_report(findings, files.size());
  }
  return unsuppressed == 0 ? 0 : 1;
}

// --- self-test -------------------------------------------------------------

// Scans one fixture (file, or directory treated as a mini repo root with an
// optional schedule.json manifest) with every rule forced into scope.
std::vector<Finding> scan_fixture(const fs::path& path) {
  ScanOptions opt;
  opt.force_all_rules = true;
  std::vector<ScannedFile> files;
  fs::path root;
  std::vector<std::string> subs;
  if (fs::is_directory(path)) {
    root = path;
    for (const auto& entry : fs::directory_iterator(path)) {
      subs.push_back(entry.path().filename().string());
    }
    std::sort(subs.begin(), subs.end());
    const fs::path manifest = path / "schedule.json";
    if (fs::exists(manifest)) {
      opt.manifest_path = manifest.string();
      opt.manifest_rel = "schedule.json";
    }
  } else {
    root = path.parent_path();
    subs.push_back(path.filename().string());
  }
  if (!collect_files(root, subs, files)) return {};
  // Directory fixtures keep their real relative paths (so PC010 layer
  // ranks apply); single-file fixtures are namespaced for readability.
  if (!fs::is_directory(path)) {
    for (ScannedFile& f : files) f.rel = "fixture/" + f.rel;
  }
  return run_all_rules(files, root, opt);
}

int run_self_test(const fs::path& fixtures) {
  if (!fs::exists(fixtures)) {
    std::cerr << "pc_lint: no such fixtures directory: " << fixtures << "\n";
    return 2;
  }
  std::size_t checked = 0, failures = 0;
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(fixtures)) {
    if (entry.is_directory() || is_source_file(entry.path())) {
      entries.push_back(entry.path());
    }
  }
  std::sort(entries.begin(), entries.end());
  for (const fs::path& path : entries) {
    const std::string name = path.filename().string();
    const std::vector<Finding> findings = scan_fixture(path);
    ++checked;
    if (name.rfind("good_", 0) == 0) {
      if (!findings.empty()) {
        ++failures;
        std::cout << "FAIL " << name << ": expected clean, got "
                  << findings.size() << " finding(s):\n";
        for (const Finding& f : findings) {
          std::cout << "    " << f.file << ":" << f.line << ": [" << f.rule
                    << "] " << f.message << "\n";
        }
      } else {
        std::cout << "ok   " << name << " (clean as expected)\n";
      }
      continue;
    }
    if (name.size() < 5 || name.rfind("pc", 0) != 0) {
      std::cout << "skip " << name << " (no pcNNN_/good_ prefix)\n";
      continue;
    }
    std::string expected_rule = "PC" + name.substr(2, 3);
    std::transform(expected_rule.begin(), expected_rule.end(),
                   expected_rule.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    const bool fired = std::any_of(
        findings.begin(), findings.end(),
        [&](const Finding& f) { return f.rule == expected_rule; });
    if (fired) {
      std::cout << "ok   " << name << " (" << expected_rule << " fired)\n";
    } else {
      ++failures;
      std::cout << "FAIL " << name << ": expected " << expected_rule
                << " to fire; findings were:\n";
      for (const Finding& f : findings) {
        std::cout << "    " << f.file << ":" << f.line << ": [" << f.rule
                  << "] " << f.message << "\n";
      }
    }
  }
  std::cout << "pc_lint self-test: " << checked << " fixture(s), "
            << failures << " failure(s)\n";
  if (checked == 0) {
    std::cerr << "pc_lint: fixtures directory is empty\n";
    return 2;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() >= 2 && args[0] == "--self-test") {
    return run_self_test(fs::path(args[1]));
  }
  if (args.size() >= 2 && args[0] == "--root") {
    CliOptions cli;
    cli.root = fs::path(args[1]);
    for (std::size_t i = 2; i < args.size(); ++i) {
      const std::string& a = args[i];
      const auto next = [&]() -> const std::string* {
        return i + 1 < args.size() ? &args[++i] : nullptr;
      };
      if (a == "--json") {
        const std::string* v = next();
        if (v == nullptr) break;
        cli.json_path = *v;
      } else if (a == "--baseline") {
        const std::string* v = next();
        if (v == nullptr) break;
        cli.baseline_path = *v;
      } else if (a == "--manifest") {
        const std::string* v = next();
        if (v == nullptr) break;
        cli.manifest_path = *v;
      } else if (a == "--only") {
        const std::string* v = next();
        if (v == nullptr) break;
        std::istringstream rules(*v);
        std::string rule;
        while (std::getline(rules, rule, ',')) {
          if (!rule.empty()) cli.only.insert(rule);
        }
      } else if (a == "--dump-schedule") {
        cli.dump = true;
      } else {
        cli.subdirs.push_back(a);
      }
    }
    if (cli.subdirs.empty()) cli.subdirs.emplace_back("src");
    if (cli.dump) return dump_schedule(cli.root, cli.subdirs);
    return run_scan(cli);
  }
  std::cerr
      << "usage: pc_lint --root <repo-root> [--json <path>] "
         "[--baseline <path>]\n"
         "               [--manifest <path>] [--only PCNNN[,PCNNN...]]\n"
         "               [--dump-schedule] [subdir...]\n"
         "       pc_lint --self-test <fixtures-dir>\n";
  return 2;
}
