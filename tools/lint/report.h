// Finding type, suppression baseline, and the pc-lint-v1 JSON exporter.
//
// The JSON report mirrors the pc-trace-v1 / pc-bench-v1 exporters
// (src/obs/export.h): a `schema` discriminator plus machine-readable
// records, validated by `pc_trace --check` and uploaded from CI.
//
// The baseline file suppresses known findings without deleting them: one
// entry per line, `RULE|file|message`, '#' comments and blank lines
// ignored.  Entries are line-number-free so findings survive unrelated
// edits; each entry suppresses any number of identical findings.  The
// committed baseline (tools/lint/pc_lint_baseline.txt) is empty — the gate
// is "zero unsuppressed findings", and new suppressions need review.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pclint {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based; 0 means whole-file
  std::string rule;      // "PC001" ... "PC010"
  std::string message;
  bool suppressed = false;
};

/// Sorts by (file, line, rule, message) for stable output.
void sort_findings(std::vector<Finding>& findings);

/// Loads baseline entries; returns false (with a message on stderr) when
/// the file exists but cannot be read.  A missing file is an empty baseline.
bool load_baseline(const std::string& path, std::vector<std::string>& out);

/// Marks findings matching a baseline entry as suppressed.
void apply_baseline(const std::vector<std::string>& baseline,
                    std::vector<Finding>& findings);

/// The baseline key of a finding (`RULE|file|message`).
std::string baseline_key(const Finding& f);

/// Serializes the pc-lint-v1 report.
std::string render_json_report(const std::vector<Finding>& findings,
                               std::size_t files_scanned);

}  // namespace pclint
