#include "report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <tuple>
#include <utility>

#include "obs/json.h"

namespace pclint {

using pcl::obs::JsonValue;

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

bool load_baseline(const std::string& path, std::vector<std::string>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "pc_lint: cannot read baseline file: %s\n",
                 path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    out.push_back(line);
  }
  return true;
}

std::string baseline_key(const Finding& f) {
  return f.rule + "|" + f.file + "|" + f.message;
}

void apply_baseline(const std::vector<std::string>& baseline,
                    std::vector<Finding>& findings) {
  std::map<std::string, bool> entries;
  for (const std::string& e : baseline) entries[e] = true;
  for (Finding& f : findings) {
    if (entries.count(baseline_key(f)) != 0) f.suppressed = true;
  }
}

std::string render_json_report(const std::vector<Finding>& findings,
                               std::size_t files_scanned) {
  JsonValue::Array rows;
  rows.reserve(findings.size());
  JsonValue::Object counts;
  std::size_t suppressed = 0;
  std::map<std::string, std::size_t> by_rule;
  for (const Finding& f : findings) {
    JsonValue::Object row;
    row["rule"] = f.rule;
    row["file"] = f.file;
    row["line"] = JsonValue(std::uint64_t{f.line});
    row["suppressed"] = f.suppressed;
    row["message"] = f.message;
    rows.emplace_back(std::move(row));
    if (f.suppressed) ++suppressed;
    ++by_rule[f.rule];
  }
  for (const auto& [rule, n] : by_rule) {
    counts[rule] = JsonValue(std::uint64_t{n});
  }
  counts["total"] = JsonValue(std::uint64_t{findings.size()});
  counts["suppressed"] = JsonValue(std::uint64_t{suppressed});
  counts["unsuppressed"] =
      JsonValue(std::uint64_t{findings.size() - suppressed});
  JsonValue::Object doc;
  doc["schema"] = "pc-lint-v1";
  doc["files_scanned"] = JsonValue(std::uint64_t{files_scanned});
  doc["findings"] = std::move(rows);
  doc["counts"] = std::move(counts);
  return JsonValue(std::move(doc)).dump(2) + "\n";
}

}  // namespace pclint
