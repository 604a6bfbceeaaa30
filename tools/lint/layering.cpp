#include "layering.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <set>

namespace pclint {

namespace {

namespace fs = std::filesystem;

// Layer rank of a repo-relative path; -1 for files outside the scheme.
int layer_rank(const std::string& rel) {
  if (rel == "src/core/secrecy.h") return 0;  // annotations
  if (rel.rfind("src/", 0) != 0) {
    if (rel.rfind("tools/", 0) == 0) return 8;
    return -1;
  }
  const std::size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return -1;
  const std::string dir = rel.substr(4, slash - 4);
  if (dir == "obs") return 1;
  if (dir == "bigint") {
    // The Montgomery kernel is a sub-layer UNDER bigint: BigInt-free
    // (raw limb spans only), so bigint may include kernels but never the
    // reverse.
    return rel.rfind("src/bigint/kernels/", 0) == 0 ? 2 : 3;
  }
  if (dir == "dp" || dir == "ml" || dir == "net") return 4;
  if (dir == "crypto") return 5;
  if (dir == "mpc") return 6;
  if (dir == "core") return 7;
  return -1;
}

std::string layer_dir(const std::string& rel) {
  if (rel == "src/core/secrecy.h") return "annotations";
  if (rel.rfind("src/bigint/kernels/", 0) == 0) return "bigint/kernels";
  const std::size_t first = rel.find('/');
  if (first == std::string::npos) return rel;
  if (rel.rfind("tools/", 0) == 0) return "tools";
  const std::size_t second = rel.find('/', first + 1);
  return second == std::string::npos ? rel.substr(0, first)
                                     : rel.substr(first + 1,
                                                  second - first - 1);
}

std::string parent_dir(const std::string& rel) {
  const std::size_t slash = rel.rfind('/');
  return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

}  // namespace

void run_layering_analysis(const std::vector<LayerFile>& files,
                           const std::string& root,
                           std::vector<Finding>& out) {
  // Resolve quoted includes to repo-relative project paths: `-I src` style
  // first ("mpc/foo.h" -> src/mpc/foo.h), then tool-local relative paths.
  std::set<std::string> known;
  for (const LayerFile& f : files) known.insert(f.rel);
  const auto resolve = [&](const LayerFile& f,
                           const Include& inc) -> std::string {
    if (inc.angled) return "";  // system header
    const std::string rooted = "src/" + inc.target;
    if (known.count(rooted) != 0 ||
        fs::exists(fs::path(root) / rooted)) {
      return rooted;
    }
    const std::string local = parent_dir(f.rel).empty()
                                  ? inc.target
                                  : parent_dir(f.rel) + "/" + inc.target;
    if (known.count(local) != 0 || fs::exists(fs::path(root) / local)) {
      return local;
    }
    return "";
  };

  std::map<std::string, std::vector<std::pair<std::string, std::size_t>>>
      edges;  // file -> (included project file, line)
  for (const LayerFile& f : files) {
    const int rank = layer_rank(f.rel);
    if (f.rel == "src/core/secrecy.h") {
      for (const Include& inc : f.lex->includes) {
        out.push_back(
            {f.rel, inc.line, "PC010",
             "the annotation header must stay dependency-free (every layer "
             "includes it) but includes '" + inc.target + "'",
             false});
      }
      continue;
    }
    for (const Include& inc : f.lex->includes) {
      const std::string target = resolve(f, inc);
      if (target.empty()) continue;  // system or external header
      edges[f.rel].push_back({target, inc.line});
      if (rank < 0) continue;  // unranked includer: only cycles apply
      const int target_rank = layer_rank(target);
      if (target_rank < 0) continue;
      if (target_rank > rank) {
        out.push_back({f.rel, inc.line, "PC010",
                       "upward include: " + layer_dir(f.rel) + " (layer " +
                           std::to_string(rank) + ") must not include '" +
                           target + "' (" + layer_dir(target) + ", layer " +
                           std::to_string(target_rank) + ")",
                       false});
      } else if (target_rank == rank &&
                 layer_dir(target) != layer_dir(f.rel)) {
        out.push_back({f.rel, inc.line, "PC010",
                       "sideways include: " + layer_dir(f.rel) + " and " +
                           layer_dir(target) +
                           " sit in the same layer and must stay "
                           "independent ('" + target + "')",
                       false});
      }
    }
  }

  // Cycle detection (DFS, three-color).  Edges may point at files outside
  // the scanned set (e.g. a .h scanned while its includer set is partial);
  // only scanned files recurse.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        auto it = edges.find(node);
        if (it != edges.end()) {
          for (const auto& [next, line] : it->second) {
            const int c = color.count(next) != 0 ? color[next] : 0;
            if (c == 0 && edges.count(next) != 0) {
              dfs(next);
            } else if (c == 1) {
              // Found a cycle: the stack suffix from `next` to node.
              auto at = std::find(stack.begin(), stack.end(), next);
              std::vector<std::string> cycle(at, stack.end());
              std::sort(cycle.begin(), cycle.end());
              std::string key;
              std::string path;
              for (const std::string& s : cycle) key += s + "|";
              if (reported.insert(key).second) {
                for (auto member = at; member != stack.end(); ++member) {
                  path += *member + " -> ";
                }
                path += next;
                out.push_back({node, line, "PC010",
                               "include cycle: " + path, false});
              }
            }
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const auto& [node, _] : edges) {
    if (color.count(node) == 0 || color[node] == 0) dfs(node);
  }
}

}  // namespace pclint
