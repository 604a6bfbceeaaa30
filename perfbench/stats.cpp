// pc-bench statistics and process accounting.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "bench.h"
#include "obs/clock.h"

namespace pcbench {

std::size_t Pass::queries() const {
  std::size_t n = 0;
  for (const RequestRecord& r : requests) n += r.labels.size();
  return n;
}

std::size_t Pass::failed() const {
  return static_cast<std::size_t>(
      std::count_if(requests.begin(), requests.end(),
                    [](const RequestRecord& r) { return r.failed; }));
}

std::size_t Pass::released() const {
  std::size_t n = 0;
  for (const RequestRecord& r : requests) {
    for (const std::optional<int>& label : r.labels) n += label.has_value();
  }
  return n;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::optional<Tail> tail(std::vector<double> v) {
  constexpr std::size_t kBeyond = 10;
  if (v.size() < 2 * kBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  Tail t;
  t.samples = v.size();
  t.beyond = kBeyond;
  t.value = v[v.size() - kBeyond - 1];
  t.percentile = 100.0 * static_cast<double>(v.size() - kBeyond) /
                 static_cast<double>(v.size());
  return t;
}

std::uint64_t now_ns() { return pcl::obs::monotonic_time_ns(); }

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: Linux keeps ru_maxrss across execve, so a
  // launcher larger than this process would be reported in its place.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace pcbench
