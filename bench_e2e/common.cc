#include "common.h"

#include <dirent.h>
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>

namespace adprom::e2e {

uint64_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good();
}

std::map<int, TaskTimes> ReadTaskTimes() {
  std::map<int, TaskTimes> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                     "/schedstat");
    TaskTimes times;
    if (in >> times.cpu_ns >> times.wait_ns) {
      out[std::atoi(entry->d_name)] = times;
    }
  }
  closedir(dir);
  return out;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace adprom::e2e
