#include "src/common/cpus.h"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace srtree {

int AvailableCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(CPU_COUNT(&set), 1);
  }
#endif
  return std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
}

}  // namespace srtree
