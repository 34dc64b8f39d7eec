// How many CPUs this process may run on.

#ifndef SRTREE_COMMON_CPUS_H_
#define SRTREE_COMMON_CPUS_H_

namespace srtree {

// The CPUs in the process's affinity mask (sched_getaffinity), else
// std::thread::hardware_concurrency(); at least 1.
int AvailableCpus();

}  // namespace srtree

#endif  // SRTREE_COMMON_CPUS_H_
