// Reference kernel: a fixed, program-independent CPU workload whose host
// time is the benchmark's yardstick for machine speed.
//
// The host this benchmark runs on drifts in speed by up to ~1.5x between and
// within runs. Host metrics are therefore reported at reference speed:
// host time x (kNominalKernelNs / kernel time measured nearby). The kernel
// mimics the simulator's own host profile (string-keyed hash-map and
// ordered-map churn with small allocations) but calls no program code, so a
// speed-up of the program never speeds up the yardstick.
#ifndef PERFBENCH_SRC_KERNEL_H_
#define PERFBENCH_SRC_KERNEL_H_

#include <cstdint>

namespace perfbench {

// Nominal host time of one kernel pass: what one pass takes on the
// reference machine (a 4-core x86-64 VM, RelWithDebInfo build). Scaled host
// metrics are in "reference seconds". Changing it rescales every host
// metric, so it is fixed for the life of the benchmark.
inline constexpr double kNominalKernelNs = 8.5e6;

// Runs one pass (the same work every time) and returns its host time in
// nanoseconds.
double RunKernelPass();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_KERNEL_H_
