// Small statistics helpers: nearest-rank percentiles, medians, and the
// reference-kernel scaling arithmetic.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (p in [0, 100]) of `values`; reorders them.
// Returns 0 for an empty vector.
uint64_t Percentile(std::vector<uint64_t>* values, double p);
double Median(std::vector<double> values);

// Host time at reference speed: `host_ns` measured while one kernel pass
// took `kernel_ns`, rescaled to what it would have been had the pass taken
// `nominal_ns`.
double ScaleToReference(double host_ns, double kernel_ns, double nominal_ns);

// Local machine-speed estimate for slice `i`: the median of the kernel
// passes within `radius` slices of it. One pass hit by a scheduling hiccup
// then does not distort the slice it sits next to.
double LocalKernelNs(const std::vector<double>& kernel_ns, size_t i,
                     size_t radius);

// Total scaled host time of a sequence of slices: sum over i of
// loop_ns[i] rescaled by LocalKernelNs(kernel_ns, i, radius).
double ScaledTotalNs(const std::vector<double>& loop_ns,
                     const std::vector<double>& kernel_ns, size_t radius,
                     double nominal_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
