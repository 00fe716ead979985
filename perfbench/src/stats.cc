#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t Percentile(std::vector<uint64_t>* values, double p) {
  if (values->empty()) {
    return 0;
  }
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values->begin(), values->begin() + (rank - 1),
                   values->end());
  return (*values)[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double ScaleToReference(double host_ns, double kernel_ns, double nominal_ns) {
  return kernel_ns > 0 ? host_ns * nominal_ns / kernel_ns : host_ns;
}

double LocalKernelNs(const std::vector<double>& kernel_ns, size_t i,
                     size_t radius) {
  if (kernel_ns.empty()) {
    return 0;
  }
  const size_t lo = i > radius ? i - radius : 0;
  const size_t hi = std::min(kernel_ns.size(), i + radius + 1);
  return Median(std::vector<double>(kernel_ns.begin() + lo,
                                    kernel_ns.begin() + hi));
}

double ScaledTotalNs(const std::vector<double>& loop_ns,
                     const std::vector<double>& kernel_ns, size_t radius,
                     double nominal_ns) {
  double total = 0;
  for (size_t i = 0; i < loop_ns.size(); ++i) {
    total += ScaleToReference(loop_ns[i], LocalKernelNs(kernel_ns, i, radius),
                              nominal_ns);
  }
  return total;
}

}  // namespace perfbench
