// Fixture for lint_test: a per-key record that boxes its commit callbacks.
// Linted as src/ring/metadata.h, where boxed-callback must fire on line 13.
// Never compiled into any target.
#include <cstdint>
#include <functional>
#include <vector>

namespace fixture {

struct MetaEntry {
  uint64_t version = 0;
  bool committed = false;
  std::vector<std::function<void()>> waiters;
};

}  // namespace fixture
