// qf_check fixture: mutable-static / plain-bool-flag / atomic-ref-bool —
// long-lived shared state must be atomic, locked, thread_local or const.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/thread_annotations.hpp"

namespace fixture {

inline int config_lookup() {
  static int call_count = 0;  // FINDING: mutable-static
  return ++call_count;
}

inline bool first_time() {
  static bool seen = false;  // FINDING: plain-bool-flag
  seen = true;
  return seen;
}

inline std::uint64_t ok_statics() {
  static const int table_size = 64;                 // OK: const
  static std::atomic<std::uint64_t> hits{0};        // OK: atomic
  static qforest::Mutex registry_mutex;             // OK: internally sync
  static thread_local int scratch = 0;              // OK: thread_local
  (void)registry_mutex;
  scratch += table_size;
  return hits.fetch_add(1, std::memory_order_relaxed);  // mo: relaxed — tally
}

inline void flip_flags(std::vector<bool>& flags) {
  std::atomic_ref<bool> ref(flags[0]);  // FINDING: atomic-ref-bool
  ref.store(true);
}

inline int suppressed_static() {
  static int tuning_knob = 3;  // qf-allow(mutable-static): fixture exemption
  return tuning_knob;
}

}  // namespace fixture
