// qf_check fixture: detached-thread — a detached thread outlives its
// scope, races with static destruction and swallows exceptions; library
// threads are joined (the rank runtime) or owned by the pool.

#include <thread>

namespace fixture {

inline void fire_and_forget() {
  std::thread worker([] {});
  worker.detach();  // FINDING: detached-thread
}

inline void handed_off(std::thread& worker) {
  worker.detach();  // qf-allow(detached-thread): fixture exemption
}

inline void joined() {
  std::thread worker([] {});
  worker.join();  // OK: joined
}

}  // namespace fixture
