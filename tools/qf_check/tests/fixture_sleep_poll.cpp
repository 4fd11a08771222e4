// qf_check fixture: sleep-poll — sleep_for / sleep_until inside a loop is
// a retry loop that burns latency and hides a missing wakeup; wait on a
// condition variable or a task future. Pins the loop tracker's edges:
// braced and braceless bodies, a do-while tail that is not a loop head,
// and a sleep outside any loop.

#include <atomic>
#include <chrono>
#include <thread>

namespace fixture {

inline void braced_loop(const std::atomic<bool>& ready) {
  while (!ready.load()) {
    if (ready.load()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // FINDING: sleep-poll
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // OK: loop closed
}

inline void braceless_body(int rounds) {
  for (int i = 0; i < rounds; ++i)
    std::this_thread::sleep_for(std::chrono::microseconds(i));  // FINDING: sleep-poll
  std::this_thread::sleep_for(std::chrono::microseconds(1));  // OK: body ended
}

inline void do_while_tail(const std::atomic<bool>& ready) {
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // FINDING: sleep-poll
  } while (!ready.load());
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // OK: tail is no head
}

inline void pace_once(std::chrono::steady_clock::time_point ready_at) {
  std::this_thread::sleep_until(ready_at);  // OK: not in a loop
}

inline void suppressed_backoff(const std::atomic<bool>& ready) {
  while (!ready.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));  // qf-allow(sleep-poll): fixture exemption
}

}  // namespace fixture
