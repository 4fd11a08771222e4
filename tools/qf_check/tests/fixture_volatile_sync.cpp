// qf_check fixture: volatile-sync — volatile is not a synchronization
// primitive: it orders nothing between threads and makes no access
// atomic. A cross-thread flag or counter must be std::atomic.

namespace fixture {

volatile bool g_stop_requested = false;  // FINDING: volatile-sync

inline void spin_until_stopped() {
  while (!g_stop_requested) {
  }
}

inline int defeat_optimizer(int value) {
  volatile int sink = value;  // qf-allow(volatile-sync): fixture exemption
  return sink;
}

inline double float_sink(double value) {
  volatile double sink = value;  // OK: not an integral flag
  return sink;
}

}  // namespace fixture
