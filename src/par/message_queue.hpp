#pragma once
/// \file message_queue.hpp
/// \brief In-process rank shards with MPI-shaped message passing.
///
/// The sharded runtime under the simulated Communicator: every rank is a
/// worker thread owning one Mailbox (a lock-minimal MPSC queue), and ranks
/// talk exclusively through tagged byte-buffer messages — the same
/// source/tag matching the AMR algorithms would drive through MPI.
/// Layers:
///
///   Mailbox   unbounded multi-producer/single-consumer queue. The push
///             path is lock-free (one exchange + one store, the classic
///             Vyukov intrusive MPSC); the only lock is the sleep/wake
///             handshake of the blocking pop, entered when the queue runs
///             dry. An optional delivery delay models interconnect
///             latency so communication/computation overlap is measurable
///             in-process (there is no real network to hide otherwise).
///   RankGroup the fabric: one Mailbox per rank plus the abort flag that
///             unblocks every rank when one worker throws. run(fn) spawns
///             one thread per rank, joins all of them, and rethrows the
///             lowest-rank exception deterministically.
///   RankCtx   what \p fn receives: isend and a blocking recv with
///             (source, tag) matching — messages arriving ahead of their
///             recv park on an unexpected-message list, exactly MPI's
///             matching rule.
///
/// Threading contract: a Mailbox's pop side and a RankCtx belong to the
/// one thread run() created them on; push (via isend) is safe from any
/// rank thread.

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/thread_annotations.hpp"

namespace qforest::par {

/// Wildcards accepted by the matching receives.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// One tagged byte-buffer message between ranks.
struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::uint8_t> bytes;
};

/// Thrown out of blocking receives when another rank's worker failed and
/// the group was aborted; run() reports the original exception instead.
class RankAborted : public std::runtime_error {
 public:
  RankAborted() : std::runtime_error("qforest::par: rank group aborted") {}
};

/// Unbounded MPSC mailbox; see the file comment for the design.
class Mailbox {
 public:
  using clock = std::chrono::steady_clock;

  // mo: relaxed — single-threaded construction; no other thread can see
  // the mailbox before the constructor returns.
  Mailbox() : head_(new Node), tail_(head_.load(std::memory_order_relaxed)) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  ~Mailbox() {
    Node* n = tail_;
    while (n != nullptr) {
      // mo: relaxed — destruction requires producer quiescence (RankGroup
      // joins every worker first), so there is nothing to synchronize with.
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  /// Lock-free push (any thread): link the node, then take the (empty)
  /// wake lock so a consumer between its last emptiness check and its
  /// wait cannot miss the notify.
  void push(Message m, clock::time_point ready) {
    Node* node = new Node;
    node->msg = std::move(m);
    node->ready = ready;
    // mo: acq_rel — the exchange serializes concurrent producers on the
    // list head (each must see the true previous node to link after).
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    // mo: release — publishes the fully written node (msg, ready) to the
    // consumer's acquire load in advance().
    prev->next.store(node, std::memory_order_release);
    // Queue-depth tracking: the histogram max is the mailbox high-water
    // mark. The depth counter itself stays on (one relaxed RMW next to
    // the exchange above); the histogram is gated.
    // mo: relaxed — metrics-only depth estimate; carries no payload.
    const std::int64_t depth = depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (obs::metrics_enabled() && depth >= 0) {
      static obs::Histogram& h_depth =
          obs::histogram("par.msg.mailbox_depth");
      h_depth.record(static_cast<std::uint64_t>(depth));
    }
    { const LockGuard lock(wake_mutex_); }
    wake_cv_.notify_one();
  }

  /// Consumer-only nonblocking pop; ignores delivery delay (used by the
  /// destructor drain and by tests).
  bool try_pop(Message& out) { return advance(out) != nullptr; }

  /// Consumer-only blocking pop. Honors the message's delivery-ready
  /// time by sleeping after dequeue (the queue is FIFO, so the head is
  /// always the earliest-ready message of this mailbox). Throws
  /// RankAborted when \p aborted is set while the queue is dry.
  Message pop_blocking(const std::atomic<bool>& aborted) {
    Message m;
    if (!try_pop(m)) {
      UniqueLock lock(wake_mutex_);
      while (!try_pop(m)) {
        // mo: acquire — pairs with the release store in abort_all so the
        // unblocked consumer sees the group state that caused the abort.
        if (aborted.load(std::memory_order_acquire)) {
          throw RankAborted();
        }
        wake_cv_.wait(lock);
      }
    }
    if (pending_ready_ > clock::time_point::min()) {
      std::this_thread::sleep_until(pending_ready_);
      pending_ready_ = clock::time_point::min();
    }
    return m;
  }

  /// Wake a consumer blocked in pop_blocking (used by the group abort).
  void interrupt() {
    { const LockGuard lock(wake_mutex_); }
    wake_cv_.notify_all();
  }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    Message msg;
    clock::time_point ready = clock::time_point::min();
  };

  /// Vyukov consumer step: the payload lives in the *next* node, which
  /// becomes the new stub. Returns the dequeued node's address (already
  /// consumed) or nullptr when empty / a producer is mid-push.
  Node* advance(Message& out) {
    Node* tail = tail_;
    // mo: acquire — pairs with the producer's release store of next; the
    // dequeued node's payload writes become visible before it is read.
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      return nullptr;
    }
    out = std::move(next->msg);
    pending_ready_ = next->ready;
    tail_ = next;
    delete tail;
    // mo: relaxed — metrics-only depth estimate; carries no payload.
    depth_.fetch_sub(1, std::memory_order_relaxed);
    return next;
  }

  std::atomic<Node*> head_;  ///< producers append here
  Node* tail_;               ///< consumer-owned: current stub node
  std::atomic<std::int64_t> depth_{0};  ///< queued messages (metrics)
  clock::time_point pending_ready_ = clock::time_point::min();
  /// Sleep/wake handshake only — the queue itself is lock-free, so no
  /// field is guarded by it; middle tier of the lock hierarchy (pool <
  /// mailbox < registry). Producers take it empty-scoped before
  /// notifying so a consumer between its last emptiness check and its
  /// wait cannot miss the wakeup.
  Mutex wake_mutex_;
  CondVar wake_cv_;
};

class RankCtx;

/// The fabric connecting \p size rank shards; see the file comment.
class RankGroup {
 public:
  explicit RankGroup(int size) : boxes_(static_cast<std::size_t>(size)) {
    if (size < 1) {
      throw std::invalid_argument("RankGroup size must be positive");
    }
  }

  RankGroup(const RankGroup&) = delete;
  RankGroup& operator=(const RankGroup&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(boxes_.size()); }

  /// Simulated interconnect latency added to every message posted after
  /// the call: a message becomes receivable \p delay after its isend.
  void set_delivery_delay(std::chrono::microseconds delay) {
    // mo: relaxed — tuning knob; a racing isend may use either delay.
    delay_us_.store(delay.count(), std::memory_order_relaxed);
  }

  /// Post a message into \p to's mailbox (safe from any thread).
  void post(int from, int to, int tag, std::vector<std::uint8_t> bytes) {
    assert(from >= 0 && from < size() && to >= 0 && to < size());
    static obs::Counter& c_sends = obs::counter("par.msg.sends");
    static obs::Counter& c_send_bytes = obs::counter("par.msg.send_bytes");
    c_sends.add(1);
    c_send_bytes.add(bytes.size());
    // mo: relaxed — tuning knob; a racing isend may use either delay.
    const std::int64_t d = delay_us_.load(std::memory_order_relaxed);
    const auto ready = d > 0 ? Mailbox::clock::now() +
                                   std::chrono::microseconds(d)
                             : Mailbox::clock::time_point::min();
    boxes_[static_cast<std::size_t>(to)].push(
        Message{from, tag, std::move(bytes)}, ready);
  }

  [[nodiscard]] Mailbox& mailbox(int rank) {
    return boxes_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] const std::atomic<bool>& aborted() const { return aborted_; }

  /// Unblock every rank after a worker failure; their pending blocking
  /// receives throw RankAborted.
  void abort_all() {
    // mo: release — pairs with the acquire load in pop_blocking; the
    // failing rank's writes are visible to every unblocked consumer.
    aborted_.store(true, std::memory_order_release);
    for (auto& box : boxes_) {
      box.interrupt();
    }
  }

  /// Run \p fn(RankCtx&) once per rank. Size 1 runs inline on the
  /// calling thread (the fast path every single-rank caller hits);
  /// otherwise one std::thread per rank, all joined before returning.
  /// When workers throw, the lowest-rank non-abort exception is rethrown
  /// deterministically.
  template <class Fn>
  void run(Fn&& fn);

 private:
  std::vector<Mailbox> boxes_;
  std::atomic<bool> aborted_{false};
  std::atomic<std::int64_t> delay_us_{0};
};

/// Per-rank endpoint handed to RankGroup::run's worker function.
class RankCtx {
 public:
  RankCtx(RankGroup& group, int rank) : group_(group), rank_(rank) {}

  RankCtx(const RankCtx&) = delete;
  RankCtx& operator=(const RankCtx&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return group_.size(); }

  /// Tagged send; completes immediately (an in-process post).
  void isend(int to, int tag, std::vector<std::uint8_t> bytes) {
    group_.post(rank_, to, tag, std::move(bytes));
  }

  /// Blocking matching receive.
  Message recv(int from = kAnySource, int tag = kAnyTag) {
    Message m;
    if (take_unexpected(from, tag, m)) {
      return m;
    }
    for (;;) {
      m = pop_counted();
      if (matches(m, from, tag)) {
        return m;
      }
      unexpected_.push_back(std::move(m));
    }
  }

 private:
  static bool matches(const Message& m, int from, int tag) {
    return (from == kAnySource || m.source == from) &&
           (tag == kAnyTag || m.tag == tag);
  }

  bool take_unexpected(int from, int tag, Message& out) {
    for (std::size_t i = 0; i < unexpected_.size(); ++i) {
      if (matches(unexpected_[i], from, tag)) {
        out = std::move(unexpected_[i]);
        unexpected_.erase(unexpected_.begin() +
                          static_cast<std::ptrdiff_t>(i));
        static obs::Counter& c_hits = obs::counter("par.msg.unexpected_hits");
        c_hits.add(1);
        return true;
      }
    }
    return false;
  }

  /// Mailbox pop with arrival-side metrics: every dequeued message counts
  /// as one receive (matched or parked).
  Message pop_counted() {
    static obs::Counter& c_recvs = obs::counter("par.msg.recvs");
    static obs::Counter& c_recv_bytes = obs::counter("par.msg.recv_bytes");
    Message m = group_.mailbox(rank_).pop_blocking(group_.aborted());
    c_recvs.add(1);
    c_recv_bytes.add(m.bytes.size());
    return m;
  }

  RankGroup& group_;
  int rank_;
  std::vector<Message> unexpected_;  ///< arrived ahead of their receive
};

template <class Fn>
void RankGroup::run(Fn&& fn) {
  const int p = size();
  if (p == 1) {
    const ThreadRankScope rank_scope(0);
    RankCtx ctx(*this, 0);
    fn(ctx);
    return;
  }
  Mutex error_mutex;
  std::exception_ptr first_error;
  int error_rank = p;  // lowest failing rank wins, aborts rank at worst
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([this, &fn, &error_mutex, &first_error, &error_rank,
                          r] {
      try {
        const ThreadRankScope rank_scope(r);
        RankCtx ctx(*this, r);
        fn(ctx);
      } catch (const RankAborted&) {
        // Secondary failure: this rank was unblocked by abort_all after
        // another rank already threw; keep the original exception.
      } catch (...) {
        {
          const LockGuard lock(error_mutex);
          if (r < error_rank) {
            error_rank = r;
            first_error = std::current_exception();
          }
        }
        abort_all();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace qforest::par
