#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "util/log.hpp"
#include "util/thread_annotations.hpp"

namespace qforest::obs {
namespace {

/// One buffered event. Strings are literal pointers, never owned.
struct Event {
  std::int64_t ts_ns;
  std::int64_t dur_ns;
  const char* cat;
  const char* name;
  const char* k1;
  std::int64_t v1;
  const char* k2;
  std::int64_t v2;
  std::uint32_t tid;
};

/// Append-only event chunk. The owning thread writes events[used] and
/// then publishes with a release store of `used`; drains acquire-load
/// `used` (and `next`) and read only the published prefix, so no event
/// is ever read while being written.
struct Chunk {
  static constexpr std::size_t kCapacity = 512;
  std::array<Event, kCapacity> events{};
  std::atomic<std::size_t> used{0};
  std::atomic<Chunk*> next{nullptr};
};

/// Per-thread chunk chain. `cur` (the chain tail) is touched only by the
/// owning thread; readers walk from `head` through the published links.
/// The buffer owns the chunks chained after `head`.
struct ThreadBuffer {
  Chunk head;
  Chunk* cur = &head;

  ThreadBuffer() = default;
  ThreadBuffer(const ThreadBuffer&) = delete;
  ThreadBuffer& operator=(const ThreadBuffer&) = delete;
  ~ThreadBuffer() {
    // mo: relaxed — destroyed with the registry, after every emitter.
    Chunk* c = head.next.load(std::memory_order_relaxed);
    while (c != nullptr) {
      // mo: relaxed — as above.
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }
};

struct TraceRegistry {
  /// Guards buffer registration/recycling only — event emission goes to
  /// the owning thread's buffer through the atomic chunk fields. Top
  /// tier of the lock hierarchy (pool < mailbox < registry): nothing
  /// may be acquired while this is held.
  Mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers QF_GUARDED_BY(mutex);
  std::vector<ThreadBuffer*> free_list QF_GUARDED_BY(mutex);
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

TraceRegistry& registry() {
  static TraceRegistry r;  // qf-allow(mutable-static): mutex-protected registry; chunk fields are atomic
  return r;
}

/// Load-time gate init: QFOREST_TRACE=<non-empty, non-"0"> enables span
/// recording from the first instruction of main().
const bool g_env_init = [] {
  const char* e = std::getenv("QFOREST_TRACE");  // NOLINT(concurrency-mt-unsafe)
  if (e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0')) {
    // mo: relaxed — gate flag set before main(); readers only branch.
    detail::g_tracing_enabled.store(true, std::memory_order_relaxed);
  }
  return true;
}();

/// Synthetic Perfetto tids for threads outside any rank scope. Rank
/// workers use their rank id directly, so synthetic ids start high.
std::uint32_t synthetic_tid() {
  static std::atomic<std::uint32_t> next{1000};
  // mo: relaxed — unique-id allocation; only atomicity is needed.
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

std::uint32_t current_tid() {
  const int rank = thread_rank();
  return rank >= 0 ? static_cast<std::uint32_t>(rank) : synthetic_tid();
}

/// Returns a buffer from the free list (left behind by an exited thread;
/// its already-published events stay in place and the new owner appends
/// after them) or registers a fresh one.
ThreadBuffer* acquire_buffer() {
  TraceRegistry& reg = registry();
  const LockGuard lock(reg.mutex);
  if (!reg.free_list.empty()) {
    ThreadBuffer* b = reg.free_list.back();
    reg.free_list.pop_back();
    return b;
  }
  reg.buffers.push_back(std::make_unique<ThreadBuffer>());
  return reg.buffers.back().get();
}

/// Thread-exit hook: hand the buffer back so short-lived worker threads
/// (RankGroup spawns one per rank per run call) reuse chunks
/// instead of growing the registry without bound.
struct BufferHandle {
  ThreadBuffer* buf = nullptr;
  ~BufferHandle() {
    if (buf != nullptr) {
      TraceRegistry& reg = registry();
      const LockGuard lock(reg.mutex);
      reg.free_list.push_back(buf);
    }
  }
};

ThreadBuffer& local_buffer() {
  thread_local BufferHandle handle;
  if (handle.buf == nullptr) {
    handle.buf = acquire_buffer();
  }
  return *handle.buf;
}

void append_event(const Event& e) {
  ThreadBuffer& buf = local_buffer();
  Chunk* c = buf.cur;
  // mo: relaxed — used/next are written only by this owning thread; its
  // own writes are always visible to itself.
  std::size_t i = c->used.load(std::memory_order_relaxed);
  while (i == Chunk::kCapacity) {
    // mo: relaxed — owner-only read; see above.
    Chunk* n = c->next.load(std::memory_order_relaxed);
    if (n == nullptr) {
      n = new Chunk;
      // mo: release — publishes the zero-initialized chunk to draining
      // readers' acquire loads.
      c->next.store(n, std::memory_order_release);
    }
    buf.cur = n;
    c = n;
    // mo: relaxed — owner-only read; see above.
    i = c->used.load(std::memory_order_relaxed);
  }
  c->events[i] = e;
  // mo: release — publishes events[i] to the drain's acquire load of
  // used; no event is read while being written.
  c->used.store(i + 1, std::memory_order_release);
}

std::vector<Event> collect_events() {
  TraceRegistry& reg = registry();
  const LockGuard lock(reg.mutex);
  std::vector<Event> out;
  for (const auto& buf : reg.buffers) {
    // mo: acquire (next, used) — pairs with the owner's release stores;
    // the published prefix of each chunk is fully written before reading.
    for (const Chunk* c = &buf->head; c != nullptr;
         c = c->next.load(std::memory_order_acquire)) {
      const std::size_t used = c->used.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < used; ++i) {
        out.push_back(c->events[i]);
      }
    }
  }
  return out;
}

void append_args_json(std::string& out, const Event& e) {
  if (e.k1 == nullptr && e.k2 == nullptr) {
    return;
  }
  out += ",\"args\":{";
  if (e.k1 != nullptr) {
    out += "\"";
    out += e.k1;
    out += "\":" + std::to_string(e.v1);
  }
  if (e.k2 != nullptr) {
    if (e.k1 != nullptr) {
      out.push_back(',');
    }
    out += "\"";
    out += e.k2;
    out += "\":" + std::to_string(e.v2);
  }
  out.push_back('}');
}

}  // namespace

void set_tracing(bool on) {
  // mo: relaxed — gate flag; readers only branch on it.
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

std::int64_t trace_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - registry().epoch)
      .count();
}

void trace_complete(const char* cat, const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, const char* k1, std::int64_t v1,
                    const char* k2, std::int64_t v2) {
  if (!tracing_enabled()) {
    return;
  }
  Event e;
  e.ts_ns = start_ns;
  e.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  e.cat = cat;
  e.name = name;
  e.k1 = k1;
  e.v1 = v1;
  e.k2 = k2;
  e.v2 = v2;
  e.tid = current_tid();
  append_event(e);
}

std::size_t trace_event_count() {
  return collect_events().size();
}

std::string trace_json() {
  std::vector<Event> events = collect_events();
  // Time-sorted; on a start-time tie the longer (enclosing) span comes
  // first so viewers and the nesting validator see parents before
  // children.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.ts_ns != b.ts_ns) {
      return a.ts_ns < b.ts_ns;
    }
    if (a.dur_ns != b.dur_ns) {
      return a.dur_ns > b.dur_ns;
    }
    return a.tid < b.tid;
  });

  std::string out = "{\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
      "\"args\":{\"name\":\"qforest\"}}";

  std::vector<std::uint32_t> tids;
  tids.reserve(16);
  for (const Event& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  for (std::uint32_t tid : tids) {
    char line[160];
    if (tid < 1000) {
      std::snprintf(line, sizeof(line),
                    ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                    "\"tid\":%u,\"args\":{\"name\":\"rank %u\"}}",
                    tid, tid);
    } else {
      std::snprintf(line, sizeof(line),
                    ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                    "\"tid\":%u,\"args\":{\"name\":\"thread %u\"}}",
                    tid, tid - 1000);
    }
    out += line;
  }

  const std::int64_t t0 = events.empty() ? 0 : events.front().ts_ns;
  for (const Event& e : events) {
    char head[256];
    std::snprintf(head, sizeof(head),
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  e.name, e.cat, e.tid,
                  static_cast<double>(e.ts_ns - t0) / 1000.0,
                  static_cast<double>(e.dur_ns) / 1000.0);
    out += head;
    append_args_json(out, e);
    out.push_back('}');
  }
  out += "\n]}\n";
  return out;
}

bool write_trace_json(const char* path) {
  const std::string json = trace_json();
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    log_error("trace: cannot open %s for writing", path);
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    log_error("trace: short write to %s", path);
    return false;
  }
  return true;
}

bool write_trace_if_enabled(const char* path) {
  const std::size_t count = trace_event_count();
  if (count == 0) {
    return false;
  }
  if (!write_trace_json(path)) {
    return false;
  }
  log_info("trace: wrote %zu event(s) to %s", count, path);
  return true;
}

void clear_trace() {
  TraceRegistry& reg = registry();
  const LockGuard lock(reg.mutex);
  for (const auto& buf : reg.buffers) {
    // mo: acquire/release — clear walks the published chain and resets
    // each fill count with the same publish protocol the drains use
    // (callers guarantee emitter quiescence).
    for (Chunk* c = &buf->head; c != nullptr;
         c = c->next.load(std::memory_order_acquire)) {
      c->used.store(0, std::memory_order_release);
    }
  }
}

}  // namespace qforest::obs
