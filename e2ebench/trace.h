// Span tracing for the benchmark's traced run.
//
// The benchmark wraps its own calls into the library's public functions
// in spans (name, start, end, parent); the library itself is not
// instrumented. Spans are kept in memory — per-thread buffers owned by
// the tracer, so they outlive short-lived worker and reader threads —
// and written out when the run ends. Per (phase, name) aggregates are
// kept exactly for every span; raw spans are kept up to a cap.
//
// A span's self time is its duration minus the time its child spans (on
// the same thread) cover. When tracing is off, a span costs one relaxed
// atomic load.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Totals of every span with one (phase, name).
struct SpanAgg {
  uint64_t calls = 0;
  uint64_t items = 0;  ///< work items the spans declared (events, keys)
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Spans begun from now on are attributed to `phase` (one phase per
  /// stage run, so a layer's figures can be read per stage).
  void set_phase(int phase) { phase_.store(phase, std::memory_order_relaxed); }

  /// Stable id of a span name; call once per call site.
  int Intern(const char* name);

  void Begin(int name, uint64_t items);
  void End();

  /// Records a span whose ends were taken on different threads (the
  /// socket's enqueue -> handler-entry delivery): no parent, no children.
  void AddCompleted(int name, int64_t start_ns, int64_t end_ns,
                    uint64_t items = 1);

  /// Totals of `name` in `phase` over every thread.
  SpanAgg Aggregate(int phase, const std::string& name) const;

  struct NamedAgg {
    int phase;
    std::string name;
    SpanAgg agg;
  };
  /// Every (phase, name) pair with at least one span.
  std::vector<NamedAgg> AllAggregates() const;

  /// Writes the kept raw spans as TSV (id, parent, thread, phase, name,
  /// start_ns, end_ns, items). Returns false on an I/O error.
  bool WriteSpans(const std::string& path, uint64_t* written,
                  uint64_t* dropped) const;

 private:
  struct RawSpan {
    uint64_t id;
    uint64_t parent;  // 0 = none
    int64_t start_ns;
    int64_t end_ns;
    uint64_t items;
    int32_t name;
    int32_t phase;
  };
  struct Open {
    int name;
    int phase;
    uint64_t id;
    uint64_t items;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct ThreadBuf {
    int thread = 0;
    uint64_t next_id = 1;
    std::vector<Open> stack;
    std::vector<RawSpan> spans;
    // aggs[phase][name]
    std::vector<std::vector<SpanAgg>> aggs;
    SpanAgg& AggFor(int phase, int name);
  };

  ThreadBuf& Local();
  void Keep(ThreadBuf& buf, const RawSpan& span);

  static constexpr uint64_t kMaxKeptSpans = 1u << 20;

  std::atomic<bool> enabled_{false};
  std::atomic<int> phase_{0};
  std::atomic<uint64_t> kept_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards names_ and bufs_ (not their contents)
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span: a no-op unless tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(int name, uint64_t items = 1)
      : on_(Tracer::Get().enabled()) {
    if (on_) Tracer::Get().Begin(name, items);
  }
  ~ScopedSpan() {
    if (on_) Tracer::Get().End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

/// Interned span id for a string literal, resolved once per call site.
#define E2E_SPAN_ID(literal)                                  \
  ([]() {                                                     \
    static const int id = ::e2e::Tracer::Get().Intern(literal); \
    return id;                                                \
  }())

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
