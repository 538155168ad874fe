#include "e2ebench/trace.h"

#include <cstdio>

namespace e2e {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Intern(const char* name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.emplace_back(name);
  return static_cast<int>(names_.size() - 1);
}

SpanAgg& Tracer::ThreadBuf::AggFor(int phase, int name) {
  if (aggs.size() <= static_cast<size_t>(phase)) aggs.resize(phase + 1);
  std::vector<SpanAgg>& row = aggs[static_cast<size_t>(phase)];
  if (row.size() <= static_cast<size_t>(name)) row.resize(name + 1);
  return row[static_cast<size_t>(name)];
}

Tracer::ThreadBuf& Tracer::Local() {
  thread_local ThreadBuf* local = nullptr;
  if (local == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    std::lock_guard<std::mutex> lk(mu_);
    buf->thread = static_cast<int>(bufs_.size());
    local = buf.get();
    bufs_.push_back(std::move(buf));
  }
  return *local;
}

void Tracer::Keep(ThreadBuf& buf, const RawSpan& span) {
  if (kept_.fetch_add(1, std::memory_order_relaxed) < kMaxKeptSpans) {
    buf.spans.push_back(span);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Tracer::Begin(int name, uint64_t items) {
  ThreadBuf& buf = Local();
  buf.stack.push_back(Open{name, phase_.load(std::memory_order_relaxed),
                           buf.next_id++, items, NowNs(), 0});
}

void Tracer::End() {
  const int64_t end = NowNs();
  ThreadBuf& buf = Local();
  if (buf.stack.empty()) return;
  const Open open = buf.stack.back();
  buf.stack.pop_back();
  const int64_t dur = end - open.start_ns;
  SpanAgg& agg = buf.AggFor(open.phase, open.name);
  ++agg.calls;
  agg.items += open.items;
  agg.total_ns += dur;
  agg.self_ns += dur - open.child_ns;
  uint64_t parent = 0;
  if (!buf.stack.empty()) {
    buf.stack.back().child_ns += dur;
    parent = buf.stack.back().id;
  }
  Keep(buf, RawSpan{open.id, parent, open.start_ns, end, open.items,
                    open.name, open.phase});
}

void Tracer::AddCompleted(int name, int64_t start_ns, int64_t end_ns,
                          uint64_t items) {
  ThreadBuf& buf = Local();
  const int phase = phase_.load(std::memory_order_relaxed);
  const int64_t dur = end_ns - start_ns;
  SpanAgg& agg = buf.AggFor(phase, name);
  ++agg.calls;
  agg.items += items;
  agg.total_ns += dur;
  agg.self_ns += dur;
  Keep(buf, RawSpan{buf.next_id++, 0, start_ns, end_ns, items, name, phase});
}

SpanAgg Tracer::Aggregate(int phase, const std::string& name) const {
  SpanAgg out;
  std::lock_guard<std::mutex> lk(mu_);
  int id = -1;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) id = static_cast<int>(i);
  }
  if (id < 0) return out;
  for (const auto& buf : bufs_) {
    if (buf->aggs.size() <= static_cast<size_t>(phase)) continue;
    const auto& row = buf->aggs[static_cast<size_t>(phase)];
    if (row.size() <= static_cast<size_t>(id)) continue;
    const SpanAgg& a = row[static_cast<size_t>(id)];
    out.calls += a.calls;
    out.items += a.items;
    out.total_ns += a.total_ns;
    out.self_ns += a.self_ns;
  }
  return out;
}

std::vector<Tracer::NamedAgg> Tracer::AllAggregates() const {
  std::vector<NamedAgg> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& buf : bufs_) {
    for (size_t p = 0; p < buf->aggs.size(); ++p) {
      for (size_t n = 0; n < buf->aggs[p].size(); ++n) {
        const SpanAgg& a = buf->aggs[p][n];
        if (a.calls == 0) continue;
        NamedAgg* slot = nullptr;
        for (auto& e : out) {
          if (e.phase == static_cast<int>(p) && e.name == names_[n]) slot = &e;
        }
        if (slot == nullptr) {
          out.push_back(NamedAgg{static_cast<int>(p), names_[n], {}});
          slot = &out.back();
        }
        slot->agg.calls += a.calls;
        slot->agg.items += a.items;
        slot->agg.total_ns += a.total_ns;
        slot->agg.self_ns += a.self_ns;
      }
    }
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path, uint64_t* written,
                        uint64_t* dropped) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tthread\tphase\tname\tstart_ns\tend_ns\titems\n");
  uint64_t n = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& buf : bufs_) {
    for (const RawSpan& s : buf->spans) {
      char parent[48] = "-";
      if (s.parent != 0) {
        std::snprintf(parent, sizeof(parent), "%d.%llu", buf->thread,
                      static_cast<unsigned long long>(s.parent));
      }
      std::fprintf(f, "%d.%llu\t%s\t%d\t%d\t%s\t%lld\t%lld\t%llu\n",
                   buf->thread, static_cast<unsigned long long>(s.id), parent,
                   buf->thread, s.phase,
                   names_[static_cast<size_t>(s.name)].c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.items));
      ++n;
    }
  }
  *written = n;
  *dropped = dropped_.load(std::memory_order_relaxed);
  return std::fclose(f) == 0;
}

}  // namespace e2e
