// One observation point of a distributed run (§5–§6): a counter-generic
// EcmSketch of the site's local stream, the synopsis a site ships to its
// coordinator. Range, quantile and heavy-hitter queries over one stream
// live in StreamEngine (engine/continuous.h), whose dyadic stack's level
// 0 is that stream's sketch.
//
// This header is deliberately slim: it carries no multi-threaded ingest
// driver, wire serialization or aggregation tree — those live in
// dist/runtime.h, which builds on this file. Exactly one ParallelIngest
// worker ever touches a site, so sites need no locks.

#ifndef ECM_DIST_SITE_H_
#define ECM_DIST_SITE_H_

#include <cstdint>

#include "src/core/ecm_sketch.h"
#include "src/dist/transport.h"
#include "src/stream/event.h"

namespace ecm {

/// One observation point of a distributed run: an id, a local
/// ECM-sketch of the site's stream and the count of arrivals it took.
template <SlidingWindowCounter Counter>
class Site {
 public:
  Site(NodeId id, const EcmConfig& config) : id_(id), sketch_(config) {}

  /// Registers one arrival at this site.
  void Ingest(uint64_t key, Timestamp ts, uint64_t count = 1) {
    sketch_.Add(key, ts, count);
    ++updates_;
  }

  /// Batched ingest: all events must belong to this site and arrive in
  /// timestamp order (any per-site subsequence of a stream qualifies).
  void IngestBatch(const StreamEvent* events, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      Ingest(events[i].key, events[i].ts, 1);
    }
  }

  NodeId id() const { return id_; }
  uint64_t updates() const { return updates_; }

  const EcmSketch<Counter>& sketch() const { return sketch_; }
  EcmSketch<Counter>& mutable_sketch() { return sketch_; }

 private:
  NodeId id_;
  EcmSketch<Counter> sketch_;
  uint64_t updates_ = 0;
};

}  // namespace ecm

#endif  // ECM_DIST_SITE_H_
