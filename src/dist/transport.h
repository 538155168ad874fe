// The message substrate of the distributed runtime (§5–§6 deployment
// path): every site→coordinator or site→site transfer of the aggregation
// tree, the scheduled propagator and the geometric monitors goes through
// one Transport, so all three substrates charge the same NetworkStats
// currency — payload bytes of dist/serialize.h wire images (sketches) or
// raw double vectors (geometric syncs).
//
// Transport has one send form, Send(from, to, data, size), and every
// caller ships the real bytes of its message through it. Implementations
// that move bytes between processes (dist/socket_transport.h) put `data`
// on the wire verbatim; the in-process LoopbackTransport only counts it.
// Either way a message costs exactly `size` payload bytes, so loopback
// and socket runs of the same propagation script produce identical
// NetworkStats — the one-accounting-currency invariant.

#ifndef ECM_DIST_TRANSPORT_H_
#define ECM_DIST_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/dist/network_stats.h"

namespace ecm {

/// Logical node id inside one distributed runtime: sites are 0..n-1.
using NodeId = int;

/// The coordinator's node id.
inline constexpr NodeId kCoordinatorNode = -1;

/// Point-to-point message shipping with exact byte accounting. All
/// methods must be safe to call concurrently: ParallelIngest workers push
/// site-local traffic (scheduled-propagation snapshots) from their own
/// threads.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Ships one message carrying the `size` payload bytes at `data`.
  /// Implementations that move real bytes deliver them verbatim.
  virtual void Send(NodeId from, NodeId to, const uint8_t* data,
                    size_t size) = 0;

  /// Cumulative transfer volume across every message ever sent.
  virtual NetworkStats stats() const = 0;
};

/// In-process transport: sender and receiver share the process, so the
/// observable effect is the accounting. Counters are atomic — one
/// LoopbackTransport may be shared by all substrates of a run and by all
/// ParallelIngest workers.
class LoopbackTransport final : public Transport {
 public:
  void Send(NodeId from, NodeId to, const uint8_t* data,
            size_t size) override;
  NetworkStats stats() const override;

 private:
  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace ecm

#endif  // ECM_DIST_TRANSPORT_H_
