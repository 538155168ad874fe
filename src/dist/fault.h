// Deterministic fault injection for the distributed runtime.
//
// Every fault decision here is a pure function of (seed, node, index):
// FaultPlan hashes the coordinates through Mix64 and never consults the
// wall clock, thread timing or a stateful RNG, so a fault scenario is a
// *replayable unit test* — the same plan over the same message script
// injects byte-identical faults on every run, on every machine.
//
// Two consumers:
//  * FaultInjectingTransport — a decorator over any Transport (loopback
//    included) that drops, duplicates, bit-corrupts and delay-reorders
//    messages per the plan. This is the in-process harness: it lets the
//    aggregation-tree / propagation / monitoring substrates be tested
//    under faults without sockets.
//  * SocketTransport / CoordinatorServer (socket_transport.h) accept a
//    `const FaultPlan*` in their Options and apply the schedule at the
//    wire: payload bit-flips that the dist/serialize checksum must
//    catch, mid-stream connection severs that the in-transport
//    reconnect machinery must heal, and coordinator-side hello
//    refusals that simulate a partitioned site-set for a window.
//
// The retry side of the coin lives here too: BackoffPolicy +
// BackoffDelayMs give exponential backoff with *deterministic* jitter
// (hashed from the policy seed and attempt number), replacing fixed
// retry sleeps so reconnect storms decorrelate without sacrificing
// replayability.

#ifndef ECM_DIST_FAULT_H_
#define ECM_DIST_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "src/dist/network_stats.h"
#include "src/dist/transport.h"

namespace ecm {

// ---------------------------------------------------------------------------
// Retry/backoff policy
// ---------------------------------------------------------------------------

/// Exponential backoff with deterministic jitter. Delay for attempt k is
///   min(initial_ms * multiplier^k, max_ms) * (1 - jitter * u)
/// where u in [0,1) is hashed from (seed, attempt) — two transports with
/// different seeds decorrelate their retry storms, yet every run of one
/// transport retries on an identical schedule.
struct BackoffPolicy {
  uint64_t initial_ms = 10;   ///< delay before the first retry
  uint64_t max_ms = 2000;     ///< cap on the exponential growth
  double multiplier = 2.0;    ///< growth factor per attempt
  double jitter = 0.2;        ///< fraction of the delay randomized away
  uint64_t seed = 1;          ///< jitter hash seed
};

/// Pure: the delay before retry `attempt` (0-based) under `policy`.
uint64_t BackoffDelayMs(const BackoffPolicy& policy, uint32_t attempt);

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

/// What the plan does to one message.
enum class FaultAction : uint8_t {
  kNone = 0,
  kDrop = 1,       ///< message vanishes
  kDuplicate = 2,  ///< message delivered twice, back to back
  kCorrupt = 3,    ///< one payload bit flipped
  kDelay = 4,      ///< message held back and reordered behind later ones
  kSever = 5,      ///< (socket level) connection killed after the message
};

/// Declarative, seeded fault schedule. Probabilities are cumulative-checked
/// in the order drop, duplicate, corrupt, delay, sever against one uniform
/// draw per message, so they must sum to <= 1.
struct FaultPlanConfig {
  uint64_t seed = 1;

  double drop_p = 0.0;
  double duplicate_p = 0.0;
  double corrupt_p = 0.0;
  double delay_p = 0.0;
  double sever_p = 0.0;

  /// A delayed message is released after 1..max_delay_frames later
  /// messages from the same node have gone out.
  uint32_t max_delay_frames = 4;

  /// Every message from `node` with index in [from_frame, to_frame) is
  /// dropped — a one-sided link partition for that window.
  struct Partition {
    NodeId node = 0;
    uint64_t from_frame = 0;
    uint64_t to_frame = 0;
  };
  std::vector<Partition> partitions;

  /// The coordinator refuses `node`'s kHello attempts with index in
  /// [refuse_from, refuse_from + refuse_count) — the site sees its
  /// connections die until it has retried past the window (a
  /// coordinator-side partition in attempt space).
  struct HelloRefusal {
    NodeId node = 0;
    uint32_t refuse_from = 0;
    uint32_t refuse_count = 0;
  };
  std::vector<HelloRefusal> hello_refusals;
};

/// Immutable after construction; every method is const and pure, so one
/// plan may be shared by any number of transports and the server without
/// synchronization.
class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config);

  /// The action for message `frame_index` (0-based, per node) from
  /// `node`. Partition windows take precedence and report kDrop.
  FaultAction ActionFor(NodeId node, uint64_t frame_index) const;

  /// How many later messages a kDelay message waits behind (>= 1).
  uint32_t DelayFrames(NodeId node, uint64_t frame_index) const;

  /// Which bit of a `size`-byte message a kCorrupt action flips.
  /// Returns a bit offset in [0, size*8); 0 when size == 0.
  size_t CorruptBit(NodeId node, uint64_t frame_index, size_t size) const;

  /// True when [node, frame_index] falls inside a partition window.
  bool InPartition(NodeId node, uint64_t frame_index) const;

  /// True when the coordinator must refuse this hello attempt (0-based).
  bool RefuseHello(NodeId node, uint32_t attempt_index) const;

  const FaultPlanConfig& config() const { return config_; }

 private:
  /// Uniform [0,1) hashed from (seed, salt, node, index).
  double Uniform(uint64_t salt, NodeId node, uint64_t index) const;

  FaultPlanConfig config_;
};

// ---------------------------------------------------------------------------
// FaultInjectingTransport
// ---------------------------------------------------------------------------

/// Decorator over any Transport that applies a FaultPlan to every
/// message. Message indices are per `from` node, counted in call order —
/// with a deterministic caller script the injected faults are
/// byte-identical across runs (the acceptance invariant; see
/// fault_test.cc).
///
/// Semantics per action:
///  * kDrop / partition — the inner transport never sees the message
///    (stats() still charges it: the sender offered the traffic).
///  * kDuplicate — delivered twice back to back.
///  * kCorrupt — one bit (chosen by the plan) flipped in a copy of the
///    payload; an empty message has no bit to flip and passes through.
///  * kDelay — held until DelayFrames() later messages from the same
///    node have been sent, then delivered (reordering). FlushDelayed()
///    releases stragglers at end of script.
///  * kSever — meaningful only at the socket level; here it counts in
///    injection stats and delivers normally.
///
/// Thread-safe; decisions depend only on per-node call order.
class FaultInjectingTransport final : public Transport {
 public:
  /// Counts of injected faults, for assertions and logging.
  struct InjectionStats {
    uint64_t messages = 0;  ///< messages offered to the decorator
    uint64_t drops = 0;
    uint64_t duplicates = 0;
    uint64_t corrupts = 0;
    uint64_t delays = 0;
    uint64_t severs = 0;
    uint64_t partition_drops = 0;  ///< subset of drops from partitions
  };

  /// Neither pointer is owned; both must outlive the decorator.
  FaultInjectingTransport(Transport* inner, const FaultPlan* plan);

  void Send(NodeId from, NodeId to, const uint8_t* data,
            size_t size) override;

  /// Offered traffic (drops included), in the NetworkStats currency.
  NetworkStats stats() const override;

  /// Delivers every still-delayed message, in held order per node.
  void FlushDelayed();

  InjectionStats injection_stats() const;

 private:
  struct Delayed {
    NodeId from = 0;
    NodeId to = 0;
    std::vector<uint8_t> bytes;
    uint64_t release_index = 0;   ///< deliver once node passes this index
  };

  /// Delivers delayed messages of `from` due at `index` (mu_ held;
  /// unlocks around inner sends via the caller-provided lock).
  void ReleaseDueLocked(std::unique_lock<std::mutex>& lk, NodeId from,
                        uint64_t index);

  Transport* const inner_;
  const FaultPlan* const plan_;

  mutable std::mutex mu_;
  std::vector<std::pair<NodeId, uint64_t>> frame_counts_;
  std::deque<Delayed> delayed_;
  InjectionStats inj_;
  uint64_t offered_messages_ = 0;
  uint64_t offered_bytes_ = 0;
};

}  // namespace ecm

#endif  // ECM_DIST_FAULT_H_
