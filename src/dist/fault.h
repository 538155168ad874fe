// Deterministic fault injection for the distributed runtime.
//
// Every fault decision here is a pure function of (seed, node, index):
// FaultPlan hashes the coordinates through Mix64 and never consults the
// wall clock, thread timing or a stateful RNG, so a fault scenario is a
// *replayable unit test* — the same plan over the same message script
// injects byte-identical faults on every run, on every machine.
//
// One FaultInjector turns the plan into effects — drops, byte-identical
// duplicates, payload bit-flips, delay-reordering and sever marks — and
// both transports apply the plan through it:
//  * FaultInjectingTransport — a decorator over any Transport (loopback
//    included). This is the in-process harness: it lets the
//    aggregation-tree / propagation / monitoring substrates be tested
//    under faults without sockets.
//  * SocketTransport (socket_transport.h) — feeds the injector its
//    application frames, flips payload bits before framing so the
//    dist/serialize checksum must catch them, and turns a sever mark into
//    a mid-stream connection kill that the in-transport reconnect
//    machinery must heal. CoordinatorServer takes the same plan for
//    coordinator-side hello refusals that simulate a partitioned site-set
//    for a window.
// The same plan over the same message script therefore injects the same
// faults through either transport (socket_transport_test pins this).
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
#include <mutex>
#include <utility>
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
// FaultInjector
// ---------------------------------------------------------------------------

/// Counts of injected faults, for assertions and logging.
struct InjectionStats {
  uint64_t messages = 0;  ///< messages offered to the injector
  uint64_t drops = 0;
  uint64_t duplicates = 0;
  uint64_t corrupts = 0;  ///< bits flipped; an empty message flips none
  uint64_t delays = 0;
  uint64_t severs = 0;
  uint64_t partition_drops = 0;  ///< subset of drops from partitions

  bool operator==(const InjectionStats&) const = default;
};

/// Applies a FaultPlan to a stream of outgoing messages: the one place a
/// FaultAction turns into an effect. `Message` is the transport's message
/// type; kCorrupt flips one bit of its `payload` byte vector. Message
/// indices count per node in Apply() order, so a deterministic caller
/// script injects byte-identical faults on every run.
///
/// Not thread-safe: the owning transport serializes calls.
template <typename Message>
class FaultInjector {
 public:
  /// A message that goes out now. `sever_after` marks a kSever message:
  /// a transport with a connection kills it right behind this one.
  struct Outgoing {
    Message message;
    bool sever_after = false;
  };

  /// `plan` is not owned and must outlive the injector.
  explicit FaultInjector(const FaultPlan* plan) : plan_(plan) {}

  /// Applies the plan to `node`'s next message and appends to `out`, in
  /// order, what goes out now:
  ///  * kDrop / partition — nothing;
  ///  * kDuplicate — the message twice, back to back;
  ///  * kCorrupt — the message with one payload bit flipped (an empty
  ///    payload has no bit to flip and passes unflipped and uncounted);
  ///  * kDelay — nothing yet: the message is held until DelayFrames()
  ///    later messages of `node` have been applied;
  ///  * kSever — the message, marked sever_after;
  ///  * kNone — the message.
  /// Then `node`'s held messages that are now due follow, in held order:
  /// behind the current one, which is the reordering kDelay stands for.
  void Apply(NodeId node, Message message, std::vector<Outgoing>* out) {
    const uint64_t index = NextIndex(node);
    ++stats_.messages;
    switch (plan_->ActionFor(node, index)) {
      case FaultAction::kDrop:
        ++stats_.drops;
        if (plan_->InPartition(node, index)) ++stats_.partition_drops;
        break;
      case FaultAction::kDuplicate:
        ++stats_.duplicates;
        out->push_back(Outgoing{message, false});
        out->push_back(Outgoing{std::move(message), false});
        break;
      case FaultAction::kCorrupt:
        if (!message.payload.empty()) {
          ++stats_.corrupts;
          const size_t bit =
              plan_->CorruptBit(node, index, message.payload.size());
          message.payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        out->push_back(Outgoing{std::move(message), false});
        break;
      case FaultAction::kDelay:
        ++stats_.delays;
        held_.push_back(Held{node, index + plan_->DelayFrames(node, index),
                             std::move(message)});
        break;
      case FaultAction::kSever:
        ++stats_.severs;
        out->push_back(Outgoing{std::move(message), true});
        break;
      case FaultAction::kNone:
        out->push_back(Outgoing{std::move(message), false});
        break;
    }
    for (auto it = held_.begin(); it != held_.end();) {
      if (it->node == node && it->release_index <= index) {
        out->push_back(Outgoing{std::move(it->message), false});
        it = held_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Appends every held message to `out`, in held order: delayed
  /// messages are reordered, never lost.
  void Flush(std::vector<Outgoing>* out) {
    for (Held& h : held_) out->push_back(Outgoing{std::move(h.message), false});
    held_.clear();
  }

  const InjectionStats& stats() const { return stats_; }

 private:
  struct Held {
    NodeId node = 0;
    uint64_t release_index = 0;  ///< due once `node` reaches this index
    Message message;
  };

  /// Returns `node`'s next message index and advances it.
  uint64_t NextIndex(NodeId node) {
    for (auto& [n, next] : next_index_) {
      if (n == node) return next++;
    }
    next_index_.emplace_back(node, 1);
    return 0;
  }

  const FaultPlan* const plan_;
  std::vector<std::pair<NodeId, uint64_t>> next_index_;
  std::vector<Held> held_;
  InjectionStats stats_;
};

// ---------------------------------------------------------------------------
// FaultInjectingTransport
// ---------------------------------------------------------------------------

/// Decorator over any Transport that applies a FaultPlan to every
/// message through a FaultInjector. Message indices are per `from` node,
/// counted in call order. Drops are still charged in stats(): the sender
/// offered the traffic. kSever has no connection to kill at this layer;
/// it counts in injection_stats() and delivers normally. FlushDelayed()
/// releases the held stragglers at end of script.
///
/// Thread-safe; decisions depend only on per-node call order. Inner sends
/// run outside the lock.
class FaultInjectingTransport final : public Transport {
 public:
  /// Neither pointer is owned; both must outlive the decorator.
  FaultInjectingTransport(Transport* inner, const FaultPlan* plan);

  void Send(NodeId from, NodeId to, const uint8_t* data,
            size_t size) override;

  /// Offered traffic (drops included), in the NetworkStats currency.
  NetworkStats stats() const override;

  /// Delivers every still-delayed message, in held order.
  void FlushDelayed();

  InjectionStats injection_stats() const;

 private:
  struct Message {
    NodeId from = 0;
    NodeId to = 0;
    std::vector<uint8_t> payload;
  };
  using Injector = FaultInjector<Message>;

  void Deliver(const std::vector<Injector::Outgoing>& out);

  Transport* const inner_;

  mutable std::mutex mu_;
  Injector injector_;
  uint64_t offered_bytes_ = 0;
};

}  // namespace ecm

#endif  // ECM_DIST_FAULT_H_
