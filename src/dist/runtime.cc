#include "src/dist/runtime.h"

namespace ecm {

void LoopbackTransport::Send(NodeId /*from*/, NodeId /*to*/,
                             const uint8_t* /*data*/, size_t size) {
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(size, std::memory_order_relaxed);
}

NetworkStats LoopbackTransport::stats() const {
  NetworkStats s;
  s.messages = messages_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

void IngestBarrier::RequestSync() {
  std::lock_guard<std::mutex> lk(mu_);
  pending_ = true;
}

bool IngestBarrier::sync_pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_;
}

uint64_t IngestBarrier::rounds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rounds_;
}

void IngestBarrier::Leave() {
  std::lock_guard<std::mutex> lk(mu_);
  --active_;
  // Parked workers re-check "everyone checked in" against the reduced
  // head count; with no workers left a pending sync is drained by the
  // driver's final barrier instead.
  cv_.notify_all();
}

}  // namespace ecm
