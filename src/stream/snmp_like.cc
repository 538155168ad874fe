#include "src/stream/snmp_like.h"

#include <cmath>

#include "src/util/hash.h"

namespace ecm {

SnmpStream::SnmpStream(const SnmpConfig& config)
    : config_(config),
      client_zipf_(config.domain, config.skew),
      ap_zipf_(config.num_aps, config.ap_load_skew),
      rng_(config.seed) {}

StreamEvent SnmpStream::Next() {
  double u = rng_.NextDouble();
  clock_ += -std::log(1.0 - u) / config_.events_per_ms;

  StreamEvent e;
  e.ts = static_cast<Timestamp>(std::ceil(clock_));
  e.key = client_zipf_.Sample(rng_);
  // A client's home AP is a deterministic, load-skewed function of the
  // client id; with roaming_prob the record appears at a random AP.
  if (rng_.Bernoulli(config_.roaming_prob)) {
    e.node = static_cast<uint32_t>(rng_.Uniform(config_.num_aps));
  } else {
    // Home AP: deterministic per client, drawn once from the load-skewed
    // AP popularity distribution (rank 1 = busiest AP).
    Rng client_rng(Mix64(e.key) ^ config_.seed);
    e.node = static_cast<uint32_t>(ap_zipf_.Sample(client_rng) - 1);
  }
  return e;
}

std::vector<StreamEvent> GenerateSnmpLike(const SnmpConfig& config) {
  return SnmpStream(config).Take(config.num_events);
}

}  // namespace ecm
