// Synthetic stand-in for the CRAWDAD Dartmouth SNMP Fall'03/04 trace
// (paper §7): 134 million SNMP records from 535 wireless access points,
// keyed by (anonymized) client MAC address — the ECM-sketch estimates the
// per-user traffic volume.
//
// Reproduced properties (see wc98_like.h for the substitution rationale):
//  * heavy-tailed per-client volume (campus WLAN usage is strongly skewed;
//    a small population of heavy users dominates) — Zipf exponent ≈ 1.0;
//  * locality: a client's records concentrate at its "home" AP with
//    occasional roaming, so per-AP substreams have distinct key mixes
//    (unlike wc'98's load-balanced mirrors) — this is what makes the
//    distributed aggregation experiment non-trivial;
//  * heterogeneous AP load (library APs see orders of magnitude more
//    traffic than dorm-corner APs).

#ifndef ECM_STREAM_SNMP_LIKE_H_
#define ECM_STREAM_SNMP_LIKE_H_

#include <cstdint>
#include <vector>

#include "src/stream/generators.h"

namespace ecm {

/// snmp-like workload factory.
struct SnmpConfig {
  uint64_t num_events = 2'000'000;  ///< scaled from the 134e6 original
  uint64_t domain = 20'000;         ///< distinct client MACs
  double skew = 1.0;                ///< per-client volume exponent
  uint32_t num_aps = 535;           ///< Dartmouth AP count
  double roaming_prob = 0.2;        ///< P[record observed away from home AP]
  double ap_load_skew = 0.8;        ///< Zipf exponent of AP popularity
  double events_per_ms = 1.0;       ///< mean arrival rate
  uint64_t seed = 2003;
};

/// Pull-based snmp-like source.
class SnmpStream : public StreamSource {
 public:
  explicit SnmpStream(const SnmpConfig& config);

  StreamEvent Next() override;

 private:
  SnmpConfig config_;
  ZipfDistribution client_zipf_;
  ZipfDistribution ap_zipf_;
  Rng rng_;
  double clock_ = 1.0;
};

/// Materializes the full trace.
std::vector<StreamEvent> GenerateSnmpLike(const SnmpConfig& config);

}  // namespace ecm

#endif  // ECM_STREAM_SNMP_LIKE_H_
