// Synthetic stand-in for the WorldCup'98 HTTP trace (paper §7).
//
// The original trace — 1.089 billion requests to the 1998 World Cup web
// site over 92 days, served by 33 mirrors, keyed by page URL — is not
// redistributable here, so we synthesize a trace with the statistical
// properties the ECM-sketch experiments actually exercise:
//
//  * heavy-tailed page popularity (web page references are classically
//    Zipf with exponent ≈ 0.85; Arlitt & Jin report strong concentration
//    on a small page set for wc'98 itself);
//  * diurnal arrival intensity (match-driven bursts + day/night cycle);
//  * load-balanced assignment of requests to the 33 server mirrors;
//  * millisecond timestamps over a configurable horizon.
//
// Sketch error/memory behaviour depends exactly on these properties (key
// skew, arrival ordering, in-window volume), so shape-level conclusions
// (EH vs DW vs RW, centralized vs distributed) carry over; absolute
// update-rate numbers naturally reflect our hardware, not the authors'.

#ifndef ECM_STREAM_WC98_LIKE_H_
#define ECM_STREAM_WC98_LIKE_H_

#include <cstdint>
#include <vector>

#include "src/stream/generators.h"

namespace ecm {

/// wc'98-like workload factory.
struct Wc98Config {
  uint64_t num_events = 2'000'000;  ///< scaled from the 1.089e9 original
  uint64_t domain = 90'000;         ///< distinct URLs (wc'98 had ~90k pages)
  double skew = 0.85;               ///< web-page popularity exponent
  uint32_t num_servers = 33;        ///< official wc'98 mirror count
  double events_per_ms = 1.0;       ///< mean arrival rate
  double diurnal_amplitude = 0.6;   ///< day/night swing
  uint64_t seed = 1998;
};

/// Materializes the full trace (sorted by timestamp by construction).
std::vector<StreamEvent> GenerateWc98Like(const Wc98Config& config);

}  // namespace ecm

#endif  // ECM_STREAM_WC98_LIKE_H_
