#include "src/stream/wc98_like.h"

namespace ecm {

std::vector<StreamEvent> GenerateWc98Like(const Wc98Config& config) {
  ZipfStream::Config zc;
  zc.domain = config.domain;
  zc.skew = config.skew;
  zc.num_nodes = config.num_servers;
  zc.events_per_tick = config.events_per_ms;
  zc.diurnal_amplitude = config.diurnal_amplitude;
  zc.diurnal_period = 86'400'000;  // one day of milliseconds
  zc.seed = config.seed;
  return ZipfStream(zc).Take(config.num_events);
}

}  // namespace ecm
