// Ablation: ECM-EH vs the equi-width-counter baseline (Hung & Ting /
// Dimitropoulos et al., §2).
//
// The paper's argument for exponential histograms over equi-width
// sub-windows is that equi-width counters "cannot provide any meaningful
// error guarantees, especially for small query ranges": a query boundary
// falling inside a sub-window is resolved by assuming arrivals are
// uniform within the slot, so any temporal burstiness inside a slot
// produces unbounded relative error. Two workloads demonstrate both
// sides:
//
//  1. smooth Poisson arrivals — the baseline's best case: its uniformity
//     assumption holds and it matches ECM-EH with less memory;
//  2. pulsed arrivals (bursts every few seconds, silence between) — the
//     realistic adversarial case: ECM-EH keeps its ε guarantee, the
//     equi-width estimate is off by orders of magnitude on ranges whose
//     boundary falls between pulses.

#include <cstdio>

#include "bench/baselines/baselines.h"
#include "bench/bench_common.h"
#include "src/core/ecm_sketch.h"
#include "src/util/random.h"

namespace ecm::bench {
namespace {

constexpr uint64_t kWindow = 1 << 17;
constexpr double kEpsilon = 0.1;

struct Sketches {
  EcmSketch<ExponentialHistogram> eh;
  EcmSketch<EquiWidthWindow> ew;
};

Sketches MakeSketches() {
  auto cfg =
      EcmConfig::Create(kEpsilon, 0.1, WindowMode::kTimeBased, kWindow, 53);
  return {EcmSketch<ExponentialHistogram>(*cfg),
          EcmSketch<EquiWidthWindow>(*cfg)};
}

void Compare(const char* title, const std::vector<StreamEvent>& events) {
  Sketches s = MakeSketches();
  for (const auto& e : events) {
    s.eh.Add(e.key, e.ts);
    s.ew.Add(e.key, e.ts);
  }
  Timestamp now = events.back().ts;
  PrintHeader(title,
              {"range", "EH_avg", "EH_max", "EQW_avg", "EQW_max",
               "EQW/EH_avg"});
  for (uint64_t range : ExponentialRanges(kWindow)) {
    ErrorSummary se = MeasurePointErrors(s.eh, events, now, range);
    ErrorSummary sw = MeasurePointErrors(s.ew, events, now, range);
    PrintRow({std::to_string(range), FormatDouble(se.avg),
              FormatDouble(se.max), FormatDouble(sw.avg),
              FormatDouble(sw.max),
              se.avg > 0 ? FormatDouble(sw.avg / se.avg, 1) : "inf"});
  }
  std::printf("memory: ECM-EH %zu bytes, equi-width %zu bytes\n",
              s.eh.MemoryBytes(), s.ew.MemoryBytes());
}

// Pulsed traffic: every key fires in short dense bursts separated by
// silence (think periodic sensor flushes or batched log shipping). The
// burst period is co-prime to the slot span, so query boundaries fall
// mid-slot between bursts.
std::vector<StreamEvent> PulsedEvents(uint64_t n, uint64_t seed) {
  std::vector<StreamEvent> events;
  events.reserve(n);
  Rng rng(seed);
  Timestamp t = 1;
  while (events.size() < n) {
    // 50-tick burst of ~200 events...
    Timestamp burst_end = t + 50;
    while (t < burst_end && events.size() < n) {
      events.push_back({t, rng.Uniform(200), 0});
      if (rng.Bernoulli(0.25)) ++t;
    }
    t += 4937;  // ...then silence (co-prime to the 6241-tick slot span)
  }
  return events;
}

// The §2 criticism in its sharpest form: a single counter fed pulsed
// arrivals, queried with boundaries sweeping through the silence gaps.
// Error here is relative to the true answer (the guarantee EH makes and
// equi-width cannot).
void CounterLevelShowdown() {
  constexpr uint64_t kSmallWindow = 100'000;
  ExponentialHistogram eh({kEpsilon, kSmallWindow});
  EquiWidthWindow ew({kSmallWindow, 10});  // 10k-tick slots
  // Qiao et al. hybrid: exact over the last 2k ticks, equi-width beyond.
  HybridHistogram hh({kSmallWindow, 2'000, 10});
  std::vector<Timestamp> stamps;
  // Burst of 1000 at the start of each 10k-tick slot, then silence.
  Timestamp t = 1;
  for (int pulse = 0; pulse < 10; ++pulse) {
    eh.Add(t, 1000);
    ew.Add(t, 1000);
    hh.Add(t, 1000);
    for (int i = 0; i < 1000; ++i) stamps.push_back(t);
    t += 10'000;
  }
  Timestamp now = t - 10'000 + 1;  // just after the last burst
  eh.Expire(now);
  ew.Expire(now);
  hh.Expire(now);

  PrintHeader(
      "single counter, pulsed mass, error relative to the true answer",
      {"range", "true", "EH_rel_err", "EQW_rel_err", "HYBRID_rel_err"});
  for (uint64_t range : {500u, 2000u, 5000u, 9000u, 15000u, 50000u}) {
    Timestamp boundary = WindowStart(now, range);
    uint64_t truth = 0;
    for (Timestamp s : stamps) {
      if (s > boundary && s <= now) ++truth;
    }
    auto rel = [&](double est) {
      return std::abs(est - static_cast<double>(truth)) /
             (static_cast<double>(truth) + 1.0);
    };
    PrintRow({std::to_string(range), std::to_string(truth),
              FormatDouble(rel(eh.Estimate(now, range)), 3),
              FormatDouble(rel(ew.Estimate(now, range)), 3),
              FormatDouble(rel(hh.Estimate(now, range)), 3)});
  }
  std::printf(
      "hybrid histogram (Qiao et al.): exact within its recent buffer "
      "(range <= 2000), equi-width failure beyond it — matching the "
      "paper's characterization of both baselines\n");
}

void Run() {
  {
    Wc98Config wc;
    wc.num_events = ScaledEvents(300'000);
    auto events = GenerateWc98Like(wc);
    Compare(
        "smooth Poisson arrivals (equi-width's best case), eps=0.1",
        events);
  }
  Compare("pulsed arrivals (bursts + silence), eps=0.1",
          PulsedEvents(ScaledEvents(300'000), 9));
  CounterLevelShowdown();
  std::printf(
      "\nexpected shape: near-parity on smooth traffic; on pulsed "
      "traffic the equi-width baseline drifts above ECM-EH; at the "
      "counter level its relative error explodes on ranges ending inside "
      "a slot (the 'no meaningful guarantee' failure of §2) while EH "
      "stays within epsilon\n");
}

}  // namespace
}  // namespace ecm::bench

int main(int argc, char** argv) {
  ecm::bench::ParseBenchArgs(argc, argv);
  ecm::bench::Run();
  return 0;
}
