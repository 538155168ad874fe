#include "src/util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace ecm {

namespace {

SimdLevel ProbeCpu() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAVX2;
#endif
  return SimdLevel::kScalar;
}

// -1 = no override; otherwise the forced SimdLevel. Relaxed atomics: the
// override is test/bench plumbing, and every tier computes identical
// results, so a racing reader picking either value is benign.
std::atomic<int> g_forced{-1};

// ECM_SIMD parsed once (first dispatch); -1 = unset/auto/unparseable.
int EnvLevel() {
  static const int level = [] {
    const char* e = std::getenv("ECM_SIMD");
    SimdLevel parsed;
    if (e != nullptr && ParseSimdLevel(e, &parsed) &&
        SimdLevelSupported(parsed)) {
      return static_cast<int>(parsed);
    }
    return -1;
  }();
  return level;
}

}  // namespace

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = ProbeCpu();
  return level;
}

bool SimdLevelSupported(SimdLevel level) {
  return level == SimdLevel::kScalar || level == DetectedSimdLevel();
}

SimdLevel ActiveSimdLevel() {
  int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  int env = EnvLevel();
  if (env >= 0) return static_cast<SimdLevel>(env);
  return DetectedSimdLevel();
}

bool ForceSimdLevel(SimdLevel level) {
  if (!SimdLevelSupported(level)) return false;
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

void ResetSimdLevel() { g_forced.store(-1, std::memory_order_relaxed); }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAVX2:
      return "avx2";
  }
  return "scalar";
}

bool ParseSimdLevel(const char* name, SimdLevel* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *out = SimdLevel::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = SimdLevel::kAVX2;
    return true;
  }
  return false;
}

}  // namespace ecm
