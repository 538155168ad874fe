#include "src/util/simd.h"

namespace ecm {

namespace {

SimdLevel ProbeCpu() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAVX2;
#endif
  return SimdLevel::kScalar;
}

}  // namespace

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level = ProbeCpu();
  return level;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAVX2:
      return "avx2";
  }
  return "scalar";
}

}  // namespace ecm
