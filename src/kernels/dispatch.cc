// Runtime kernel dispatch: probe the CPU once, honor HOSR_FORCE_SCALAR, and
// hand every hot path the same table for the life of the process.
#include "kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace hosr::kernels {

#ifdef HOSR_KERNELS_HAVE_AVX2
// Defined in avx2.cc (built with -mavx2 -mfma -mf16c) and avx512.cc (built
// with -mavx512f as well). Safe to *call* only after a CPUID check.
const KernelTable& Avx2Table();
const KernelTable& Avx2WideTileTable();
#endif

namespace {

bool CpuSupportsAvx2() {
#ifdef HOSR_KERNELS_HAVE_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

// Test-only override; null in production, so Active() costs one relaxed
// atomic load on top of the resolved function-local static.
std::atomic<const KernelTable*> g_active_override{nullptr};

void PublishLevel(const KernelTable& table) {
  HOSR_GAUGE("kernels/dispatch_level").Set(static_cast<double>(table.level));
}

}  // namespace

const KernelTable& Best() {
#ifdef HOSR_KERNELS_HAVE_AVX2
  if (CpuSupportsAvx2()) {
    return __builtin_cpu_supports("avx512f") ? Avx2WideTileTable()
                                             : Avx2Table();
  }
#endif
  return Scalar();
}

const KernelTable* EightLaneTable() {
#ifdef HOSR_KERNELS_HAVE_AVX2
  if (CpuSupportsAvx2()) return &Avx2Table();
#endif
  return nullptr;
}

bool ForcedScalar() {
  static const bool forced = [] {
    const char* value = std::getenv("HOSR_FORCE_SCALAR");
    return value != nullptr && *value != '\0' &&
           std::strcmp(value, "0") != 0;
  }();
  return forced;
}

const KernelTable& Active() {
  const KernelTable* override_table =
      g_active_override.load(std::memory_order_acquire);
  if (override_table != nullptr) return *override_table;
  static const KernelTable* resolved = [] {
    const KernelTable& table = ForcedScalar() ? Scalar() : Best();
    PublishLevel(table);
    return &table;
  }();
  return *resolved;
}

void SetActiveForTesting(const KernelTable* table) {
  g_active_override.store(table, std::memory_order_release);
  PublishLevel(table != nullptr ? *table : Active());
}

}  // namespace hosr::kernels
