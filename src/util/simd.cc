/**
 * @file
 * The compiled lane-vector level and its test override.
 */

#include "util/simd.hh"

#include <atomic>

namespace locsim {
namespace util {
namespace simd {

namespace {

#if defined(__x86_64__)
constexpr Level kCompiled = Level::Sse2;
#else
constexpr Level kCompiled = Level::Off;
#endif

std::atomic<Level> g_active{kCompiled};

} // namespace

Level
activeLevel()
{
    return g_active.load(std::memory_order_relaxed);
}

void
setActiveLevelForTest(Level level)
{
    g_active.store(level < kCompiled ? level : kCompiled,
                   std::memory_order_relaxed);
}

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Off:
        return "off";
      case Level::Sse2:
        return "sse2";
    }
    return "?";
}

} // namespace simd
} // namespace util
} // namespace locsim
