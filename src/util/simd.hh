/**
 * @file
 * The lane-vector kernel ISA level, fixed when the code is compiled.
 *
 * The hot-path kernels (net/kernels.hh) run at SSE2 on x86-64, where
 * SSE2 is the baseline ISA, and at the scalar reference level on
 * every other target; no runtime probe or knob selects between them.
 * Every kernel is bit-identical across levels by construction, so the
 * level is an execution detail — it never enters stats, checkpoints,
 * cache keys or stdout.
 */

#ifndef LOCSIM_UTIL_SIMD_HH_
#define LOCSIM_UTIL_SIMD_HH_

namespace locsim {
namespace util {
namespace simd {

/** ISA levels, ordered so numeric comparison means capability. */
enum class Level : int
{
    Off = 0,  //!< scalar reference body
    Sse2 = 1, //!< 128-bit kernels (x86-64 baseline)
};

/** The level kernels execute at: the compiled level. */
Level activeLevel();

/**
 * Force the active level (clamped to the compiled level). Test hook
 * for in-process scalar-vs-SIMD byte-identity checks; kernels read it
 * on every call.
 */
void setActiveLevelForTest(Level level);

/** Human-readable level name ("off", "sse2"). */
const char *levelName(Level level);

} // namespace simd
} // namespace util
} // namespace locsim

#endif // LOCSIM_UTIL_SIMD_HH_
