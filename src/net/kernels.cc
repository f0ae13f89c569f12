/**
 * @file
 * Scalar, SSE2 and AVX2 bodies of the router latch kernel.
 *
 * Every body computes the same result; see kernels.hh for the
 * concurrency contract that shapes the ranges. The compile-time
 * ceiling (LOCSIM_SIMD_MAX) drops bodies the configure option
 * excluded, and non-x86 targets compile only the scalar one.
 */

#include "net/kernels.hh"

#if defined(__x86_64__) && LOCSIM_SIMD_MAX >= 1
#include <immintrin.h>
#define LOCSIM_KERNELS_X86 1
#else
#define LOCSIM_KERNELS_X86 0
#endif

namespace locsim {
namespace net {
namespace kernels {

namespace {

using util::simd::Level;

// --- scalar body -----------------------------------------------------

void
latchBusyScalar(std::uint32_t *fws, std::uint32_t *fw,
                std::uint32_t *cws, std::uint32_t *cw,
                const std::uint32_t *buffered, std::size_t first,
                std::size_t last, std::uint8_t *out)
{
    for (std::size_t i = first; i < last; i += 8) {
        unsigned byte = 0;
        for (std::size_t j = 0; j < 8; ++j) {
            const std::size_t n = i + j;
            fw[n] |= fws[n];
            fws[n] = 0;
            cw[n] |= cws[n];
            cws[n] = 0;
            if ((buffered[n] | fw[n] | cw[n]) != 0)
                byte |= 1u << j;
        }
        out[(i - first) >> 3] = static_cast<std::uint8_t>(byte);
    }
}

#if LOCSIM_KERNELS_X86

// --- SSE2 body (x86-64 baseline, no target attribute needed) ---------

void
latchBusySse2(std::uint32_t *fws, std::uint32_t *fw,
              std::uint32_t *cws, std::uint32_t *cw,
              const std::uint32_t *buffered, std::size_t first,
              std::size_t last, std::uint8_t *out)
{
    const __m128i zero = _mm_setzero_si128();
    for (std::size_t i = first; i < last; i += 8) {
        unsigned byte = 0;
        for (std::size_t h = 0; h < 8; h += 4) {
            const std::size_t n = i + h;
            __m128i f = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(fw + n));
            f = _mm_or_si128(
                f, _mm_loadu_si128(
                       reinterpret_cast<const __m128i *>(fws + n)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(fw + n), f);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(fws + n),
                             zero);
            __m128i c = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(cw + n));
            c = _mm_or_si128(
                c, _mm_loadu_si128(
                       reinterpret_cast<const __m128i *>(cws + n)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(cw + n), c);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(cws + n),
                             zero);
            const __m128i b = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(buffered + n));
            const __m128i idle = _mm_cmpeq_epi32(
                _mm_or_si128(_mm_or_si128(f, c), b), zero);
            const auto idle_mask = static_cast<unsigned>(
                _mm_movemask_ps(_mm_castsi128_ps(idle)));
            byte |= (~idle_mask & 0xfu) << h;
        }
        out[(i - first) >> 3] = static_cast<std::uint8_t>(byte);
    }
}

#if LOCSIM_SIMD_MAX >= 2

// --- AVX2 body -------------------------------------------------------

[[gnu::target("avx2")]] void
latchBusyAvx2(std::uint32_t *fws, std::uint32_t *fw,
              std::uint32_t *cws, std::uint32_t *cw,
              const std::uint32_t *buffered, std::size_t first,
              std::size_t last, std::uint8_t *out)
{
    const __m256i zero = _mm256_setzero_si256();
    for (std::size_t i = first; i < last; i += 8) {
        __m256i f = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(fw + i));
        f = _mm256_or_si256(
            f, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i *>(fws + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(fw + i), f);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(fws + i),
                            zero);
        __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(cw + i));
        c = _mm256_or_si256(
            c, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i *>(cws + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(cw + i), c);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(cws + i),
                            zero);
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(buffered + i));
        const __m256i idle = _mm256_cmpeq_epi32(
            _mm256_or_si256(_mm256_or_si256(f, c), b), zero);
        const auto idle_mask = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(idle)));
        out[(i - first) >> 3] =
            static_cast<std::uint8_t>(~idle_mask & 0xffu);
    }
}

#endif // LOCSIM_SIMD_MAX >= 2
#endif // LOCSIM_KERNELS_X86

} // namespace

void
routerLatchBusy(std::uint32_t *flit_staged, std::uint32_t *flit_wake,
                std::uint32_t *credit_staged,
                std::uint32_t *credit_wake,
                const std::uint32_t *buffered, std::size_t first,
                std::size_t last, std::uint8_t *busy_bytes,
                Level level)
{
#if LOCSIM_KERNELS_X86
#if LOCSIM_SIMD_MAX >= 2
    if (level == Level::Avx2) {
        latchBusyAvx2(flit_staged, flit_wake, credit_staged,
                      credit_wake, buffered, first, last, busy_bytes);
        return;
    }
#endif
    if (level >= Level::Sse2) {
        latchBusySse2(flit_staged, flit_wake, credit_staged,
                      credit_wake, buffered, first, last, busy_bytes);
        return;
    }
#else
    (void)level;
#endif
    latchBusyScalar(flit_staged, flit_wake, credit_staged,
                    credit_wake, buffered, first, last, busy_bytes);
}

} // namespace kernels
} // namespace net
} // namespace locsim
