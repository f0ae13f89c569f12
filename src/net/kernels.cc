/**
 * @file
 * Scalar and SSE2 bodies of the router latch kernel.
 *
 * Both bodies compute the same result; see kernels.hh for the
 * concurrency contract that shapes the ranges. SSE2 is the x86-64
 * baseline, so it needs no target attribute or runtime probe; other
 * targets compile only the scalar body.
 */

#include "net/kernels.hh"

#include "util/simd.hh"

#if defined(__x86_64__)
#include <immintrin.h>
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

#if defined(__x86_64__)

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

#endif // __x86_64__

} // namespace

void
routerLatchBusy(std::uint32_t *flit_staged, std::uint32_t *flit_wake,
                std::uint32_t *credit_staged,
                std::uint32_t *credit_wake,
                const std::uint32_t *buffered, std::size_t first,
                std::size_t last, std::uint8_t *busy_bytes)
{
#if defined(__x86_64__)
    if (util::simd::activeLevel() == Level::Sse2) {
        latchBusySse2(flit_staged, flit_wake, credit_staged,
                      credit_wake, buffered, first, last, busy_bytes);
        return;
    }
#endif
    latchBusyScalar(flit_staged, flit_wake, credit_staged,
                    credit_wake, buffered, first, last, busy_bytes);
}

} // namespace kernels
} // namespace net
} // namespace locsim
