/**
 * @file
 * xoshiro256++ implementation.
 *
 * Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
 * generators" (2019). Public-domain reference code re-implemented.
 */

#include "util/random.hh"

#include "util/logging.hh"

namespace locsim {
namespace util {

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** splitmix64 step, used for seed expansion. */
inline std::uint64_t
splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t x = seed_value;
    for (auto &word : s_)
        word = splitmix64(x);
    // A state of all zeros would be a fixed point; splitmix64 cannot
    // produce four zero outputs in a row, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    LOCSIM_ASSERT(bound > 0, "nextBounded requires bound > 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    // 53 high-quality bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

} // namespace util
} // namespace locsim
