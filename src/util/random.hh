/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * Uses xoshiro256++, a small, fast generator with excellent statistical
 * quality. Simulations must be reproducible, so every component that
 * needs randomness takes an explicit Rng (or a seed) rather than
 * touching global state.
 */

#ifndef LOCSIM_UTIL_RANDOM_HH_
#define LOCSIM_UTIL_RANDOM_HH_

#include <cstdint>
#include <vector>

#include "util/serialize.hh"

namespace locsim {
namespace util {

/**
 * xoshiro256++ pseudo-random number generator.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also
 * be used with <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed the generator. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    result_type operator()() { return next(); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Uniform integer in [0, bound), bound > 0, without modulo bias. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with success probability p. */
    bool nextBool(double p = 0.5);

    /** Uniformly shuffle a vector in place (Fisher-Yates). */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextBounded(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Serialize the generator state (checkpoint support). */
    void
    saveState(Serializer &s) const
    {
        for (std::uint64_t word : s_)
            s.put(word);
    }

    /** Restore state written by saveState(). */
    void
    loadState(Deserializer &d)
    {
        for (std::uint64_t &word : s_)
            word = d.get<std::uint64_t>();
    }

  private:
    std::uint64_t s_[4];
};

} // namespace util
} // namespace locsim

#endif // LOCSIM_UTIL_RANDOM_HH_
