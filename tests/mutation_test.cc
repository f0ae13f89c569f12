/**
 * @file
 * Seeded mutation test over whole persistent images: LSCK checkpoints
 * of a small machine taken mid-traffic, and a cached Measurement
 * payload. Each mutant (a truncation, flipped bits, an overwritten
 * length field, or one image's head spliced onto another's tail) must
 * either be rejected with std::runtime_error or load into state that
 * re-saves to exactly the mutant's bytes. A crash, a hang or another
 * exception fails the test. The loaders are driven directly: the
 * SHA-256 trailer the cache adds would reject payload mutations before
 * any loader saw them.
 *
 * Running a restored mutant is out of scope: a flipped state that is
 * still in range can leave sections disagreeing with each other, which
 * no single section's loader can check.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "util/random.hh"
#include "util/serialize.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace machine {
namespace {

using Bytes = std::vector<std::uint8_t>;

MachineConfig
smallConfig(int shards)
{
    MachineConfig config;
    config.radix = 4;
    config.dims = 2; // 16 nodes
    config.contexts = 2;
    config.shards = shards;
    return config;
}

/** Makes seeded mutants of a set of images. */
class Mutator
{
  public:
    Mutator(std::vector<Bytes> images, std::uint64_t seed)
        : images_(std::move(images)), rng_(seed)
    {
    }

    /** The next mutant of image @p i; @p what names the mutation. */
    Bytes
    next(std::size_t i, std::string &what)
    {
        const Bytes &image = images_[i];
        Bytes out = image;
        switch (rng_.nextBounded(4)) {
          case 0: {
            const std::size_t keep = rng_.nextBounded(image.size());
            out.resize(keep);
            what = "truncated to " + std::to_string(keep);
            break;
          }
          case 1: {
            what = "flipped bits at";
            for (std::uint64_t k = 1 + rng_.nextBounded(4); k > 0; --k) {
                const std::size_t bit = rng_.nextBounded(image.size() * 8);
                out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
                what += " " + std::to_string(bit);
            }
            break;
          }
          case 2: {
            // A length field: a small little-endian u64 or u32, which
            // is what counts and indices look like.
            const std::size_t width = rng_.nextBool() ? 8 : 4;
            const std::size_t at = smallWordAt(image, width);
            static const std::uint64_t values[] = {
                0, 1, 2, 3, 255, 0xffff, 0x7fffffff, 0xffffffff,
                std::uint64_t{1} << 32, std::uint64_t{1} << 63,
                ~std::uint64_t{0}};
            std::uint64_t v = values[rng_.nextBounded(std::size(values))];
            if (rng_.nextBool())
                v = readWord(image, at, width) + (rng_.nextBool() ? 1 : -1);
            for (std::size_t b = 0; b < width; ++b)
                out[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
            what = "length at " + std::to_string(at) + " set to " +
                   std::to_string(v);
            break;
          }
          default: {
            // The head of this image, then the tail of any image.
            const Bytes &other = images_[rng_.nextBounded(images_.size())];
            const std::size_t cut = rng_.nextBool()
                                        ? 16 // the LSCK header
                                        : rng_.nextBounded(image.size());
            const std::size_t from = rng_.nextBounded(other.size());
            out.assign(image.begin(),
                       image.begin() + static_cast<std::ptrdiff_t>(cut));
            out.insert(out.end(),
                       other.begin() + static_cast<std::ptrdiff_t>(from),
                       other.end());
            what = "head " + std::to_string(cut) + " spliced onto tail " +
                   std::to_string(from);
            break;
          }
        }
        return out;
    }

  private:
    static std::uint64_t
    readWord(const Bytes &image, std::size_t at, std::size_t width)
    {
        std::uint64_t v = 0;
        for (std::size_t b = 0; b < width; ++b)
            v |= std::uint64_t{image[at + b]} << (8 * b);
        return v;
    }

    /** A random offset whose @p width-byte word is below 64, or any
     *  offset after 64 tries. */
    std::size_t
    smallWordAt(const Bytes &image, std::size_t width)
    {
        std::size_t at = 0;
        for (int tries = 0; tries < 64; ++tries) {
            at = rng_.nextBounded(image.size() - width + 1);
            if (readWord(image, at, width) < 64)
                break;
        }
        return at;
    }

    std::vector<Bytes> images_;
    util::Rng rng_;
};

/**
 * Feeds @p count mutants of @p images to @p resave, which loads a
 * mutant and returns the bytes its state re-saves to, or throws.
 * @return the number of mutants rejected.
 */
int
expectRejectedOrExact(const std::vector<Bytes> &images, int count,
                      std::uint64_t seed,
                      const std::function<Bytes(std::size_t, const Bytes &)>
                          &resave)
{
    Mutator mutator(images, seed);
    int rejected = 0;
    int mismatches = 0;
    std::string examples;
    for (int n = 0; n < count; ++n) {
        const std::size_t i = static_cast<std::size_t>(n) % images.size();
        std::string what;
        const Bytes mutant = mutator.next(i, what);
        Bytes saved;
        try {
            saved = resave(static_cast<std::size_t>(n), mutant);
        } catch (const std::runtime_error &) {
            ++rejected;
            continue;
        }
        if (saved != mutant && ++mismatches <= 5)
            examples += "\n  image " + std::to_string(i) + ", " + what;
    }
    EXPECT_EQ(mismatches, 0)
        << "mutants accepted that re-save to other bytes, such as"
        << examples;
    return rejected;
}

TEST(Mutation, CheckpointImagesAreRejectedOrRestoredExactly)
{
    const workload::Mapping mapping = workload::Mapping::identity(16);
    std::vector<Bytes> images;
    const std::uint64_t cycles[] = {701, 1203};
    for (int shards : {1, 2}) {
        Machine machine(smallConfig(shards), mapping);
        machine.advance(cycles[shards - 1]);
        ASSERT_GT(machine.network().inTransit().neighbor, 0u)
            << "the image at " << shards << " shards is not mid-traffic";
        images.push_back(machine.saveCheckpoint());
    }

    // One machine per shard count; a restore overwrites all state,
    // even over a restore that threw part-way.
    Machine one(smallConfig(1), mapping);
    Machine two(smallConfig(2), mapping);
    for (const Bytes &image : images) {
        two.restoreCheckpoint(image);
        ASSERT_EQ(two.saveCheckpoint(), image);
    }
    const int count = 20000;
    const int rejected = expectRejectedOrExact(
        images, count, 0x5eed, [&](std::size_t n, const Bytes &mutant) {
            Machine &machine = n % 4 < 2 ? one : two;
            machine.restoreCheckpoint(mutant);
            return machine.saveCheckpoint();
        });
    // Most mutants break a rule; a flipped statistic or tick does not.
    EXPECT_GT(rejected, count / 2);
    EXPECT_LT(rejected, count);
}

TEST(Mutation, MeasurementPayloadsAreRejectedOrLoadedExactly)
{
    const workload::Mapping mapping = workload::Mapping::identity(16);
    Machine machine(smallConfig(1), mapping);
    machine.advance(300);
    util::Serializer s;
    saveMeasurement(s, machine.measure(500));
    const int rejected = expectRejectedOrExact(
        {s.takeBuffer()}, 5000, 0xcafe,
        [](std::size_t, const Bytes &mutant) {
            util::Deserializer d(mutant);
            const Measurement m = loadMeasurement(d);
            if (!d.atEnd())
                util::Deserializer::fail("trailing payload bytes");
            util::Serializer out;
            saveMeasurement(out, m);
            return out.takeBuffer();
        });
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace machine
} // namespace locsim
