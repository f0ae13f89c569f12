/**
 * @file
 * Unit tests for the util library: RNG, math helpers, tables, CSV,
 * option parsing, and the allocation-free steady-state containers
 * (Pool, RingQueue, FlatMap).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/arena.hh"
#include "util/csv.hh"
#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/math.hh"
#include "util/options.hh"
#include "util/pool.hh"
#include "util/random.hh"
#include "util/ring_queue.hh"
#include "util/serialize.hh"
#include "util/sha256.hh"
#include "util/table.hh"

namespace locsim {
namespace util {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.nextBounded(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, BoundedCoversAllValues)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(17);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(37);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(MathFitLine, RecoversExactLine)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(3.5 * x - 2.0);
    const LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 3.5, 1e-12);
    EXPECT_NEAR(fit.intercept, -2.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(MathFitLine, NoisyDataReasonableR2)
{
    Rng rng(41);
    std::vector<double> xs, ys;
    for (int i = 0; i < 200; ++i) {
        const double x = static_cast<double>(i);
        xs.push_back(x);
        ys.push_back(2.0 * x + 5.0 + (rng.nextDouble() - 0.5));
    }
    const LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 2.0, 0.01);
    EXPECT_NEAR(fit.intercept, 5.0, 0.5);
    EXPECT_GT(fit.r2, 0.999);
}

TEST(MathBisect, FindsSqrtTwo)
{
    const double root = bisect(
        [](double x) { return x * x - 2.0; }, 0.0, 2.0, 1e-12);
    EXPECT_NEAR(root, std::sqrt(2.0), 1e-10);
}

TEST(MathBisect, HandlesDecreasingFunction)
{
    const double root = bisect(
        [](double x) { return 5.0 - x; }, 0.0, 10.0, 1e-12);
    EXPECT_NEAR(root, 5.0, 1e-10);
}

TEST(MathQuadratic, TwoRootsSorted)
{
    double roots[2];
    // (x-1)(x-3) = x^2 -4x +3
    ASSERT_EQ(solveQuadratic(1.0, -4.0, 3.0, roots), 2);
    EXPECT_NEAR(roots[0], 1.0, 1e-12);
    EXPECT_NEAR(roots[1], 3.0, 1e-12);
}

TEST(MathQuadratic, LinearFallback)
{
    double roots[2];
    ASSERT_EQ(solveQuadratic(0.0, 2.0, -8.0, roots), 1);
    EXPECT_NEAR(roots[0], 4.0, 1e-12);
}

TEST(MathQuadratic, NoRealRoots)
{
    double roots[2];
    EXPECT_EQ(solveQuadratic(1.0, 0.0, 1.0, roots), 0);
}

TEST(MathQuadratic, NumericallyStableForSmallRoot)
{
    double roots[2];
    // Roots 1e-8 and 1e8: naive formula loses the small root.
    ASSERT_EQ(solveQuadratic(1.0, -(1e8 + 1e-8), 1.0, roots), 2);
    EXPECT_NEAR(roots[0], 1e-8, 1e-14);
    EXPECT_NEAR(roots[1], 1e8, 1.0);
}

TEST(TextTable, AlignsColumnsAndCountsRows)
{
    TextTable table({"name", "value"});
    table.newRow().cell("alpha").cell(1.25, 2);
    table.newRow().cell("b").cell(42ll);
    EXPECT_EQ(table.rows(), 2u);
    const std::string out = table.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.25"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Csv, EscapesSpecialCharacters)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("q\"uote"), "\"q\"\"uote\"");
    EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows)
{
    const std::string path = ::testing::TempDir() + "/locsim_csv_test.csv";
    {
        CsvWriter csv(path);
        csv.header({"x", "y"});
        csv.rowDoubles({1.0, 2.5}, 1);
        csv.row({"3", "4"});
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "x,y");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "1.0,2.5");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "3,4");
    std::remove(path.c_str());
}

TEST(Options, ParsesTypedValues)
{
    OptionParser opts("prog", "test");
    opts.addInt("count", "a count", 5);
    opts.addDouble("rate", "a rate", 0.5);
    opts.addString("name", "a name", "default");
    opts.addFlag("verbose", "chatty");

    const char *argv[] = {"prog", "--count", "10", "--rate=0.25",
                          "--verbose", "positional"};
    const auto rest = opts.parse(6, argv);

    EXPECT_EQ(opts.getInt("count"), 10);
    EXPECT_DOUBLE_EQ(opts.getDouble("rate"), 0.25);
    EXPECT_EQ(opts.getString("name"), "default");
    EXPECT_TRUE(opts.getFlag("verbose"));
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0], "positional");
}

TEST(Logging, LevelsGateMessages)
{
    const LogLevel original = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    LOCSIM_WARN("suppressed warning");   // must not crash
    LOCSIM_INFORM("suppressed info");
    LOCSIM_DEBUG("suppressed debug");
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(original);
}

TEST(LoggingDeathTest, AssertPanicsWithMessage)
{
    EXPECT_DEATH(LOCSIM_ASSERT(1 == 2, "math broke: ", 42),
                 "assertion failed.*math broke: 42");
}

TEST(MathDeathTest, BisectRequiresBracket)
{
    EXPECT_DEATH(bisect([](double) { return 1.0; }, 0.0, 1.0),
                 "opposite signs");
}

TEST(MathDeathTest, FitLineRejectsDegenerateInput)
{
    std::vector<double> one_x{1.0}, one_y{2.0};
    EXPECT_DEATH(fitLine(one_x, one_y), "at least two");
    std::vector<double> flat_x{3.0, 3.0}, ys{1.0, 2.0};
    EXPECT_DEATH(fitLine(flat_x, ys), "degenerate");
}

TEST(OptionsDeathTest, RejectsBadInput)
{
    auto parse = [](std::vector<const char *> argv) {
        OptionParser opts("prog", "test");
        opts.addInt("count", "a count", 5);
        opts.addFlag("fast", "go fast");
        opts.parse(static_cast<int>(argv.size()), argv.data());
    };
    EXPECT_DEATH(parse({"prog", "--bogus", "1"}), "unknown option");
    EXPECT_DEATH(parse({"prog", "--count", "abc"}),
                 "expects an integer");
    EXPECT_DEATH(parse({"prog", "--count"}), "requires a value");
    EXPECT_DEATH(parse({"prog", "--fast=1"}), "takes no value");
    EXPECT_DEATH(parse({"prog", "--count", "99999999999999999999"}),
                 "out of range");
    EXPECT_DEATH(parse({"prog", "--count=-99999999999999999999"}),
                 "out of range");
    // In range for getInt, but not for int: getInt32 refuses to wrap.
    auto int32 = [](const char *value) {
        OptionParser opts("prog", "test");
        opts.addInt("radix", "a radix", 8);
        const char *argv[] = {"prog", "--radix", value};
        opts.parse(3, argv);
        return opts.getInt32("radix");
    };
    EXPECT_EQ(int32("-2147483648"), -2147483647 - 1);
    EXPECT_DEATH(int32("4294967300"),
                 "--radix is out of range, got 4294967300");
    EXPECT_DEATH(int32("-2147483649"), "out of range");
    // Unsigned counts: negative values and values below the floor are
    // fatal instead of wrapping to huge budgets.
    auto uint64 = [](const char *value, std::uint64_t min) {
        OptionParser opts("prog", "test");
        opts.addInt("cycles", "a budget", 10);
        const char *argv[] = {"prog", "--cycles", value};
        opts.parse(3, argv);
        return opts.getUint64("cycles", min);
    };
    EXPECT_EQ(uint64("0", 0), 0u);
    EXPECT_EQ(uint64("9223372036854775807", 1),
              9223372036854775807ull);
    EXPECT_DEATH(uint64("-1", 0), "--cycles must be >= 0, got -1");
    EXPECT_DEATH(uint64("-5", 1), "--cycles must be >= 1, got -5");
    EXPECT_DEATH(uint64("0", 1), "--cycles must be >= 1, got 0");
}

TEST(OptionsDeathTest, EnvKnobIsStrict)
{
    // The one reader behind LOCSIM_SHARDS and LOCSIM_THREADS: unset or
    // empty keeps the default; anything but a positive int is fatal.
    const char *name = "LOCSIM_TEST_ENV_KNOB";
    auto read = [name](const char *value) {
        ::setenv(name, value, 1);
        return envPositiveInt(name, 7);
    };
    ::unsetenv(name);
    EXPECT_EQ(envPositiveInt(name, 7), 7);
    EXPECT_EQ(read(""), 7);
    EXPECT_EQ(read("3"), 3);
    EXPECT_DEATH(read("2x"), "LOCSIM_TEST_ENV_KNOB must be a positive "
                             "integer, got '2x'");
    EXPECT_DEATH(read("abc"), "must be a positive integer");
    EXPECT_DEATH(read("0"), "must be a positive integer");
    EXPECT_DEATH(read("-2"), "must be a positive integer");
    EXPECT_DEATH(read("4294967298"), "must be a positive integer");
    ::unsetenv(name);
}

TEST(Options, UsageMentionsAllOptions)
{
    OptionParser opts("prog", "test");
    opts.addInt("count", "a count", 5);
    opts.addFlag("fast", "go fast");
    const std::string usage = opts.usage();
    EXPECT_NE(usage.find("--count"), std::string::npos);
    EXPECT_NE(usage.find("--fast"), std::string::npos);
    EXPECT_NE(usage.find("default: 5"), std::string::npos);
}

TEST(Serialize, IntegralWidthsRoundTrip)
{
    Serializer s;
    s.put(std::uint8_t{0xab});
    s.put(std::uint16_t{0xbeef});
    s.put(std::uint32_t{0xdeadbeef});
    s.put(std::uint64_t{0x0123456789abcdefull});
    s.put(std::int32_t{-12345});
    s.put(std::int64_t{-1});
    s.put(true);
    s.put(false);
    Deserializer d(s.buffer());
    EXPECT_EQ(d.get<std::uint8_t>(), 0xab);
    EXPECT_EQ(d.get<std::uint16_t>(), 0xbeef);
    EXPECT_EQ(d.get<std::uint32_t>(), 0xdeadbeefu);
    EXPECT_EQ(d.get<std::uint64_t>(), 0x0123456789abcdefull);
    EXPECT_EQ(d.get<std::int32_t>(), -12345);
    EXPECT_EQ(d.get<std::int64_t>(), -1);
    EXPECT_TRUE(d.getBool());
    EXPECT_FALSE(d.getBool());
    EXPECT_TRUE(d.atEnd());
}

TEST(Serialize, EnumsRoundTripViaUnderlyingType)
{
    enum class Color : std::uint16_t { Red = 1, Blue = 700 };
    Serializer s;
    s.put(Color::Blue);
    s.put(Color::Red);
    EXPECT_EQ(s.buffer().size(), 4u); // two uint16 payloads
    Deserializer d(s.buffer());
    EXPECT_EQ(d.getEnum(Color::Blue), Color::Blue);
    EXPECT_EQ(d.getEnum(Color::Blue), Color::Red);
}

/** The bytes Serializer::put writes for @p values, in order. */
template <typename... T>
std::vector<std::uint8_t>
bytesOf(T... values)
{
    Serializer s;
    (s.put(values), ...);
    return s.takeBuffer();
}

/** True if @p read throws std::runtime_error on a Deserializer over
 *  @p bytes. */
template <typename Read>
bool
rejects(const std::vector<std::uint8_t> &bytes, Read read)
{
    Deserializer d(bytes);
    try {
        read(d);
    } catch (const std::runtime_error &) {
        return true;
    }
    return false;
}

TEST(Serialize, GetEnumRejectsValuesPastTheLast)
{
    enum class Kind : std::uint8_t { A, B, C };
    enum class Wide { X, Y }; // int underneath: negatives are invalid
    const std::vector<std::uint8_t> bytes = bytesOf(std::uint8_t{2}, 1);
    Deserializer d(bytes);
    EXPECT_EQ(d.getEnum(Kind::C), Kind::C);
    EXPECT_EQ(d.getEnum(Wide::Y), Wide::Y);

    auto kind = [](Deserializer &r) { r.getEnum(Kind::C); };
    auto wide = [](Deserializer &r) { r.getEnum(Wide::Y); };
    EXPECT_TRUE(rejects(bytesOf(std::uint8_t{3}), kind));
    EXPECT_TRUE(rejects(bytesOf(std::uint8_t{255}), kind));
    EXPECT_TRUE(rejects(bytesOf(2), wide));
    EXPECT_TRUE(rejects(bytesOf(-1), wide));
    EXPECT_TRUE(rejects({}, kind));
    EXPECT_TRUE(rejects({1, 0, 0}, wide)); // cut short
}

TEST(Serialize, GetBelowRejectsIndicesOutsideTheBound)
{
    const std::vector<std::uint8_t> bytes =
        bytesOf(std::uint32_t{9}, 9, std::int8_t{0});
    Deserializer d(bytes);
    EXPECT_EQ(d.getBelow<std::uint32_t>(10u), 9u);
    EXPECT_EQ(d.getBelow<int>(std::size_t{10}), 9);
    EXPECT_EQ(d.getBelow<std::int8_t>(1), 0);

    auto u32 = [](Deserializer &r) { r.getBelow<std::uint32_t>(10); };
    auto i32 = [](Deserializer &r) { r.getBelow<int>(std::size_t{10}); };
    EXPECT_TRUE(rejects(bytesOf(std::uint32_t{10}), u32));
    EXPECT_TRUE(rejects(bytesOf(std::uint32_t{0xffffffffu}), u32));
    EXPECT_TRUE(rejects(bytesOf(10), i32));
    EXPECT_TRUE(rejects(bytesOf(-1), i32));
    EXPECT_TRUE(rejects(bytesOf(std::numeric_limits<int>::min()), i32));
    EXPECT_TRUE(rejects(bytesOf(std::int8_t{-1}), [](Deserializer &r) {
        r.getBelow<std::int8_t>(4);
    }));
    EXPECT_TRUE(rejects(bytesOf(std::uint32_t{0}), [](Deserializer &r) {
        r.getBelow<std::uint32_t>(0); // an empty range holds nothing
    }));
    EXPECT_TRUE(rejects({0, 0, 0}, u32)); // cut short
}

TEST(Serialize, GetBelowOrLetsTheNoneValueThrough)
{
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    const std::vector<std::uint8_t> bytes =
        bytesOf(std::uint32_t{3}, kNone, std::int8_t{-1});
    Deserializer d(bytes);
    EXPECT_EQ(d.getBelowOr(4u, kNone), 3u);
    EXPECT_EQ(d.getBelowOr(4u, kNone), kNone);
    EXPECT_EQ(d.getBelowOr<std::int8_t>(6, -1), -1);

    EXPECT_TRUE(rejects(bytesOf(std::uint32_t{4}), [&](Deserializer &r) {
        r.getBelowOr(4u, kNone);
    }));
    EXPECT_TRUE(rejects(bytesOf(std::int8_t{-2}), [](Deserializer &r) {
        r.getBelowOr<std::int8_t>(6, -1);
    }));
    EXPECT_TRUE(rejects(bytesOf(std::int8_t{6}), [](Deserializer &r) {
        r.getBelowOr<std::int8_t>(6, -1);
    }));
    EXPECT_TRUE(rejects({}, [](Deserializer &r) {
        r.getBelowOr<std::int8_t>(6, -1);
    }));
}

TEST(Serialize, GetBoolRejectsBytesOtherThanZeroAndOne)
{
    const std::vector<std::uint8_t> bytes =
        bytesOf(std::uint8_t{0}, std::uint8_t{1});
    Deserializer d(bytes);
    EXPECT_FALSE(d.getBool());
    EXPECT_TRUE(d.getBool());

    auto get = [](Deserializer &r) { r.getBool(); };
    EXPECT_TRUE(rejects({2}, get));
    EXPECT_TRUE(rejects({255}, get));
    EXPECT_TRUE(rejects({}, get));
}

TEST(Serialize, GetAfterRejectsKeysThatDoNotAscend)
{
    std::uint64_t key = 99; // ignored by the first read
    const std::vector<std::uint8_t> bytes =
        bytesOf(std::uint64_t{0}, std::uint64_t{5});
    Deserializer d(bytes);
    EXPECT_EQ(d.getAfter(key, true), 0u);
    EXPECT_EQ(d.getAfter(key, false), 5u);
    EXPECT_EQ(key, 5u);

    auto second = [](Deserializer &r) {
        std::uint64_t prev = 0;
        r.getAfter(prev, true);
        r.getAfter(prev, false);
    };
    EXPECT_TRUE(rejects(bytesOf(std::uint64_t{5}, std::uint64_t{5}),
                        second));
    EXPECT_TRUE(rejects(bytesOf(std::uint64_t{5}, std::uint64_t{4}),
                        second));
    EXPECT_TRUE(rejects(bytesOf(std::uint64_t{5}), second)); // cut short
}

TEST(Serialize, DoublesAreBitExact)
{
    const double values[] = {0.0, -0.0, 1.0 / 3.0, 6.02214076e23,
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min()};
    Serializer s;
    for (double v : values)
        s.putDouble(v);
    Deserializer d(s.buffer());
    for (double v : values) {
        const double got = d.getDouble();
        std::uint64_t vb, gb;
        std::memcpy(&vb, &v, sizeof vb);
        std::memcpy(&gb, &got, sizeof gb);
        EXPECT_EQ(gb, vb);
    }
}

TEST(Serialize, StringsRoundTrip)
{
    Serializer s;
    s.putString("");
    s.putString("hello");
    s.putString(std::string("nul\0inside", 10));
    Deserializer d(s.buffer());
    EXPECT_EQ(d.getString(), "");
    EXPECT_EQ(d.getString(), "hello");
    EXPECT_EQ(d.getString(), std::string("nul\0inside", 10));
    EXPECT_TRUE(d.atEnd());
}

TEST(Serialize, TruncatedBufferThrows)
{
    Serializer s;
    s.put(std::uint64_t{7});
    std::vector<std::uint8_t> bytes = s.buffer();
    bytes.pop_back();
    Deserializer d(bytes);
    EXPECT_THROW(d.get<std::uint64_t>(), std::runtime_error);
}

TEST(Sha256, KnownVectors)
{
    // FIPS 180-2 test vectors.
    EXPECT_EQ(Sha256::hashHex({}),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    const std::vector<std::uint8_t> abc = {'a', 'b', 'c'};
    EXPECT_EQ(Sha256::hashHex(abc),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    // Incremental absorption matches one-shot hashing.
    Sha256 h;
    h.update("a", 1);
    h.update("bc", 2);
    EXPECT_EQ(h.hexDigest(), Sha256::hashHex(abc));
}

TEST(Arena, MakeConstructsAndCountsObjects)
{
    Arena arena;
    int *a = arena.make<int>(41);
    double *b = arena.make<double>(2.5);
    EXPECT_EQ(*a, 41);
    EXPECT_EQ(*b, 2.5);
    *a += 1;
    EXPECT_EQ(*a, 42);
    EXPECT_EQ(arena.objectCount(), 2u);
    EXPECT_GE(arena.bytesAllocated(), sizeof(int) + sizeof(double));
}

TEST(Arena, RunsFinalizersInReverseOrder)
{
    struct Tracked
    {
        explicit Tracked(std::vector<int> &log, int id)
            : log_(log), id_(id)
        {
        }
        ~Tracked() { log_.push_back(id_); }
        std::vector<int> &log_;
        int id_;
    };
    std::vector<int> destroyed;
    {
        Arena arena;
        arena.make<Tracked>(destroyed, 1);
        arena.make<Tracked>(destroyed, 2);
        arena.make<Tracked>(destroyed, 3);
        EXPECT_TRUE(destroyed.empty());
    }
    EXPECT_EQ(destroyed, (std::vector<int>{3, 2, 1}));
}

TEST(Arena, GrowsNewSlabsForLargeAllocations)
{
    Arena arena(64); // tiny slabs force chaining
    for (int i = 0; i < 32; ++i)
        arena.make<std::uint64_t>(static_cast<std::uint64_t>(i));
    // An allocation bigger than the slab size gets its own slab.
    struct Big
    {
        std::byte bytes[256];
    };
    Big *big = arena.make<Big>();
    EXPECT_NE(big, nullptr);
    EXPECT_GT(arena.slabCount(), 1u);
}

TEST(Rng, SaveLoadResumesIdenticalStream)
{
    Rng original(1234);
    for (int i = 0; i < 17; ++i)
        original.next();
    Serializer s;
    original.saveState(s);
    Rng restored(0);
    Deserializer d(s.buffer());
    restored.loadState(d);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(restored.next(), original.next());
}

TEST(Pool, AllocGetFreeRoundTrips)
{
    Pool<int> pool;
    auto a = pool.alloc();
    auto b = pool.alloc();
    pool.get(a) = 17;
    pool.get(b) = 42;
    EXPECT_EQ(pool.get(a), 17);
    EXPECT_EQ(pool.get(b), 42);
    EXPECT_EQ(pool.liveCount(), 2u);
    EXPECT_TRUE(pool.valid(a));
    pool.free(a);
    EXPECT_FALSE(pool.valid(a));
    EXPECT_TRUE(pool.valid(b));
    EXPECT_EQ(pool.liveCount(), 1u);
}

TEST(Pool, RecyclesSlotsWithoutGrowingCapacity)
{
    Pool<std::vector<int>> pool;
    auto h = pool.alloc();
    pool.get(h).resize(100);
    pool.free(h);
    const std::size_t cap = pool.capacity();
    for (int i = 0; i < 1000; ++i) {
        auto r = pool.alloc();
        // Recycle-without-destroy: the previous user's capacity
        // survives, so warm slots never reallocate.
        EXPECT_GE(pool.get(r).capacity(), 100u) << "iteration " << i;
        pool.free(r);
    }
    EXPECT_EQ(pool.capacity(), cap);
}

TEST(Pool, StaleHandleIsInvalidAfterRecycle)
{
    Pool<int> pool;
    auto h = pool.alloc();
    pool.free(h);
    auto r = pool.alloc();
    // The freelist hands the same slot back with a bumped generation.
    EXPECT_EQ(r.index, h.index);
    EXPECT_NE(r.gen, h.gen);
    EXPECT_FALSE(pool.valid(h));
    EXPECT_TRUE(pool.valid(r));
}

TEST(Pool, ReferencesSurviveGrowthAcrossChunks)
{
    Pool<int> pool;
    auto first = pool.alloc();
    pool.get(first) = 7;
    int *addr = &pool.get(first);
    // Force several chunk allocations (512 slots per chunk).
    std::vector<Pool<int>::Handle> handles;
    for (int i = 0; i < 2000; ++i)
        handles.push_back(pool.alloc());
    EXPECT_EQ(&pool.get(first), addr);
    EXPECT_EQ(pool.get(first), 7);
    EXPECT_EQ(pool.liveCount(), 2001u);
}

TEST(PoolDeathTest, StaleHandleGetAsserts)
{
    Pool<int> pool;
    auto h = pool.alloc();
    pool.free(h);
    pool.alloc();
    EXPECT_DEATH(pool.get(h), "stale pool handle");
}

TEST(RingQueue, FifoOrderAndIndexedAccess)
{
    RingQueue<int> q;
    for (int i = 0; i < 10; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 10u);
    for (std::size_t i = 0; i < q.size(); ++i)
        EXPECT_EQ(q[i], static_cast<int>(i));
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, DequeSemanticsAtBothEnds)
{
    RingQueue<int> q;
    q.push_back(2);
    q.push_front(1);
    q.push_back(3);
    EXPECT_EQ(q.front(), 1);
    EXPECT_EQ(q.back(), 3);
    q.pop_back();
    EXPECT_EQ(q.back(), 2);
    q.pop_front();
    EXPECT_EQ(q.front(), 2);
}

TEST(RingQueue, WrapsWithoutReallocatingWhenWarm)
{
    RingQueue<int> q;
    q.reserve(16);
    const std::size_t cap = q.capacity();
    EXPECT_GE(cap, 16u);
    // Stream far more elements than capacity through the warm ring;
    // occupancy never exceeds 4, so the buffer must not grow.
    int next_in = 0, next_out = 0;
    for (int i = 0; i < 1000; ++i) {
        q.push_back(next_in++);
        if (q.size() > 4) {
            EXPECT_EQ(q.front(), next_out++);
            q.pop_front();
        }
    }
    EXPECT_EQ(q.capacity(), cap);
}

TEST(RingQueue, ReserveGrowsButNeverShrinks)
{
    RingQueue<int> q;
    q.push_back(1);
    q.push_back(2);
    q.reserve(100);
    const std::size_t cap = q.capacity();
    EXPECT_GE(cap, 100u);
    // Contents survive the grow.
    EXPECT_EQ(q.front(), 1);
    EXPECT_EQ(q.back(), 2);
    q.reserve(10);
    EXPECT_EQ(q.capacity(), cap);
}

TEST(RingQueue, ClearRetainsCapacity)
{
    RingQueue<int> q;
    for (int i = 0; i < 50; ++i)
        q.push_back(i);
    const std::size_t cap = q.capacity();
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), cap);
    q.push_back(9);
    EXPECT_EQ(q.front(), 9);
}

TEST(FlatMap, InsertFindEraseRoundTrips)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(1), nullptr);
    map.insert(1, 10);
    map.insert(2, 20);
    ASSERT_NE(map.find(1), nullptr);
    EXPECT_EQ(*map.find(1), 10);
    EXPECT_EQ(*map.find(2), 20);
    EXPECT_EQ(map.size(), 2u);
    EXPECT_TRUE(map.erase(1));
    EXPECT_EQ(map.find(1), nullptr);
    EXPECT_FALSE(map.erase(1));
    EXPECT_EQ(*map.find(2), 20);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, SurvivesRandomizedInsertEraseChurn)
{
    // Backward-shift deletion is the subtle part: compare against a
    // reference map across a long random insert/erase interleaving.
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::set<std::uint64_t> reference;
    Rng rng(99);
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = rng.nextBounded(512);
        if (reference.count(key)) {
            EXPECT_TRUE(map.erase(key));
            reference.erase(key);
        } else {
            map.insert(key, key * 3);
            reference.insert(key);
        }
        EXPECT_EQ(map.size(), reference.size());
    }
    for (std::uint64_t key = 0; key < 512; ++key) {
        auto *found = map.find(key);
        if (reference.count(key)) {
            ASSERT_NE(found, nullptr) << "key " << key;
            EXPECT_EQ(*found, key * 3);
        } else {
            EXPECT_EQ(found, nullptr) << "key " << key;
        }
    }
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t key = 0; key < 100; ++key)
        map.insert(key, static_cast<int>(key));
    std::set<std::uint64_t> seen;
    map.forEach([&](std::uint64_t key, int value) {
        EXPECT_EQ(value, static_cast<int>(key));
        EXPECT_TRUE(seen.insert(key).second) << "duplicate " << key;
    });
    EXPECT_EQ(seen.size(), 100u);
}

TEST(FlatMap, ReservePreventsRehashUpToExpected)
{
    FlatMap<std::uint64_t, int> map;
    map.insert(1000, 1);
    int *before = map.find(1000);
    map.reserve(64);
    // reserve() itself may rehash (invalidate), but inserts up to the
    // reserved count afterwards must not.
    int *stable = map.find(1000);
    for (std::uint64_t key = 0; key < 63; ++key)
        map.insert(key, static_cast<int>(key));
    EXPECT_EQ(map.find(1000), stable);
    EXPECT_EQ(*map.find(1000), 1);
    (void)before;
}

TEST(FlatMapDeathTest, DuplicateInsertAsserts)
{
    FlatMap<std::uint64_t, int> map;
    map.insert(5, 1);
    EXPECT_DEATH(map.insert(5, 2), "already present");
}

} // namespace
} // namespace util
} // namespace locsim
