/**
 * @file
 * Unit tests for the observability layer: trace args rendering and
 * JSON escaping, tracer recording/caps/interning, serialized trace
 * syntax (validated with a minimal JSON parser), full-machine trace
 * content, sampler mode-equivalence, and merge determinism.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <sstream>
#include <string>

#include "machine/machine.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "workload/mapping.hh"

#include "json_checker.hh"

namespace locsim {
namespace obs {
namespace {

using locsim::testing::JsonChecker;

TEST(JsonChecker, AcceptsAndRejectsBasics)
{
    EXPECT_TRUE(JsonChecker("{\"a\":[1,2.5,-3e4,\"x\",true,null]}")
                    .valid());
    EXPECT_FALSE(JsonChecker("{\"a\":1").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":1}trailing").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":\"\x90\"}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":\"\\q\"}").valid());
}

TEST(Args, RendersTypedPairs)
{
    const std::string body = std::move(Args()
                                           .add("u", std::uint64_t{7})
                                           .add("i", -3)
                                           .add("d", 2.5)
                                           .add("s", "hi"))
                                 .str();
    EXPECT_EQ(body, "\"u\":7,\"i\":-3,\"d\":2.5,\"s\":\"hi\"");
}

TEST(Args, EscapesStrings)
{
    const std::string body =
        std::move(Args().add("s", "a\"b\\c\nd\x01")).str();
    EXPECT_EQ(body, "\"s\":\"a\\\"b\\\\c\\nd\\u0001\"");
    // The output is ASCII: bytes at or above 0x80 are escaped too.
    std::string utf8;
    appendJsonEscaped(utf8, "caf\xc3\xa9");
    EXPECT_EQ(utf8, "caf\\u00c3\\u00a9");
}

TEST(Tracer, RecordsOnNamedTracksAndCapsEvents)
{
    TraceConfig config;
    config.enabled = true;
    config.max_events = 3;
    Tracer tracer(config);
    const int track = tracer.newTrack("t0");
    for (int i = 0; i < 5; ++i)
        tracer.instant(track, i, "ev", Category::Net);
    EXPECT_EQ(tracer.events().size(), 3u);
    EXPECT_EQ(tracer.dropped(), 2u);
    EXPECT_EQ(tracer.trackNames().at(0), "t0");
}

TEST(Tracer, InternedNamesSurviveTheSourceString)
{
    Tracer tracer;
    const int track = tracer.newTrack("counters");
    const char *name = nullptr;
    {
        // The source string dies before the trace is written — the
        // interned copy must not (regression: sampler probe names used
        // to dangle once the machine owning the sampler was
        // destroyed).
        const std::string transient = "rho";
        name = tracer.intern(transient);
        EXPECT_EQ(tracer.intern(transient), name); // deduplicated
    }
    tracer.counter(track, 5, name, 0.25);
    std::ostringstream os;
    tracer.write(os);
    const std::string text = os.str();
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_NE(text.find("\"name\":\"rho\""), std::string::npos);
}

TEST(Tracer, WritesValidSelfContainedJson)
{
    Tracer tracer;
    const int track = tracer.newTrack("net.0");
    tracer.instant(track, 1, "inject", Category::Net,
                   std::move(Args().add("msg", 1)).str());
    tracer.complete(track, 2, 10, "run", Category::Engine);
    tracer.asyncBegin(track, 3, 42, "msg", Category::Net);
    tracer.asyncEnd(track, 9, 42, "msg", Category::Net,
                    std::move(Args().add("latency", 6)).str());
    std::ostringstream os;
    tracer.write(os);
    const std::string text = os.str();
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(text.find("\"id\":42"), std::string::npos);
}

TEST(Sampler, GaugeRateAndMeanKinds)
{
    double gauge = 3.0;
    double cumulative = 0.0;
    double sum = 0.0, count = 0.0;
    MetricsSampler sampler(10);
    sampler.addGauge("g", [&] { return gauge; });
    sampler.addRate("r", [&] { return cumulative; }, 2.0);
    sampler.addMean(
        "m", [&] { return sum; }, [&] { return count; });

    cumulative = 5.0;
    sum = 30.0;
    count = 2.0;
    EXPECT_TRUE(sampler.serialDue(0));
    sampler.serialTick(0);
    EXPECT_FALSE(sampler.serialDue(5));
    gauge = 4.0;
    cumulative = 10.0;
    EXPECT_TRUE(sampler.serialDue(10));
    sampler.serialTick(10);

    EXPECT_EQ(sampler.times().size(), 2u);
    EXPECT_DOUBLE_EQ(sampler.series(0)[1], 4.0);
    // Rate: 2.0 * (10 - 5) / 10.
    EXPECT_DOUBLE_EQ(sampler.series(1)[1], 1.0);
    // Mean window 0: (30 - 0) / (2 - 0); window 1 empty -> 0.
    EXPECT_DOUBLE_EQ(sampler.series(2)[0], 15.0);
    EXPECT_DOUBLE_EQ(sampler.series(2)[1], 0.0);
}

/**
 * A quiescence jump synthesizes exactly the samples stepping would
 * have taken: serialSkip(target) over frozen probes yields the same
 * times and series as ticking every due point below target.
 */
TEST(Sampler, SkipMatchesSteppingToTarget)
{
    double gauge = 1.0, cumulative = 0.0, sum = 0.0, count = 0.0;
    auto build = [&](MetricsSampler &sampler) {
        sampler.addGauge("g", [&] { return gauge; });
        sampler.addRate("r", [&] { return cumulative; }, 0.5);
        sampler.addMean(
            "m", [&] { return sum; }, [&] { return count; });
    };
    MetricsSampler stepped(10), skipped(10);
    build(stepped);
    build(skipped);

    // One live sample with moving probes, then a frozen stretch.
    gauge = 7.0;
    cumulative = 40.0;
    sum = 12.0;
    count = 3.0;
    stepped.serialTick(0);
    skipped.serialTick(0);
    gauge = 2.0;
    cumulative = 60.0;
    constexpr sim::Tick kTarget = 55;
    for (sim::Tick t = 1; t < kTarget; ++t) {
        if (stepped.serialDue(t))
            stepped.serialTick(t);
    }
    skipped.serialSkip(kTarget);

    EXPECT_EQ(skipped.times(),
              (std::vector<sim::Tick>{0, 10, 20, 30, 40, 50}));
    EXPECT_EQ(skipped.times(), stepped.times());
    for (std::size_t p = 0; p < stepped.probeCount(); ++p) {
        SCOPED_TRACE(stepped.probeName(p));
        EXPECT_EQ(skipped.series(p), stepped.series(p));
    }
    // Both resume on the same schedule.
    EXPECT_FALSE(skipped.serialDue(kTarget));
    EXPECT_TRUE(skipped.serialDue(60));
    EXPECT_TRUE(stepped.serialDue(60));
}

machine::MachineConfig
tracedConfig(bool reference)
{
    machine::MachineConfig config;
    config.contexts = 2;
    config.reference_stepping = reference;
    config.trace.enabled = true;
    config.sample_period = 200;
    return config;
}

TEST(MachineTrace, FullMachineTraceIsValidAndCoversAllLayers)
{
    const auto mapping = workload::Mapping::random(64, 3);
    machine::Machine machine(tracedConfig(false), mapping);
    machine.run(1000, 2000);

    std::ostringstream os;
    machine.writeTrace(os);
    const std::string text = os.str();
    EXPECT_TRUE(JsonChecker(text).valid());
    // Every simulated layer must contribute events.
    EXPECT_NE(text.find("\"cat\":\"engine\""), std::string::npos);
    EXPECT_NE(text.find("\"cat\":\"net\""), std::string::npos);
    EXPECT_NE(text.find("\"cat\":\"coher\""), std::string::npos);
    EXPECT_NE(text.find("\"cat\":\"proc\""), std::string::npos);
    EXPECT_NE(text.find("\"cat\":\"sampler\""), std::string::npos);
}

TEST(MachineTrace, SamplerSeriesIdenticalAcrossStepModes)
{
    const auto mapping = workload::Mapping::random(64, 5);
    machine::Machine activity(tracedConfig(false), mapping);
    machine::Machine reference(tracedConfig(true), mapping);
    activity.run(1000, 3000);
    reference.run(1000, 3000);

    const MetricsSampler *a = activity.sampler();
    const MetricsSampler *r = reference.sampler();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(r, nullptr);
    ASSERT_EQ(a->times(), r->times());
    ASSERT_EQ(a->probeCount(), r->probeCount());
    for (std::size_t p = 0; p < a->probeCount(); ++p) {
        SCOPED_TRACE(a->probeName(p));
        EXPECT_EQ(a->series(p), r->series(p));
    }
}

TEST(MachineTrace, ShardOutlivesMachineAndMergesDeterministically)
{
    std::shared_ptr<Tracer> shard_a, shard_b;
    {
        machine::Machine machine(tracedConfig(false),
                                 workload::Mapping::identity(64));
        machine.run(500, 1000);
        shard_a = machine.shareTracer();
    }
    {
        machine::Machine machine(tracedConfig(false),
                                 workload::Mapping::random(64, 7));
        machine.run(500, 1000);
        shard_b = machine.shareTracer();
    }

    // Both machines are gone; the shards (including sampler counter
    // names) must still serialize to valid JSON.
    std::ostringstream first, second;
    writeMergedTrace(first, {shard_a.get(), shard_b.get()},
                     {"identity.p2", "random.p2"});
    writeMergedTrace(second, {shard_a.get(), shard_b.get()},
                     {"identity.p2", "random.p2"});
    EXPECT_TRUE(JsonChecker(first.str()).valid());
    EXPECT_EQ(first.str(), second.str());
    EXPECT_NE(first.str().find("\"pid\":1"), std::string::npos);
    EXPECT_NE(first.str().find("identity.p2"), std::string::npos);
}

TEST(MachineTrace, FlitDetailAddsFlitEvents)
{
    auto config = tracedConfig(false);
    config.trace.detail = TraceDetail::Flit;
    machine::Machine machine(config,
                             workload::Mapping::random(64, 11));
    machine.run(500, 1000);
    std::ostringstream os;
    machine.writeTrace(os);
    const std::string text = os.str();
    EXPECT_TRUE(JsonChecker(text).valid());
    EXPECT_NE(text.find("\"name\":\"flit\""), std::string::npos);
}

} // namespace
} // namespace obs
} // namespace locsim
