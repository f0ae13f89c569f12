/**
 * @file
 * Workload tests: mapping family properties and the synthetic
 * application's op stream.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "net/topology.hh"
#include "workload/mapping.hh"
#include "workload/torus_app.hh"
#include "workload/trace_app.hh"
#include "workload/uniform_app.hh"

namespace locsim {
namespace workload {
namespace {

TEST(Mapping, IdentityDistanceIsOne)
{
    net::TorusTopology topo(8, 2);
    const Mapping mapping = Mapping::identity(64);
    EXPECT_DOUBLE_EQ(mapping.averageNeighborDistance(topo), 1.0);
    EXPECT_EQ(mapping.node(17), 17u);
    EXPECT_EQ(mapping.threadAt(17), 17u);
}

TEST(Mapping, RandomIsBijective)
{
    const Mapping mapping = Mapping::random(64, 99);
    std::vector<bool> seen(64, false);
    for (std::uint32_t t = 0; t < 64; ++t) {
        const sim::NodeId node = mapping.node(t);
        EXPECT_FALSE(seen[node]);
        seen[node] = true;
        EXPECT_EQ(mapping.threadAt(node), t);
    }
}

TEST(Mapping, RandomDistanceNearEquation17)
{
    net::TorusTopology topo(8, 2);
    // Averaged over several seeds, the random mapping's neighbour
    // distance approaches the Equation 17 expectation (4.06).
    double total = 0.0;
    const int seeds = 20;
    for (int s = 0; s < seeds; ++s) {
        total += Mapping::random(64, 1000 + s)
                     .averageNeighborDistance(topo);
    }
    EXPECT_NEAR(total / seeds, net::randomMappingDistance(8, 2), 0.35);
}

TEST(Mapping, Linear2dKnownDistances)
{
    net::TorusTopology topo(8, 2);
    // identity
    EXPECT_DOUBLE_EQ(
        Mapping::linear2d(topo, 1, 0, 0, 1)
            .averageNeighborDistance(topo),
        1.0);
    // shear by 1: x-nbrs at 1, y-nbrs at 2 -> 1.5
    EXPECT_DOUBLE_EQ(
        Mapping::linear2d(topo, 1, 1, 0, 1)
            .averageNeighborDistance(topo),
        1.5);
    // dilate x by 3: x-nbrs at 3, y-nbrs at 1 -> 2
    EXPECT_DOUBLE_EQ(
        Mapping::linear2d(topo, 3, 0, 0, 1)
            .averageNeighborDistance(topo),
        2.0);
    // dilate both by 3 -> 3
    EXPECT_DOUBLE_EQ(
        Mapping::linear2d(topo, 3, 0, 0, 3)
            .averageNeighborDistance(topo),
        3.0);
    // cross shear by 4: both neighbour kinds at 5 -> 5
    EXPECT_DOUBLE_EQ(
        Mapping::linear2d(topo, 1, 4, 4, 1)
            .averageNeighborDistance(topo),
        5.0);
}

TEST(Mapping, ExperimentFamilySpansOneToSix)
{
    net::TorusTopology topo(8, 2);
    const auto family = experimentMappings(topo);
    ASSERT_EQ(family.size(), 9u); // paper: nine mappings
    EXPECT_DOUBLE_EQ(family.front().avg_distance, 1.0);
    EXPECT_GE(family.back().avg_distance, 5.4);
    for (std::size_t i = 1; i < family.size(); ++i) {
        EXPECT_GE(family[i].avg_distance,
                  family[i - 1].avg_distance); // sorted
    }
    // Every mapping's recorded distance matches a recomputation.
    for (const auto &named : family) {
        EXPECT_DOUBLE_EQ(
            named.mapping.averageNeighborDistance(topo),
            named.avg_distance)
            << named.name;
    }
}

TEST(StateWordAddr, HomedAtTheThreadsNode)
{
    const Mapping mapping = Mapping::random(64, 5);
    for (std::uint32_t t : {0u, 7u, 33u, 63u}) {
        for (std::uint32_t j : {0u, 3u}) {
            const coher::Addr addr = stateWordAddr(mapping, j, t);
            EXPECT_EQ(coher::homeOf(addr), mapping.node(t));
        }
    }
}

TEST(StateWordAddr, DistinctLinesAcrossInstancesAndThreads)
{
    const Mapping mapping = Mapping::identity(64);
    std::set<coher::Addr> seen;
    for (std::uint32_t t = 0; t < 64; ++t) {
        for (std::uint32_t j = 0; j < 4; ++j) {
            const coher::Addr addr = stateWordAddr(mapping, j, t);
            EXPECT_TRUE(seen.insert(coher::lineOf(addr)).second)
                << "line aliasing at t=" << t << " j=" << j;
        }
    }
}

TEST(TorusApp, OpSequenceIsLoadsThenStore)
{
    net::TorusTopology topo(8, 2);
    const Mapping mapping = Mapping::identity(64);
    TorusAppConfig config;
    config.compute_cycles = 8;
    NeighborProgram program(topo, mapping, 0, 9, config);

    proc::Op op = program.start();
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(op.kind, proc::Op::Kind::Load) << "op " << i;
        EXPECT_EQ(op.compute_cycles, 8u);
        EXPECT_NE(coher::homeOf(op.addr), 9u)
            << "neighbour loads are remote under identity";
        op = program.next((1ull << 16)); // pretend value
    }
    EXPECT_EQ(op.kind, proc::Op::Kind::Store);
    EXPECT_EQ(coher::homeOf(op.addr), 9u) << "own word is local";
    EXPECT_EQ(program.iterations(), 0u);
    op = program.next(op.store_value);
    EXPECT_EQ(program.iterations(), 1u);
    EXPECT_EQ(op.kind, proc::Op::Kind::Load);
}

TEST(TorusApp, StoreValueEncodesIterationAndThread)
{
    net::TorusTopology topo(8, 2);
    const Mapping mapping = Mapping::identity(64);
    NeighborProgram program(topo, mapping, 0, 42, {});
    proc::Op op = program.start();
    while (op.kind != proc::Op::Kind::Store)
        op = program.next(0);
    EXPECT_EQ(op.store_value & 0xffff, 42u);
    EXPECT_EQ(op.store_value >> 16, 1u);
}

TEST(TorusApp, ViolationDetectorFiresOnRegression)
{
    net::TorusTopology topo(8, 2);
    const Mapping mapping = Mapping::identity(64);
    NeighborProgram program(topo, mapping, 0, 0, {});
    program.start();
    // First neighbour read returns counter 5, later counter 3:
    // a coherence regression the program must flag.
    program.next(5ull << 16);
    // Complete the iteration (3 more loads + the store)...
    program.next(0);
    program.next(0);
    program.next(0);
    program.next(0); // store done
    EXPECT_EQ(program.violations(), 0u);
    program.next(3ull << 16); // first neighbour again, counter went back
    EXPECT_EQ(program.violations(), 1u);
}

TEST(UniformApp, NeverTargetsSelfAndMixesLoadsStores)
{
    net::TorusTopology topo(8, 2);
    const Mapping mapping = Mapping::identity(64);
    UniformAppConfig config;
    config.loads_per_store = 4;
    config.seed = 9;
    UniformRemoteProgram program(topo, mapping, 0, 21, config);

    int loads = 0, stores = 0;
    proc::Op op = program.start();
    for (int i = 0; i < 500; ++i) {
        if (op.kind == proc::Op::Kind::Load) {
            ++loads;
            EXPECT_NE(coher::homeOf(op.addr), mapping.node(21))
                << "uniform loads never target the own node";
        } else {
            ++stores;
            EXPECT_EQ(op.addr, stateWordAddr(mapping, 0, 21));
        }
        op = program.next(0);
    }
    // 4 loads per store.
    EXPECT_NEAR(static_cast<double>(loads) / stores, 4.0, 0.05);
    EXPECT_EQ(program.operations(), 500u);
}

TEST(UniformApp, LoadTargetsCoverAllThreads)
{
    net::TorusTopology topo(8, 2);
    const Mapping mapping = Mapping::identity(64);
    UniformRemoteProgram program(topo, mapping, 0, 0, {});
    std::set<sim::NodeId> targets;
    proc::Op op = program.start();
    for (int i = 0; i < 3000; ++i) {
        if (op.kind == proc::Op::Kind::Load)
            targets.insert(coher::homeOf(op.addr));
        op = program.next(0);
    }
    EXPECT_EQ(targets.size(), 63u); // everyone but self
}

TEST(TorusApp, PrefetchSequenceInterleavesCorrectly)
{
    net::TorusTopology topo(8, 2);
    const Mapping mapping = Mapping::identity(64);
    TorusAppConfig config;
    config.prefetch_depth = 2;
    NeighborProgram program(topo, mapping, 0, 9, config);

    // Expected per-iteration kinds: P L P L L L P S.
    const proc::Op::Kind expected[] = {
        proc::Op::Kind::Prefetch, proc::Op::Kind::Load,
        proc::Op::Kind::Prefetch, proc::Op::Kind::Load,
        proc::Op::Kind::Load,     proc::Op::Kind::Load,
        proc::Op::Kind::Prefetch, proc::Op::Kind::Store,
    };
    proc::Op op = program.start();
    for (int round = 0; round < 2; ++round) {
        for (const proc::Op::Kind kind : expected) {
            EXPECT_EQ(op.kind, kind);
            if (kind == proc::Op::Kind::Prefetch) {
                EXPECT_EQ(op.compute_cycles, 0u);
            }
            op = program.next(op.kind == proc::Op::Kind::Store
                                  ? op.store_value
                                  : 0);
        }
        EXPECT_EQ(program.iterations(),
                  static_cast<std::uint64_t>(round + 1));
    }
}

TEST(TraceApp, ParsesKindsCommentsAndBlanks)
{
    std::istringstream input(
        "# header comment\n"
        "L 3 17 8\n"
        "\n"
        "S 0 2 4   # trailing comment\n"
        "P 5 9 0\n");
    const auto ops = parseTrace(input);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, proc::Op::Kind::Load);
    EXPECT_EQ(coher::homeOf(ops[0].addr), 3u);
    EXPECT_EQ(coher::lineIndexOf(ops[0].addr), 17u);
    EXPECT_EQ(ops[0].compute_cycles, 8u);
    EXPECT_EQ(ops[1].kind, proc::Op::Kind::Store);
    EXPECT_EQ(ops[2].kind, proc::Op::Kind::Prefetch);
    EXPECT_EQ(ops[2].compute_cycles, 0u);
}

TEST(TraceApp, MalformedInputIsFatal)
{
    auto parse = [](const char *text) {
        std::istringstream input(text);
        parseTrace(input);
    };
    EXPECT_DEATH(parse("X 1 2 3\n"), "unknown op kind");
    EXPECT_DEATH(parse("L 1 2\n"), "expected");
    EXPECT_DEATH(parse("L 1 2 3 4\n"), "trailing field");
}

TEST(TraceApp, ReplayLoopsForever)
{
    std::istringstream input("L 1 0 2\nS 2 0 3\n");
    TraceProgram program(parseTrace(input));
    proc::Op op = program.start();
    EXPECT_EQ(op.kind, proc::Op::Kind::Load);
    op = program.next(0);
    EXPECT_EQ(op.kind, proc::Op::Kind::Store);
    EXPECT_EQ(program.loops(), 0u);
    op = program.next(0);
    EXPECT_EQ(op.kind, proc::Op::Kind::Load);
    EXPECT_EQ(program.loops(), 1u);
}

TEST(TraceApp, LoadTraceFileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "/locsim_trace_test.txt";
    {
        std::ofstream out(path);
        out << "L 0 1 5\nS 1 0 6\n";
    }
    const auto ops = loadTraceFile(path);
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(coher::homeOf(ops[1].addr), 1u);
    std::remove(path.c_str());
}

TEST(TorusApp, MeshBoundaryThreadsHaveFewerNeighbors)
{
    net::TorusTopology mesh(8, 2, false);
    const Mapping mapping = Mapping::identity(64);
    // Corner thread (0,0): two neighbours instead of four.
    NeighborProgram corner(mesh, mapping, 0, mesh.nodeAt({0, 0}), {});
    int loads = 0;
    proc::Op op = corner.start();
    while (op.kind == proc::Op::Kind::Load) {
        ++loads;
        op = corner.next(0);
    }
    EXPECT_EQ(loads, 2);
}

/**
 * Program sections written field by field in saveState's order, so
 * tests can write values the programs never do: thread 9 of an 8x8
 * torus (four neighbour loads, then its store: five steps) on its
 * store, and a two-op trace on its second op. An op, as loadOp reads
 * it, is a prefetch.
 */
struct ProgramSections
{
    std::uint32_t neighbor_pos = 4;
    std::uint64_t trace_pos = 1;
    std::uint8_t op_kind = 2; //!< Prefetch

    std::vector<std::uint8_t>
    neighbor() const
    {
        util::Serializer s;
        s.put(neighbor_pos);
        s.put<std::uint64_t>(3); // iterations
        s.put<std::uint64_t>(0); // violations
        for (std::uint64_t seen : {1, 2, 3, 4})
            s.put(seen << 16);
        return s.takeBuffer();
    }

    std::vector<std::uint8_t>
    trace() const
    {
        util::Serializer s;
        s.put(trace_pos);
        s.put<std::uint64_t>(5); // loops
        return s.takeBuffer();
    }

    std::vector<std::uint8_t>
    op() const
    {
        util::Serializer s;
        s.put(op_kind);
        s.put(coher::makeAddr(3, 0));
        s.put<std::uint64_t>(0); // store value
        s.put<std::uint32_t>(5); // compute cycles
        return s.takeBuffer();
    }
};

TEST(Program, CheckpointRejectsMalformedSection)
{
    const net::TorusTopology topo(8, 2);
    const Mapping mapping = Mapping::identity(64);
    NeighborProgram neighbor(topo, mapping, 0, 9, {});
    std::istringstream input("L 1 0 2\nS 2 0 3\n");
    TraceProgram trace(parseTrace(input));
    using Load = std::function<std::vector<std::uint8_t>(
        const std::vector<std::uint8_t> &)>;
    // Loads a section and returns its re-saved bytes.
    auto resaved = [](proc::ThreadProgram &program) -> Load {
        return [&program](const std::vector<std::uint8_t> &bytes) {
            util::Deserializer d(bytes);
            program.loadState(d);
            EXPECT_TRUE(d.atEnd());
            util::Serializer s;
            program.saveState(s);
            return s.takeBuffer();
        };
    };
    const Load neighbor_load = resaved(neighbor);
    const Load trace_load = resaved(trace);
    const Load op_load = [](const std::vector<std::uint8_t> &bytes) {
        util::Deserializer d(bytes);
        util::Serializer s;
        proc::saveOp(s, proc::loadOp(d));
        EXPECT_TRUE(d.atEnd());
        return s.takeBuffer();
    };

    // The well-formed sections load and re-save byte for byte.
    const ProgramSections good;
    EXPECT_EQ(neighbor_load(good.neighbor()), good.neighbor());
    EXPECT_EQ(trace_load(good.trace()), good.trace());
    EXPECT_EQ(op_load(good.op()), good.op());

    struct Case
    {
        const char *name;
        const Load &load;
        std::vector<std::uint8_t> bytes;
    };
    auto with = [](auto &&mutate) {
        ProgramSections sections;
        mutate(sections);
        return sections;
    };
    auto cut = [](std::vector<std::uint8_t> bytes) {
        bytes.pop_back();
        return bytes;
    };
    const Case cases[] = {
        {"neighbour position at the sequence length", neighbor_load,
         with([](ProgramSections &p) { p.neighbor_pos = 5; }).neighbor()},
        {"neighbour position 0x0fffff", neighbor_load,
         with([](ProgramSections &p) { p.neighbor_pos = 0x0fffff; })
             .neighbor()},
        {"trace position at the op count", trace_load,
         with([](ProgramSections &p) { p.trace_pos = 2; }).trace()},
        {"op kind past Prefetch", op_load,
         with([](ProgramSections &p) { p.op_kind = 3; }).op()},
        {"neighbour section cut short", neighbor_load, cut(good.neighbor())},
        {"trace section cut short", trace_load, cut(good.trace())},
        {"op cut short", op_load, cut(good.op())},
    };
    for (const Case &c : cases)
        EXPECT_THROW(c.load(c.bytes), std::runtime_error) << c.name;
}

} // namespace
} // namespace workload
} // namespace locsim
