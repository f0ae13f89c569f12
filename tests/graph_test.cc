/**
 * @file
 * Tests for communication graphs, the placement optimizer, and the
 * graph-generalized workload (including end-to-end machine runs).
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "machine/machine.hh"
#include "net/topology.hh"
#include "workload/comm_graph.hh"
#include "workload/placement.hh"
#include "workload/torus_app.hh"

namespace locsim {
namespace workload {
namespace {

TEST(CommGraph, EdgeBasics)
{
    CommGraph graph(4);
    graph.addEdge(0, 1, 2.0);
    graph.addEdge(1, 2);
    graph.addEdge(0, 1, 1.0); // merges into the existing edge
    EXPECT_EQ(graph.edgeCount(), 2u);
    EXPECT_NEAR(graph.totalWeight(), 4.0, 1e-12);
    ASSERT_EQ(graph.neighbors(1).size(), 2u);
    EXPECT_NEAR(graph.neighbors(0)[0].weight, 3.0, 1e-12);
    EXPECT_NEAR(graph.averageDegree(), 1.0, 1e-12);
}

TEST(CommGraph, TorusGeneratorMatchesTopology)
{
    const CommGraph graph = CommGraph::torus(8, 2);
    EXPECT_EQ(graph.vertexCount(), 64u);
    // 2 undirected edges per vertex in a 2-D torus.
    EXPECT_EQ(graph.edgeCount(), 128u);
    // Every vertex has degree 4.
    for (std::uint32_t v = 0; v < 64; ++v)
        EXPECT_EQ(graph.neighbors(v).size(), 4u);
    EXPECT_TRUE(graph.connected());
    EXPECT_EQ(graph.diameter(), 8u); // radix-8 2-D torus: 4 + 4
}

TEST(CommGraph, RingHasHighDiameter)
{
    const CommGraph ring = CommGraph::ring(64);
    EXPECT_EQ(ring.diameter(), 32u);
    EXPECT_TRUE(ring.connected());
    EXPECT_EQ(ring.edgeCount(), 64u);
}

TEST(CommGraph, TreeAndGridShapes)
{
    const CommGraph tree = CommGraph::binaryTree(64);
    EXPECT_EQ(tree.edgeCount(), 63u);
    EXPECT_TRUE(tree.connected());

    const CommGraph grid = CommGraph::grid2d(8, 8);
    EXPECT_EQ(grid.vertexCount(), 64u);
    EXPECT_EQ(grid.edgeCount(), 2u * 7u * 8u);
    EXPECT_EQ(grid.diameter(), 14u);
}

TEST(CommGraph, RandomPeersHasLowDiameter)
{
    const CommGraph graph = CommGraph::randomPeers(64, 3, 7);
    EXPECT_TRUE(graph.connected());
    EXPECT_LE(graph.diameter(), 6u); // expander-like
    EXPECT_GE(graph.averageDegree(), 3.0);
}

TEST(CommGraph, AverageDistanceUnderIdentityOnMatchingTorus)
{
    net::TorusTopology topo(8, 2);
    const CommGraph graph = CommGraph::torus(8, 2);
    EXPECT_DOUBLE_EQ(
        graph.averageDistance(Mapping::identity(64), topo), 1.0);
    // A random placement sits near the Equation 17 expectation.
    const double d =
        graph.averageDistance(Mapping::random(64, 3), topo);
    EXPECT_GT(d, 2.5);
    EXPECT_LT(d, 5.5);
}

TEST(Placement, RecoversNearIdealTorusEmbedding)
{
    // The torus graph embeds in the torus network at d = 1; the
    // optimizer should get most of the way from ~4 to ~1.
    net::TorusTopology topo(8, 2);
    const CommGraph graph = CommGraph::torus(8, 2);
    PlacementConfig config;
    config.iterations = 120000;
    config.restarts = 2;
    config.seed = 5;
    const PlacementResult result =
        optimizePlacement(graph, topo, config);
    EXPECT_GT(result.initial_distance, 3.0);
    EXPECT_LT(result.distance, 1.8);
    EXPECT_GT(result.accepted_moves, 100u);
    // The reported distance matches the mapping it returned.
    EXPECT_NEAR(graph.averageDistance(result.mapping, topo),
                result.distance, 1e-9);
}

TEST(Placement, ImprovesEveryGraphShape)
{
    net::TorusTopology topo(8, 2);
    PlacementConfig config;
    config.iterations = 60000;
    config.restarts = 1;
    for (const CommGraph &graph :
         {CommGraph::ring(64), CommGraph::binaryTree(64),
          CommGraph::grid2d(8, 8)}) {
        const PlacementResult result =
            optimizePlacement(graph, topo, config);
        EXPECT_LT(result.distance, 0.7 * result.initial_distance);
    }
}

TEST(Placement, RandomPeersGraphBarelyImproves)
{
    // An expander has no locality to find (Section 1.1): the
    // optimizer cannot get far below the random-placement baseline.
    net::TorusTopology topo(8, 2);
    const CommGraph graph = CommGraph::randomPeers(64, 4, 11);
    PlacementConfig config;
    config.iterations = 60000;
    const PlacementResult result =
        optimizePlacement(graph, topo, config);
    EXPECT_GT(result.distance, 0.55 * result.initial_distance);
}

TEST(GraphApp, MatchesTorusProgramOnTorusGraph)
{
    // The graph constructor on the torus graph reads the same words
    // and stores the same word as the torus constructor (neighbour
    // order may differ; compare loads as sets of addrs).
    net::TorusTopology topo(8, 2);
    const Mapping mapping = Mapping::identity(64);
    NeighborProgram from_graph(CommGraph::torus(8, 2), mapping, 0, 9,
                               {});
    NeighborProgram from_torus(topo, mapping, 0, 9, {});

    const auto iteration = [](NeighborProgram &program) {
        std::set<coher::Addr> loads;
        proc::Op op = program.start();
        while (op.kind == proc::Op::Kind::Load) {
            loads.insert(op.addr);
            op = program.next(0);
        }
        EXPECT_EQ(op.kind, proc::Op::Kind::Store);
        return std::make_pair(loads, op);
    };
    const auto [graph_loads, graph_store] = iteration(from_graph);
    const auto [torus_loads, torus_store] = iteration(from_torus);
    EXPECT_EQ(graph_loads.size(), 4u);
    EXPECT_EQ(graph_loads, torus_loads);
    EXPECT_EQ(coher::homeOf(graph_store.addr), 9u); // the store is local
    EXPECT_EQ(graph_store.addr, torus_store.addr);
    EXPECT_EQ(graph_store.store_value, torus_store.store_value);
}

TEST(GraphMachine, RunsRingWorkloadCoherently)
{
    machine::MachineConfig config;
    config.workload = machine::WorkloadKind::Graph;
    config.graph =
        std::make_shared<workload::CommGraph>(CommGraph::ring(64));
    machine::Machine machine(config, Mapping::random(64, 21));
    const auto m = machine.run(2000, 8000);
    EXPECT_EQ(m.violations, 0u);
    EXPECT_GT(m.iterations, 100u);
    EXPECT_GT(m.transactions, 500u);
}

TEST(GraphMachine, HonoursPrefetchDepth)
{
    // The graph loop prefetches like the torus loop: on the torus
    // graph, depth 2 must change the run and stay coherent.
    auto run = [](std::uint32_t depth) {
        machine::MachineConfig config;
        config.workload = machine::WorkloadKind::Graph;
        config.graph =
            std::make_shared<workload::CommGraph>(CommGraph::torus(8, 2));
        config.app.prefetch_depth = depth;
        machine::Machine machine(config, Mapping::identity(64));
        return machine.run(2000, 8000);
    };
    const auto base = run(0);
    const auto prefetched = run(2);
    EXPECT_EQ(base.violations, 0u);
    EXPECT_EQ(prefetched.violations, 0u);
    EXPECT_NE(prefetched.txn_rate, base.txn_rate);
    EXPECT_NE(prefetched.iterations, base.iterations);
    EXPECT_GT(prefetched.hit_rate, base.hit_rate);
}

TEST(GraphMachine, OptimizedPlacementOutperformsRandom)
{
    // End-to-end payoff: run the ring workload under a random and an
    // optimized placement; the optimized one must deliver a higher
    // transaction rate and lower message latency.
    net::TorusTopology topo(8, 2);
    const auto graph =
        std::make_shared<workload::CommGraph>(CommGraph::ring(64));

    PlacementConfig pconfig;
    pconfig.iterations = 60000;
    const PlacementResult placed =
        optimizePlacement(*graph, topo, pconfig);

    auto run = [&](const Mapping &mapping) {
        machine::MachineConfig config;
        config.workload = machine::WorkloadKind::Graph;
        config.graph = graph;
        machine::Machine machine(config, mapping);
        return machine.run(3000, 10000);
    };
    const auto random = run(Mapping::random(64, 33));
    const auto optimized = run(placed.mapping);
    EXPECT_EQ(optimized.violations, 0u);
    EXPECT_GT(optimized.txn_rate, random.txn_rate * 1.1);
    EXPECT_LT(optimized.message_latency, random.message_latency);
}

} // namespace
} // namespace workload
} // namespace locsim
