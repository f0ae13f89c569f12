/**
 * @file
 * Trace replay: drive one node of the machine with a user-supplied
 * memory trace instead of a synthetic program — the path a downstream
 * user takes to evaluate their own application's reference stream.
 *
 * With no --trace argument, a small demonstration trace is generated
 * on the fly (streaming loads from a remote home plus periodic local
 * flag updates). The remaining 63 nodes run the standard synthetic
 * application as background traffic.
 *
 *   ./trace_replay --trace my_app.trace --background-contexts 1
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "coher/controller.hh"
#include "net/network.hh"
#include "proc/processor.hh"
#include "sim/engine.hh"
#include "util/options.hh"
#include "util/table.hh"
#include "workload/mapping.hh"
#include "workload/torus_app.hh"
#include "workload/trace_app.hh"

using namespace locsim;

namespace {

/** A built-in demonstration trace. */
std::vector<proc::Op>
demoTrace()
{
    std::ostringstream text;
    text << "# demo: stream 16 remote words, update a local flag\n";
    for (int i = 0; i < 16; ++i)
        text << "L 9 " << (100 + i) << " 6\n";
    text << "S 0 1 12\n";
    std::istringstream input(text.str());
    return workload::parseTrace(input);
}

} // namespace

int
main(int argc, char **argv)
{
    util::OptionParser opts("trace_replay",
                            "replay a memory trace on node 0 of the "
                            "64-node machine");
    opts.addString("trace", "trace file (see docs in trace_app.hh); "
                            "empty = built-in demo",
                   "");
    opts.addInt("window", "measurement window, processor cycles",
                20000);
    opts.parse(argc, argv);
    const std::uint64_t window = opts.getUint64("window", 1);

    // Assemble the machine by hand: network + controllers
    // everywhere, the trace program on node 0, the synthetic
    // application elsewhere as background load.
    sim::Engine engine;
    net::NetworkConfig net_config;
    net::Network network(engine, net_config);
    engine.addClocked(&network, 1);
    const net::TorusTopology &topo = network.topology();

    coher::ProtocolConfig protocol;
    std::vector<std::unique_ptr<coher::CacheController>> controllers;
    for (sim::NodeId node = 0; node < topo.nodeCount(); ++node) {
        controllers.push_back(
            std::make_unique<coher::CacheController>(
                engine, network, node, protocol, 2));
        engine.addClocked(controllers.back().get(), 2);
    }

    const workload::Mapping mapping =
        workload::Mapping::identity(topo.nodeCount());
    const std::string trace_path = opts.getString("trace");
    std::vector<proc::Op> trace_ops =
        trace_path.empty() ? demoTrace()
                           : workload::loadTraceFile(trace_path);
    workload::TraceProgram trace_program(trace_ops);

    std::vector<std::unique_ptr<workload::NeighborProgram>>
        background;
    std::vector<std::unique_ptr<proc::Processor>> processors;
    proc::ProcessorConfig proc_config;
    for (sim::NodeId node = 0; node < topo.nodeCount(); ++node) {
        proc::ThreadProgram *program;
        if (node == 0) {
            program = &trace_program;
        } else {
            background.push_back(
                std::make_unique<workload::NeighborProgram>(
                    topo, mapping, 0, node,
                    workload::TorusAppConfig{}));
            program = background.back().get();
        }
        processors.push_back(std::make_unique<proc::Processor>(
            *controllers[node], proc_config,
            std::vector<proc::ThreadProgram *>{program}));
        engine.addClocked(processors.back().get(), 2);
    }

    engine.run(window * 2);

    const coher::ControllerStats &cs = controllers[0]->stats();
    const proc::ProcessorStats &ps = processors[0]->stats();
    std::printf("replayed %llu ops over %llu full trace loops on "
                "node 0 (%llu processor cycles)\n\n",
                static_cast<unsigned long long>(ps.ops.value()),
                static_cast<unsigned long long>(
                    trace_program.loops()),
                static_cast<unsigned long long>(window));

    util::TextTable table({"metric", "value"});
    table.newRow().cell("transactions").cell(
        static_cast<long long>(cs.transactions.value()));
    table.newRow().cell("hit rate").cell(
        static_cast<double>(cs.hits.value()) /
            static_cast<double>(cs.loads.value() +
                                cs.stores.value()),
        3);
    table.newRow().cell("mean T_t (net cycles)").cell(
        cs.txn_latency.mean(), 1);
    table.newRow().cell("mean c (critical msgs)").cell(
        cs.critical_messages.mean(), 2);
    table.newRow().cell("idle cycles").cell(
        static_cast<long long>(ps.idle_cycles.value()));
    table.newRow().cell("work cycles").cell(
        static_cast<long long>(ps.work_cycles.value()));
    table.print(std::cout);

    std::printf("\nFeed the measured T_r, T_f, g, c into the "
                "combined model (see alewife_sim_demo)\nto predict "
                "how this reference stream scales with machine size "
                "and placement.\n");
    return 0;
}
