/**
 * @file
 * Content-addressed cache keys for simulation runs.
 *
 * A simulation's result is a pure function of its full configuration:
 * topology, node/processor/coherence parameters, workload and its
 * seeds, thread placement, and the warmup/window cycle budget. The
 * key canonicalizes all of it into a byte string (via the same
 * serializer the checkpoints use) and hashes it with SHA-256, so two
 * harness cells with identical inputs share one cache entry and any
 * parameter change — however small — misses cleanly.
 *
 * kCacheSchemaVersion is folded into the hash. Bump it whenever the
 * simulator's behavior changes in any observable way (protocol
 * timing, router arbitration, workload op sequence, Measurement
 * layout): stale entries then simply stop being found, which is the
 * only invalidation a content-addressed store needs.
 */

#ifndef LOCSIM_CACHE_KEY_HH_
#define LOCSIM_CACHE_KEY_HH_

#include <cstdint>
#include <string>

#include "machine/machine.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace cache {

/** Simulator behavior + payload layout version (see file comment).
 *  Version 2: message ids became per-source sequence numbers (the
 *  sharded-execution rework); byte-identical results, but a bumped
 *  version keeps pre-rework entries from being trusted untested.
 *  Version 3: a mesh's Measurement::utilization divides by its real
 *  channel count, 2*n*(k-1)*k^(n-1), not the torus's 2*n*N. */
inline constexpr std::uint32_t kCacheSchemaVersion = 3;

/**
 * Prefix-entry schema version, folded into prefixKey alongside
 * kCacheSchemaVersion and the checkpoint format version. Bump it when
 * the *meaning* of a prefix entry changes (e.g. what state a prefix
 * image is expected to capture) without either of the other two
 * versions moving.
 */
inline constexpr std::uint32_t kPrefixSchemaVersion = 1;

/**
 * @name Config-field coverage tripwire
 *
 * Every MachineConfig field (and every field of its nested parameter
 * structs) must be either hashed by simKey/prefixKey or explicitly
 * whitelisted here as late-binding/execution-only. The counts below
 * are pinned against the real structs by tests/prefix_test.cc, which
 * counts aggregate fields at compile time: adding a field without
 * deciding its cache-key status fails that test with instructions.
 *
 * Late-binding / execution-only whitelist (NOT hashed, with reasons):
 *  - MachineConfig::shards    — partitions execution, results are
 *    bit-identical at every count (cache_test pins this);
 *  - MachineConfig::trace     — observability sink; runs with tracing
 *    attached bypass the cache entirely (HarnessOptions::cacheUsable);
 *  - MachineConfig::sample_period — same contract as trace;
 *  - MachineConfig::profiler  — host-side observer, never influences
 *    simulated state.
 * The warmup/window cycle budget is hashed by simKey but deliberately
 * NOT by prefixKey: it selects where measurement happens on a
 * trajectory fully determined by the fields above, which is exactly
 * what lets one prefix image serve many measurement windows.
 */
///@{
inline constexpr std::size_t kMachineConfigFields = 17;
inline constexpr std::size_t kProcessorConfigFields = 2;
inline constexpr std::size_t kProtocolConfigFields = 8;
inline constexpr std::size_t kRouterConfigFields = 2;
inline constexpr std::size_t kTorusAppConfigFields = 2;
inline constexpr std::size_t kUniformAppConfigFields = 3;
///@}

/**
 * The cache key for "construct Machine(config, mapping), advance
 * warmup processor cycles, measure a window of `window` cycles":
 * 64 lowercase hex chars.
 *
 * Tracing and sampling knobs are deliberately excluded: runs with
 * observability attached bypass the cache entirely (the caller
 * enforces this), and a traced run's Measurement is identical to an
 * untraced one.
 *
 * Execution knobs that cannot change results are excluded too:
 * MachineConfig::shards and the runner thread count never enter the
 * key, so a result computed sequentially is found by a sharded run
 * and vice versa (sharding is bit-identical by construction).
 */
std::string simKey(const machine::MachineConfig &config,
                   const workload::Mapping &mapping,
                   std::uint64_t warmup, std::uint64_t window);

/**
 * The cache key for "the complete state of Machine(config, mapping)
 * after advancing `clock` processor cycles from reset": 64 lowercase
 * hex chars. This is the address of a prefix *checkpoint image* — the
 * payload is Machine::saveCheckpoint() bytes, so the checkpoint
 * format version is folded into the hash alongside the behavior
 * schema version (a layout bump retires stored images, a behavior
 * bump retires them too).
 *
 * Hashes exactly the fields that influence the simulated trajectory
 * up to `clock` — everything simKey hashes EXCEPT the warmup/window
 * budget. Two sweep points that differ only in measurement window (or
 * in any whitelisted execution knob) share one prefix image; see the
 * late-binding whitelist above.
 */
std::string prefixKey(const machine::MachineConfig &config,
                      const workload::Mapping &mapping,
                      std::uint64_t clock);

} // namespace cache
} // namespace locsim

#endif // LOCSIM_CACHE_KEY_HH_
