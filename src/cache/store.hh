/**
 * @file
 * The persistent simulation artifact store.
 *
 * A SimCache maps content hashes (see cache/key.hh) to opaque byte
 * payloads on disk, one file per entry, with two concurrency
 * guarantees:
 *
 *  - cross-process safety: entries are written to a temporary file
 *    and atomically renamed into place, so readers never observe a
 *    partial payload and concurrent writers of the same key simply
 *    race to produce identical bytes;
 *  - within-process dedup (singleflight): when several worker threads
 *    request the same missing key simultaneously, exactly one runs
 *    the compute function; the rest block and share its result.
 *
 * Payloads are opaque bytes; the harness layer decides what they mean
 * (serialized Measurements and checkpoint images). Every file, in
 * every family, is the payload followed by its 32-byte SHA-256,
 * checked on every read: a torn, truncated, foreign or bit-flipped
 * file reads as a miss and is removed, because a payload's bytes flow
 * into results. A payload that verifies but fails to decode is still
 * the caller's to handle, by removing and recomputing.
 */

#ifndef LOCSIM_CACHE_STORE_HH_
#define LOCSIM_CACHE_STORE_HH_

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace locsim {

namespace obs {
class PhaseSlot;
}

namespace cache {

/** Hit/miss accounting for one SimCache over its lifetime. */
struct CacheStats
{
    std::uint64_t hits = 0;       //!< served from disk
    std::uint64_t misses = 0;     //!< computed (and stored)
    std::uint64_t stores = 0;     //!< payloads written to disk
    std::uint64_t dedup_hits = 0; //!< waited on a concurrent compute

    /** @name Prefix-checkpoint entries (same meanings, .ckpt files) */
    ///@{
    std::uint64_t prefix_hits = 0;
    std::uint64_t prefix_misses = 0;
    std::uint64_t prefix_stores = 0;
    std::uint64_t prefix_dedup_hits = 0;
    ///@}

    /** @name Window images (see SimCache::longestWindow) */
    ///@{
    std::uint64_t window_hits = 0;   //!< verified images served
    std::uint64_t window_stores = 0; //!< images written to disk
    ///@}
};

/** A stored window image: its window length and checkpoint bytes. */
struct WindowImage
{
    std::uint64_t window = 0;
    std::vector<std::uint8_t> image;
};

/** A content-addressed byte store rooted at one directory. */
class SimCache
{
  public:
    /**
     * Open (creating if needed) the store at @p dir.
     *
     * @throws std::runtime_error if the directory cannot be created
     *         or is not writable — probed eagerly so a bad --cache-dir
     *         fails before hours of simulation, not after.
     */
    explicit SimCache(const std::string &dir);

    SimCache(const SimCache &) = delete;
    SimCache &operator=(const SimCache &) = delete;

    /**
     * Return the payload for @p key: from disk on a hit, otherwise by
     * invoking @p compute exactly once per process (concurrent
     * requests for the same key wait and share) and persisting its
     * result.
     *
     * If compute throws, the exception propagates to the caller that
     * ran it; waiting threads retry (one of them becomes the next
     * computer).
     */
    std::vector<std::uint8_t>
    getOrRun(const std::string &key,
             const std::function<std::vector<std::uint8_t>()> &compute);

    /** Look up @p key on disk without computing. */
    std::optional<std::vector<std::uint8_t>>
    lookup(const std::string &key) const;

    /** Remove @p key's entry, if present (corrupt-payload recovery). */
    void remove(const std::string &key);

    /**
     * @name Checkpoint-image entries
     *
     * A second entry family (`<key>.ckpt` beside `<key>.simcache`)
     * holding prefix checkpoint images, with identical semantics:
     * atomic temp+rename stores, singleflight getOrRun (so a prefix
     * shared by many sweep points is produced exactly once per
     * process, however many runner::ThreadPool lanes request it),
     * and corrupt entries handled by the caller via remove +
     * recompute. Keys come from cache::prefixKey, which folds in the
     * checkpoint format version — schema versioning is content-
     * addressed, like everything else in this store. Accounting lands
     * in the prefix_* stats fields.
     */
    ///@{
    std::vector<std::uint8_t> getOrRunCheckpoint(
        const std::string &key,
        const std::function<std::vector<std::uint8_t>()> &compute);

    void removeCheckpoint(const std::string &key);
    ///@}

    /**
     * @name Window images
     *
     * A third entry family: the checkpoint image at warm-up + w
     * cycles, with statistics reset at the warm-up, of the prefix
     * @p prefix_key names. Each lives at `<prefix_key>.windows/<w>`
     * (w in decimal), so any process can list which windows exist;
     * stores are atomic temp+rename and verified on read like every
     * other entry. No singleflight: a window image at w is produced
     * only by the result its simKey names, which getOrRun already
     * deduplicates.
     */
    ///@{

    /**
     * The verified image with the largest w in [1, @p window], or
     * nullopt. Files that fail the check are removed on the way.
     */
    std::optional<WindowImage>
    longestWindow(const std::string &prefix_key, std::uint64_t window);

    void storeWindow(const std::string &prefix_key, std::uint64_t window,
                     const std::vector<std::uint8_t> &image);

    void removeWindow(const std::string &prefix_key,
                      std::uint64_t window);
    ///@}

    /** Lifetime hit/miss counters (thread-safe snapshot). */
    CacheStats stats() const;

    const std::filesystem::path &dir() const { return dir_; }

    /**
     * Attach a phase-profiler slot (nullptr to detach; not owned).
     * Disk probes record Phase::CacheProbe and payload writes
     * Phase::CacheStore — host-side I/O time, separable from
     * simulation time in the run manifest.
     */
    void setProfileSlot(obs::PhaseSlot *slot) { profile_slot_ = slot; }

  private:
    struct InFlight
    {
        std::mutex mutex;
        std::condition_variable done_cv;
        bool done = false;
        bool failed = false;
        std::vector<std::uint8_t> payload;
    };

    /** Entry families: result payloads vs prefix checkpoint images. */
    enum class Kind { Result, Checkpoint };

    std::filesystem::path entryPath(const std::string &key,
                                    Kind kind) const;
    std::filesystem::path windowPath(const std::string &prefix_key,
                                     std::uint64_t window) const;
    std::optional<std::vector<std::uint8_t>>
    lookupEntry(const std::string &key, Kind kind) const;
    /** Write @p payload and its SHA-256 to @p path via a temp file
     *  and a rename. */
    void writeAtomically(const std::filesystem::path &path,
                         const std::vector<std::uint8_t> &payload);
    std::vector<std::uint8_t> getOrRunEntry(
        const std::string &key, Kind kind,
        const std::function<std::vector<std::uint8_t>()> &compute);

    std::filesystem::path dir_;
    mutable std::mutex mutex_; //!< guards stats_ and in_flight_
    CacheStats stats_;
    std::unordered_map<std::string, std::shared_ptr<InFlight>>
        in_flight_;
    std::uint64_t temp_counter_ = 0;
    obs::PhaseSlot *profile_slot_ = nullptr;
};

} // namespace cache
} // namespace locsim

#endif // LOCSIM_CACHE_STORE_HH_
