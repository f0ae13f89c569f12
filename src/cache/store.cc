/**
 * @file
 * SimCache implementation.
 *
 * Both keyed entry families — result payloads (.simcache) and prefix
 * checkpoint images (.ckpt) — share one code path: lookupEntry /
 * writeAtomically / getOrRunEntry parameterized by Kind. The in-flight
 * singleflight map is keyed by the on-disk file name, so a result and
 * a checkpoint with the same content hash never alias each other.
 * Window images (<prefix key>.windows/<w>) share the file I/O but not
 * the singleflight. Every file is written by writeAtomically and read
 * by readEntry, so every family has the same verified format: the
 * payload, then its SHA-256.
 */

#include "cache/store.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "obs/profiler.hh"
#include "util/sha256.hh"

namespace locsim {
namespace cache {

namespace fs = std::filesystem;

namespace {

const char *
entrySuffix(int kind)
{
    return kind == 0 ? ".simcache" : ".ckpt";
}

/** Every entry file ends in the SHA-256 of the payload before it. */
constexpr std::size_t kDigestBytes = 32;

std::array<std::uint8_t, kDigestBytes>
digestOf(const std::uint8_t *data, std::size_t size)
{
    util::Sha256 hash;
    hash.update(data, size);
    return hash.digest();
}

/**
 * The payload of the entry file at @p path, or nullopt if there is
 * none. A file whose trailer is not the SHA-256 of the bytes before it
 * (torn, truncated, foreign, or a flipped bit) is removed and reads
 * as a miss: an entry's bytes flow into results, so a bad one must
 * never read as a different number.
 */
std::optional<std::vector<std::uint8_t>>
readEntry(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return std::nullopt;
    const std::streamsize size = is.tellg();
    if (size < 0)
        return std::nullopt;
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(size));
    is.seekg(0);
    if (!bytes.empty() &&
        !is.read(reinterpret_cast<char *>(bytes.data()), size))
        return std::nullopt;
    if (bytes.size() >= kDigestBytes) {
        const std::size_t payload = bytes.size() - kDigestBytes;
        const auto digest = digestOf(bytes.data(), payload);
        if (std::equal(digest.begin(), digest.end(),
                       bytes.begin() +
                           static_cast<std::ptrdiff_t>(payload))) {
            bytes.resize(payload);
            return bytes;
        }
    }
    std::error_code ec;
    fs::remove(path, ec);
    return std::nullopt;
}

/** The window a file name spells: a positive decimal, no leading
 *  zeros (temp files and strays never parse). */
std::optional<std::uint64_t>
windowOf(const std::string &name)
{
    std::uint64_t window = 0; // left at 0 by a failed or overflowing parse
    std::from_chars(name.data(), name.data() + name.size(), window);
    if (window == 0 || name != std::to_string(window))
        return std::nullopt;
    return window;
}

} // namespace

SimCache::SimCache(const std::string &dir) : dir_(dir)
{
    if (dir.empty())
        throw std::runtime_error("cache directory path is empty");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        throw std::runtime_error("cannot create cache directory '" +
                                 dir + "': " + ec.message());
    }
    // Probe writability now: a read-only cache directory should fail
    // the run before any simulation time is spent.
    const fs::path probe = dir_ / ".write-probe";
    {
        std::ofstream os(probe, std::ios::binary | std::ios::trunc);
        os << "probe";
        if (!os) {
            throw std::runtime_error("cache directory '" + dir +
                                     "' is not writable");
        }
    }
    fs::remove(probe, ec);
}

fs::path
SimCache::entryPath(const std::string &key, Kind kind) const
{
    return dir_ / (key + entrySuffix(static_cast<int>(kind)));
}

fs::path
SimCache::windowPath(const std::string &prefix_key,
                     std::uint64_t window) const
{
    return dir_ / (prefix_key + ".windows") / std::to_string(window);
}

std::optional<std::vector<std::uint8_t>>
SimCache::lookupEntry(const std::string &key, Kind kind) const
{
    obs::ScopedPhase profile(profile_slot_, obs::Phase::CacheProbe);
    return readEntry(entryPath(key, kind));
}

std::optional<std::vector<std::uint8_t>>
SimCache::lookup(const std::string &key) const
{
    return lookupEntry(key, Kind::Result);
}

void
SimCache::remove(const std::string &key)
{
    std::error_code ec;
    fs::remove(entryPath(key, Kind::Result), ec);
}

void
SimCache::removeCheckpoint(const std::string &key)
{
    std::error_code ec;
    fs::remove(entryPath(key, Kind::Checkpoint), ec);
}

void
SimCache::writeAtomically(const fs::path &path,
                          const std::vector<std::uint8_t> &payload)
{
    obs::ScopedPhase profile(profile_slot_, obs::Phase::CacheStore);

    std::uint64_t serial;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        serial = temp_counter_++;
    }
    // Write-then-rename: the rename is atomic within a filesystem, so
    // a concurrent reader (including another process) sees either no
    // entry or the whole file, never a prefix.
    const std::string name = path.filename().string();
    fs::path temp = path;
    temp += ".tmp." + std::to_string(serial);
    {
        const auto digest = digestOf(payload.data(), payload.size());
        std::ofstream os(temp, std::ios::binary | std::ios::trunc);
        if (!payload.empty()) {
            os.write(reinterpret_cast<const char *>(payload.data()),
                     static_cast<std::streamsize>(payload.size()));
        }
        os.write(reinterpret_cast<const char *>(digest.data()),
                 static_cast<std::streamsize>(digest.size()));
        if (!os) {
            std::error_code ec;
            fs::remove(temp, ec);
            throw std::runtime_error(
                "cache store failed writing temp file for " + name);
        }
    }
    std::error_code ec;
    fs::rename(temp, path, ec);
    if (ec) {
        std::error_code ec2;
        fs::remove(temp, ec2);
        throw std::runtime_error("cache store failed renaming " + name +
                                 ": " + ec.message());
    }
}

std::vector<std::uint8_t>
SimCache::getOrRunEntry(
    const std::string &key, Kind kind,
    const std::function<std::vector<std::uint8_t>()> &compute)
{
    const bool checkpoint = kind == Kind::Checkpoint;
    // Singleflight identity is the on-disk name: the two families
    // never share a flight even under content-hash collision by key.
    const std::string flight_key =
        key + entrySuffix(static_cast<int>(kind));
    for (;;) {
        std::shared_ptr<InFlight> flight;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = in_flight_.find(flight_key);
            if (it != in_flight_.end()) {
                flight = it->second;
            } else {
                flight = std::make_shared<InFlight>();
                in_flight_.emplace(flight_key, flight);
                owner = true;
            }
        }

        if (!owner) {
            std::unique_lock<std::mutex> fl(flight->mutex);
            flight->done_cv.wait(fl, [&] { return flight->done; });
            if (!flight->failed) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (checkpoint)
                    ++stats_.prefix_dedup_hits;
                else
                    ++stats_.dedup_hits;
                return flight->payload;
            }
            // The computing thread threw; loop and race to become the
            // next owner (or find the entry now on disk).
            continue;
        }

        std::vector<std::uint8_t> payload;
        bool from_disk = false;
        try {
            if (auto cached = lookupEntry(key, kind)) {
                payload = std::move(*cached);
                from_disk = true;
            } else {
                payload = compute();
                writeAtomically(entryPath(key, kind), payload);
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> fl(flight->mutex);
                flight->done = true;
                flight->failed = true;
            }
            flight->done_cv.notify_all();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                in_flight_.erase(flight_key);
            }
            throw;
        }
        {
            std::lock_guard<std::mutex> fl(flight->mutex);
            flight->done = true;
            flight->payload = payload;
        }
        flight->done_cv.notify_all();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            in_flight_.erase(flight_key);
            if (checkpoint) {
                if (from_disk) {
                    ++stats_.prefix_hits;
                } else {
                    ++stats_.prefix_misses;
                    ++stats_.prefix_stores;
                }
            } else if (from_disk) {
                ++stats_.hits;
            } else {
                ++stats_.misses;
                ++stats_.stores;
            }
        }
        return payload;
    }
}

std::vector<std::uint8_t>
SimCache::getOrRun(
    const std::string &key,
    const std::function<std::vector<std::uint8_t>()> &compute)
{
    return getOrRunEntry(key, Kind::Result, compute);
}

std::vector<std::uint8_t>
SimCache::getOrRunCheckpoint(
    const std::string &key,
    const std::function<std::vector<std::uint8_t>()> &compute)
{
    return getOrRunEntry(key, Kind::Checkpoint, compute);
}

std::optional<WindowImage>
SimCache::longestWindow(const std::string &prefix_key,
                        std::uint64_t window)
{
    obs::ScopedPhase profile(profile_slot_, obs::Phase::CacheProbe);

    std::vector<std::uint64_t> stored;
    std::error_code ec;
    for (fs::directory_iterator it(dir_ / (prefix_key + ".windows"), ec),
         end;
         !ec && it != end; it.increment(ec)) {
        const std::optional<std::uint64_t> w =
            windowOf(it->path().filename().string());
        if (w && *w <= window)
            stored.push_back(*w);
    }
    std::sort(stored.rbegin(), stored.rend());
    for (const std::uint64_t w : stored) {
        // A file that fails the check is gone now (so is one another
        // process removed since the listing): try a shorter one.
        std::optional<std::vector<std::uint8_t>> image =
            readEntry(windowPath(prefix_key, w));
        if (!image)
            continue;
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.window_hits;
        return WindowImage{w, std::move(*image)};
    }
    return std::nullopt;
}

void
SimCache::storeWindow(const std::string &prefix_key, std::uint64_t window,
                      const std::vector<std::uint8_t> &image)
{
    const fs::path path = windowPath(prefix_key, window);
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec) {
        throw std::runtime_error("cache store failed creating " +
                                 path.parent_path().string() + ": " +
                                 ec.message());
    }
    writeAtomically(path, image);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.window_stores;
}

void
SimCache::removeWindow(const std::string &prefix_key,
                       std::uint64_t window)
{
    std::error_code ec;
    fs::remove(windowPath(prefix_key, window), ec);
}

CacheStats
SimCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace cache
} // namespace locsim
