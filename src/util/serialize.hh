/**
 * @file
 * Binary serialization primitives for checkpoints and cached
 * simulation artifacts.
 *
 * The format is deliberately boring: little-endian fixed-width
 * integers, doubles as their IEEE-754 bit patterns, strings and
 * containers length-prefixed. No framing, no self-description — the
 * reader must know the layout, and every persistent consumer embeds a
 * schema version in its own header (see src/cache and
 * machine::Machine::saveCheckpoint) so stale bytes are never
 * misparsed, only discarded.
 *
 * Doubles round-trip through std::bit_cast, so a deserialized
 * Measurement is bit-identical to the one serialized — a requirement
 * for the cache's "warm output is byte-identical" contract.
 *
 * Header-only and dependency-free (no logging) so every layer,
 * including stats at the bottom of the stack, can serialize itself.
 *
 * Persistent inputs are untrusted, so reads are checked where they
 * happen, and every rejection throws std::runtime_error (callers such
 * as the simulation cache treat it as a miss):
 *  - every read rejects truncated input;
 *  - getEnum(last) rejects a value past @c last, and raw get<T>()
 *    does not compile for an enum, so no enum is read unchecked;
 *  - getBelow<T>(bound) rejects an index or id outside [0, bound),
 *    and getBelowOr<T>(bound, none) all of those but @c none;
 *  - getBool() rejects any byte but 0 and 1;
 *  - getAfter(prev, first) rejects a key not above the one before;
 *  - fail(what) rejects for the other rules that span fields
 *    (duplicates, a copy that must equal its original).
 */

#ifndef LOCSIM_UTIL_SERIALIZE_HH_
#define LOCSIM_UTIL_SERIALIZE_HH_

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace locsim {
namespace util {

/** Appends primitive values to a growable byte buffer. */
class Serializer
{
  public:
    /** Append an integral value, or an enum as its underlying type,
     *  little-endian. */
    template <typename T>
    void
    put(T value)
    {
        if constexpr (std::is_enum_v<T>) {
            put(static_cast<std::underlying_type_t<T>>(value));
        } else {
            static_assert(std::is_integral_v<T>,
                          "put() takes integral or enum types");
            const auto bits = static_cast<std::uint64_t>(
                static_cast<std::make_unsigned_t<T>>(value));
            for (std::size_t i = 0; i < sizeof(T); ++i)
                bytes_.push_back(
                    static_cast<std::uint8_t>(bits >> (8 * i)));
        }
    }

    void put(bool value) { put<std::uint8_t>(value ? 1 : 0); }

    /** Append a double as its IEEE-754 bit pattern (exact). */
    void
    putDouble(double value)
    {
        put(std::bit_cast<std::uint64_t>(value));
    }

    /** Append a length-prefixed string. */
    void
    putString(const std::string &s)
    {
        put<std::uint64_t>(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    /** Append raw bytes (caller knows the length). */
    void
    putBytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        bytes_.insert(bytes_.end(), p, p + size);
    }

    const std::vector<std::uint8_t> &buffer() const { return bytes_; }
    std::vector<std::uint8_t> takeBuffer() { return std::move(bytes_); }
    std::size_t size() const { return bytes_.size(); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Reads primitive values back out of a byte buffer. The buffer is
 * borrowed, not owned; it must outlive the deserializer.
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Deserializer(const std::vector<std::uint8_t> &bytes)
        : Deserializer(bytes.data(), bytes.size())
    {
    }

    /** Read an integral value written by Serializer::put. */
    template <typename T>
    T
    get()
    {
        static_assert(!std::is_enum_v<T> && !std::is_same_v<T, bool> &&
                          std::is_integral_v<T>,
                      "get() reads integers: read an enum with getEnum() "
                      "and a bool with getBool()");
        constexpr std::size_t n = sizeof(T);
        need(n);
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < n; ++i)
            bits |= static_cast<std::uint64_t>(data_[pos_ + i])
                    << (8 * i);
        pos_ += n;
        return static_cast<T>(static_cast<std::make_unsigned_t<T>>(bits));
    }

    /** Read a T that must lie in [0, @p bound): an index or node id. */
    template <typename T, typename B>
    T
    getBelow(B bound)
    {
        const T value = get<T>();
        if (!below(value, bound))
            fail("index or id out of range");
        return value;
    }

    /** getBelow(), but @p none (such as kNodeNone) is let through. */
    template <typename T, typename B>
    T
    getBelowOr(B bound, T none)
    {
        const T value = get<T>();
        if (value != none && !below(value, bound))
            fail("index or id out of range");
        return value;
    }

    /** Read an enum whose enumerators run from 0 to @p last. */
    template <typename E>
    E
    getEnum(E last)
    {
        using Under = std::underlying_type_t<E>;
        return static_cast<E>(
            getBelow<Under>(static_cast<Under>(last) + 1));
    }

    /** Read the next key of a strictly ascending list: @p prev holds
     *  the key before it (ignored when @p first) and takes this one. */
    template <typename T>
    T
    getAfter(T &prev, bool first)
    {
        const T key = get<T>();
        if (!first && key <= prev)
            fail("keys out of order or repeated");
        return prev = key;
    }

    bool getBool() { return getBelow<std::uint8_t>(2) != 0; }

    double
    getDouble()
    {
        return std::bit_cast<double>(get<std::uint64_t>());
    }

    std::string
    getString()
    {
        const auto n =
            static_cast<std::size_t>(get<std::uint64_t>());
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    void
    getBytes(void *out, std::size_t size)
    {
        need(size);
        auto *p = static_cast<std::uint8_t *>(out);
        for (std::size_t i = 0; i < size; ++i)
            p[i] = data_[pos_ + i];
        pos_ += size;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

    /** Reject the input for a rule no checked read states. */
    [[noreturn]] static void
    fail(const std::string &what)
    {
        throw std::runtime_error("malformed input: " + what);
    }

  private:
    template <typename T, typename B>
    static bool
    below(T value, B bound)
    {
        return !std::cmp_less(value, 0) && std::cmp_less(value, bound);
    }

    void
    need(std::size_t n) const
    {
        if (size_ - pos_ < n)
            fail("truncated");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace util
} // namespace locsim

#endif // LOCSIM_UTIL_SERIALIZE_HH_
