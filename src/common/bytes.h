/**
 * @file
 * The one little-endian byte codec for wire messages, net frames and
 * checkpoints. ByteWriter<Len> appends fixed-width values; Len types the
 * length prefix of strings and lists (u64 on the wire, u32 in
 * checkpoints). ByteReader<ErrorT, Len> is its bounds-checked mirror:
 * every overrun throws the caller's typed ErrorT, and a list count the
 * remaining bytes cannot hold is refused before anything is allocated.
 * Net frames and checkpoint files share one 20-byte CRC frame header,
 * `magic u32 | tag u32 | length u64 | crc u32`, whose tag is the message
 * type (net) or the format version (checkpoint).
 */
#ifndef FQ_COMMON_BYTES_H
#define FQ_COMMON_BYTES_H

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"

namespace fq::common {

/** Bit-exact 64-bit view of a double (NaN payloads and -0.0 included). */
inline std::uint64_t
double_bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** A list of u64 pairs: the (state, count) form of a sampled histogram. */
using U64Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

template <typename Len>
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
    void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
    void f64(double v) { put(double_bits(v)); }
    /** The element count of the list that follows. */
    void len(std::size_t n) { put(static_cast<Len>(n)); }

    void
    str(const std::string& s)
    {
        len(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    void
    i32s(const std::vector<std::int32_t>& v)
    {
        len(v.size());
        for (const std::int32_t x : v)
            i32(x);
    }

    void
    u64_pairs(const U64Pairs& v)
    {
        len(v.size());
        for (const auto& [a, b] : v) {
            u64(a);
            u64(b);
        }
    }

    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    template <typename U>
    void
    put(U v)
    {
        for (std::size_t k = 0; k < sizeof(U); ++k)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
    }

    std::vector<std::uint8_t> bytes_;
};

template <typename ErrorT, typename Len>
class ByteReader
{
  public:
    /** @p what names the bytes in error messages ("net: message"). */
    ByteReader(const std::uint8_t* data, std::size_t size, const char* what)
        : data_(data), size_(size), what_(what)
    {
    }

    std::uint8_t u8() { return *take(1); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    f64()
    {
        const std::uint64_t u = u64();
        double v = 0.0;
        std::memcpy(&v, &u, sizeof(v));
        return v;
    }

    /** A list count for records of at least @p record_bytes bytes each,
     *  refused when the remaining bytes cannot hold that many. */
    std::size_t
    count(std::size_t record_bytes)
    {
        const std::uint64_t n = get<Len>();
        if (n > remaining() / record_bytes)
            fail(" list count " + std::to_string(n) + " exceeds the " +
                 std::to_string(remaining()) + " remaining bytes");
        return static_cast<std::size_t>(n);
    }

    std::string
    str()
    {
        const std::size_t n = count(1);
        return std::string(reinterpret_cast<const char*>(take(n)), n);
    }

    std::vector<std::int32_t>
    i32s()
    {
        std::vector<std::int32_t> v(count(4));
        for (auto& x : v)
            x = i32();
        return v;
    }

    U64Pairs
    u64_pairs()
    {
        U64Pairs v(count(16));
        for (auto& [a, b] : v) {
            a = u64();
            b = u64();
        }
        return v;
    }

    /** The next @p n bytes, consumed. */
    const std::uint8_t*
    take(std::size_t n)
    {
        if (n > remaining())
            fail(" truncated: need " + std::to_string(n) +
                 " more bytes at offset " + std::to_string(pos_) + " of " +
                 std::to_string(size_));
        pos_ += n;
        return data_ + pos_ - n;
    }

    std::size_t remaining() const { return size_ - pos_; }

    /** Throws unless every byte was consumed. */
    void
    finish() const
    {
        if (remaining() != 0)
            fail(" has " + std::to_string(remaining()) + " trailing bytes");
    }

  private:
    template <typename U>
    U
    get()
    {
        const std::uint8_t* p = take(sizeof(U));
        U v = 0;
        for (std::size_t k = 0; k < sizeof(U); ++k)
            v |= static_cast<U>(p[k]) << (8 * k);
        return v;
    }

    [[noreturn]] void
    fail(const std::string& why) const
    {
        throw ErrorT(what_ + why);
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    const char* what_;
};

// ------------------------------------------------------ CRC frame --

constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 4;

struct FrameHeader
{
    std::uint32_t tag;
    std::uint64_t length;
    std::uint32_t crc;
};

/** Header + payload in one buffer. */
inline std::vector<std::uint8_t>
encode_crc_frame(std::uint32_t magic, std::uint32_t tag,
                 const std::vector<std::uint8_t>& payload)
{
    ByteWriter<std::uint64_t> out;
    out.u32(magic);
    out.u32(tag);
    out.u64(payload.size());
    out.u32(crc32(payload.data(), payload.size()));
    auto bytes = out.take();
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    return bytes;
}

/** The header at the front of @p data; ErrorT when fewer than
 *  kFrameHeaderBytes bytes are given or the magic is not @p magic. */
template <typename ErrorT>
FrameHeader
parse_frame_header(const std::uint8_t* data, std::size_t size,
                   std::uint32_t magic, const char* what)
{
    ByteReader<ErrorT, std::uint64_t> in(data, size, what);
    if (in.u32() != magic)
        throw ErrorT(std::string(what) + ": bad magic");
    // Braced initializers evaluate left to right: tag, length, crc.
    return FrameHeader{in.u32(), in.u64(), in.u32()};
}

/** ErrorT unless the @p size payload bytes are the ones @p header
 *  describes: same length, same CRC-32. */
template <typename ErrorT>
void
verify_frame_payload(const FrameHeader& header, const std::uint8_t* payload,
                     std::size_t size, const char* what)
{
    if (header.length != size)
        throw ErrorT(std::string(what) + ": header says " +
                     std::to_string(header.length) + " payload bytes, " +
                     std::to_string(size) + " follow");
    if (crc32(payload, size) != header.crc)
        throw ErrorT(std::string(what) + ": payload CRC mismatch");
}

} // namespace fq::common

#endif // FQ_COMMON_BYTES_H
