/**
 * @file
 * Wire framing for the distributed-execution protocol: length-prefixed,
 * CRC-checked message frames over a stream socket (Unix or TCP).
 *
 * A frame is the CRC frame of common/bytes.h, the one checkpoint files
 * use too: magic "FQNW", the message type (net/wire.h) as its tag, then
 * the u64 payload length, the payload's CRC-32 and the payload.
 *
 * Every defect a stream can exhibit — short read (peer died), bad magic,
 * oversized length, CRC mismatch — surfaces as a typed NetError, and a
 * read deadline as NetTimeout, so callers (the WorkerPool's hedging
 * logic above all) can tell "worker is gone/corrupt" from ordinary
 * errors and re-dispatch.
 */
#ifndef FQ_NET_FRAME_H
#define FQ_NET_FRAME_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace fq::net {

/** Any wire-protocol failure: EOF mid-frame, bad magic, CRC mismatch,
 *  malformed payload, socket errors. */
class NetError : public fq::Error
{
  public:
    using Error::Error;
};

/** A read deadline expired with the peer still silent — the signal the
 *  WorkerPool treats as "worker dead or too slow; hedge its leaves". */
class NetTimeout : public NetError
{
  public:
    using NetError::NetError;
};

/** "FQNW" little-endian. */
constexpr std::uint32_t kFrameMagic = 0x574E5146u;

/** Upper bound on a frame payload — a corrupted length field must fail
 *  fast instead of driving a multi-gigabyte allocation. */
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/** One decoded frame. */
struct Frame
{
    std::uint32_t type = 0;
    std::vector<std::uint8_t> payload;
};

/** Bytes a frame with @p payload_size payload bytes occupies on the wire
 *  (header + payload) — the unit of the bytes_sent/received diagnostics. */
std::size_t frame_wire_size(std::size_t payload_size);

/** Serialize a frame (header + payload) into a byte buffer. */
std::vector<std::uint8_t> encode_frame(std::uint32_t type,
                                       const std::vector<std::uint8_t>&
                                           payload);

/** Write one frame to @p fd, handling partial writes; NetError on any
 *  socket failure (EPIPE included — SIGPIPE is suppressed). */
void write_frame(int fd, std::uint32_t type,
                 const std::vector<std::uint8_t>& payload);

/**
 * Read one complete frame from @p fd. @p timeout_ms < 0 blocks forever;
 * otherwise the WHOLE frame must arrive within the deadline or NetTimeout
 * is thrown. NetError on EOF, bad magic, oversized length or CRC mismatch.
 */
Frame read_frame(int fd, int timeout_ms = -1);

} // namespace fq::net

#endif // FQ_NET_FRAME_H
