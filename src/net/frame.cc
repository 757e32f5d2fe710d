#include "net/frame.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/bytes.h"

namespace fq::net {

namespace {

/** Milliseconds left before @p deadline, clamped at 0; -1 = no deadline. */
int
remaining_ms(int timeout_ms,
             std::chrono::steady_clock::time_point deadline)
{
    if (timeout_ms < 0)
        return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    return left > 0 ? static_cast<int>(left) : 0;
}

/** Read exactly @p size bytes, honoring the deadline via poll(). */
void
read_exact(int fd, std::uint8_t* buf, std::size_t size, int timeout_ms,
           std::chrono::steady_clock::time_point deadline)
{
    std::size_t got = 0;
    while (got < size) {
        if (timeout_ms >= 0) {
            struct pollfd pfd{};
            pfd.fd = fd;
            pfd.events = POLLIN;
            const int left = remaining_ms(timeout_ms, deadline);
            const int rc = ::poll(&pfd, 1, left);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                throw NetError(std::string("net: poll failed: ") +
                               std::strerror(errno));
            }
            if (rc == 0)
                throw NetTimeout("net: read timed out mid-frame");
        }
        const ssize_t n = ::read(fd, buf + got, size - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw NetError(std::string("net: read failed: ") +
                           std::strerror(errno));
        }
        if (n == 0)
            throw NetError("net: connection closed mid-frame");
        got += static_cast<std::size_t>(n);
    }
}

} // namespace

std::size_t
frame_wire_size(std::size_t payload_size)
{
    return common::kFrameHeaderBytes + payload_size;
}

std::vector<std::uint8_t>
encode_frame(std::uint32_t type, const std::vector<std::uint8_t>& payload)
{
    return common::encode_crc_frame(kFrameMagic, type, payload);
}

void
write_frame(int fd, std::uint32_t type,
            const std::vector<std::uint8_t>& payload)
{
    const auto bytes = encode_frame(type, payload);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        // MSG_NOSIGNAL: a dead peer must surface as NetError (EPIPE), not
        // kill the process with SIGPIPE. Pipes (test fixtures) reject
        // send(); they take write().
        ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw NetError(std::string("net: write failed: ") +
                           std::strerror(errno));
        }
        sent += static_cast<std::size_t>(n);
    }
}

Frame
read_frame(int fd, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(
                              timeout_ms >= 0 ? timeout_ms : 0);
    std::uint8_t header_bytes[common::kFrameHeaderBytes];
    read_exact(fd, header_bytes, sizeof(header_bytes), timeout_ms, deadline);
    const auto header = common::parse_frame_header<NetError>(
        header_bytes, sizeof(header_bytes), kFrameMagic, "net: frame");
    if (header.length > kMaxFramePayload)
        throw NetError("net: frame length exceeds limit (corrupt stream)");
    Frame frame;
    frame.type = header.tag;
    frame.payload.resize(static_cast<std::size_t>(header.length));
    read_exact(fd, frame.payload.data(), frame.payload.size(), timeout_ms,
               deadline);
    common::verify_frame_payload<NetError>(header, frame.payload.data(),
                                           frame.payload.size(),
                                           "net: frame");
    return frame;
}

} // namespace fq::net
