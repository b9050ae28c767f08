#include "store/store_client.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>

namespace ehdoe::store {

using namespace ehdoe::net;

namespace {

/// Resolve + connect with bounded connect and I/O times (SO_SNDTIMEO
/// covers connect() on Linux). Same shape as the eval client's dialer.
int connect_tcp(const std::string& host, std::uint16_t port, int timeout_seconds) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    const std::string port_str = std::to_string(port);
    if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &found) != 0 || !found)
        throw std::runtime_error("cannot resolve store endpoint " + host + ":" + port_str);

    int fd = -1;
    for (addrinfo* ai = found; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        if (timeout_seconds > 0) {
            timeval timeout{};
            timeout.tv_sec = timeout_seconds;
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
            ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(found);
    if (fd < 0)
        throw std::runtime_error("store endpoint " + host + ":" + port_str +
                                 " is unreachable");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

}  // namespace

StoreClient::StoreClient(const std::string& host, std::uint16_t port, int timeout_seconds)
    : endpoint_(host + ":" + std::to_string(port)) {
    fd_ = connect_tcp(host, port, timeout_seconds);
    std::string refusal;
    std::uint64_t server_now_us = 0;
    encode_store_hello(out_);
    if (!write_all(fd_, out_) || !read_reply(fd_, FrameKind::Welcome, in_, refusal) ||
        !decode_welcome(in_, server_now_us)) {
        ::close(fd_);
        fd_ = -1;
        if (!refusal.empty())
            throw std::runtime_error("store " + endpoint_ + " refused the handshake: " + refusal);
        throw std::runtime_error("store " + endpoint_ + ": handshake transport failure");
    }
    // The connection must never leak into forked pipe workers.
    register_parent_fd(fd_);
}

StoreClient::~StoreClient() {
    if (fd_ >= 0) {
        unregister_parent_fd(fd_);
        ::close(fd_);
    }
}

bool StoreClient::round_trip(FrameKind reply, std::string& refusal) {
    return write_all(fd_, out_) && read_reply(fd_, reply, in_, refusal);
}

std::vector<StoreLookup> StoreClient::get(const std::vector<std::string>& keys) {
    std::vector<StoreLookup> lookups;
    if (keys.empty()) return lookups;
    std::string refusal;
    out_.clear();
    encode_store_get(out_, keys);
    if (!round_trip(FrameKind::StoreGetReply, refusal) ||
        !decode_store_get_reply(in_, keys.size(), lookups))
        throw std::runtime_error("store " + endpoint_ + ": get-batch failed" +
                                 (refusal.empty() ? "" : ": " + refusal));
    return lookups;
}

std::uint64_t StoreClient::put(const std::vector<StoreEntry>& entries) {
    if (entries.empty()) return 0;
    std::uint64_t appended = 0;
    std::string refusal;
    out_.clear();
    encode_store_put(out_, entries);
    if (round_trip(FrameKind::StorePutReply, refusal) && decode_store_put_reply(in_, appended))
        return appended;
    if (!refusal.empty())
        throw std::runtime_error("store " + endpoint_ + " rejected put-batch: " + refusal);
    throw std::runtime_error("store " + endpoint_ + ": put-batch failed");
}

StoreStats StoreClient::stats() {
    StoreStats stats;
    std::string refusal;
    out_.clear();
    encode_store_stats_request(out_);
    if (!round_trip(FrameKind::StoreStatsReply, refusal) ||
        !decode_store_stats_reply(in_, stats))
        throw std::runtime_error("store " + endpoint_ + ": stats round-trip failed" +
                                 (refusal.empty() ? "" : ": " + refusal));
    return stats;
}

bool query_store_stats(const std::string& endpoint, net::StoreStats& stats,
                       std::string& error) {
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == endpoint.size()) {
        error = "bad store endpoint '" + endpoint + "' (want HOST:PORT)";
        return false;
    }
    char* end = nullptr;
    const unsigned long port = std::strtoul(endpoint.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || port == 0 || port > 65535) {
        error = "bad store endpoint '" + endpoint + "' (want HOST:PORT)";
        return false;
    }
    try {
        StoreClient client(endpoint.substr(0, colon),
                           static_cast<std::uint16_t>(port),
                           /*timeout_seconds=*/5);
        stats = client.stats();
        return true;
    } catch (const std::exception& e) {
        error = e.what();
        return false;
    }
}

}  // namespace ehdoe::store
