#pragma once
// Malformed client sessions shared by the server and router tests. Each
// session costs its peer exactly one protocol error, which both counter
// surfaces (StatsReply and the Prometheus scrape) must record alike.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "server/socket.hpp"
#include "server/wire.hpp"

namespace hypercover::testing_sessions {

/// Sessions played by play_malformed_sessions().
inline constexpr std::uint64_t kMalformedSessions = 5;

inline void greet(server::Socket& sock) {
  server::PayloadWriter hello;
  hello.u32(server::kProtocolVersion);
  server::write_frame(sock, server::FrameTag::kHello, hello.take());
  server::Frame reply;
  ASSERT_TRUE(server::read_frame(sock, reply));
  ASSERT_EQ(reply.tag, server::FrameTag::kHelloOk);
}

inline void expect_error_reply(server::Socket& sock) {
  server::Frame reply;
  ASSERT_TRUE(server::read_frame(sock, reply));
  EXPECT_EQ(reply.tag, server::FrameTag::kError);
}

/// Plays, on fresh connections to `address`: a non-Hello first frame,
/// a Hello at another protocol version, a request with trailing payload
/// bytes, an unknown frame tag, and a truncated frame.
inline void play_malformed_sessions(const std::string& address) {
  {
    server::Socket sock = server::connect_to(address);
    server::write_frame(sock, server::FrameTag::kStats);
    expect_error_reply(sock);
  }
  {
    server::Socket sock = server::connect_to(address);
    server::PayloadWriter hello;
    hello.u32(server::kProtocolVersion - 1);
    server::write_frame(sock, server::FrameTag::kHello, hello.take());
    expect_error_reply(sock);
  }
  {
    server::Socket sock = server::connect_to(address);
    greet(sock);
    server::write_frame(sock, server::FrameTag::kStats, {0xAA});
    expect_error_reply(sock);
  }
  {
    server::Socket sock = server::connect_to(address);
    greet(sock);
    const std::vector<std::uint8_t> junk = {0, 0, 0, 0, 0xee};
    sock.send_all(junk.data(), junk.size());
    expect_error_reply(sock);
  }
  {
    server::Socket sock = server::connect_to(address);
    std::vector<std::uint8_t> bytes = {100, 0, 0, 0, 1};  // promises 100
    bytes.resize(bytes.size() + 10, 0x42);                // sends 10
    sock.send_all(bytes.data(), bytes.size());
  }
}

/// The value of an unlabelled counter in a Prometheus scrape.
inline std::uint64_t scraped_counter(const std::string& text,
                                     const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) {
    ADD_FAILURE() << name << " missing from the scrape";
    return 0;
  }
  return std::stoull(text.substr(pos + key.size()));
}

/// Polls `count` until it reaches `want`: a truncated frame is counted by
/// the handler thread after the client has already gone.
inline void wait_for_count(const std::function<std::uint64_t()>& count,
                           std::uint64_t want) {
  for (int i = 0; i < 200 && count() < want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace hypercover::testing_sessions
