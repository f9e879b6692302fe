// Endpoint naming shared by the socket transport's users: `mdsd`, its
// clients (d2bench's load generator) and the lifecycle tests all describe
// a cluster as a comma-separated peer list
//
//   mds0=127.0.0.1:7100,mds1=127.0.0.1:7101,monitor=127.0.0.1:7190
//
// where each token names one Address (net/message.h): "client",
// "monitor", or "mds<N>". This header is the one place that mapping is
// defined, so flags, logs and tests cannot drift.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "d2tree/net/message.h"

namespace d2tree {

/// "client" / "monitor" / "mds<N>".
std::string AddressToken(const Address& addr);

/// Inverse of AddressToken; nullopt on anything else.
std::optional<Address> ParseAddressToken(const std::string& token);

struct PeerSpec {
  Address addr;
  std::string host_port;  // "host:port"

  bool operator==(const PeerSpec&) const = default;
};

/// Parses "name=host:port,name=host:port,...". nullopt on malformed
/// tokens, duplicate names, or a missing '='/':'.
std::optional<std::vector<PeerSpec>> ParsePeerList(const std::string& spec);

/// Splits "host:port" (port in [0, 65535]); false on malformed input.
[[nodiscard]] bool SplitHostPort(const std::string& host_port,
                                 std::string* host, std::uint16_t* port);

}  // namespace d2tree
