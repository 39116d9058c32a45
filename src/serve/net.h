// Minimal POSIX TCP helpers shared by the hk_serve listener, the
// tcp:// capture source, and the hk_cli query client. IPv4 loopback-class
// plumbing only - the daemon is an operational tool, not a hardened
// network service (run it behind the usual perimeter).
#ifndef HK_SERVE_NET_H_
#define HK_SERVE_NET_H_

#include <cstdint>
#include <string>

namespace hk {

// Listen on 127.0.0.1:<port> (port 0 = ephemeral). Returns the listening
// fd, or -1 with *err set. *bound_port receives the actual port.
int ListenTcp(uint16_t port, uint16_t* bound_port, std::string* err);

// Blocking connect to host:port (numeric IPv4 or "localhost"). Returns the
// fd, or -1 with *err set.
int ConnectTcp(const std::string& host, uint16_t port, std::string* err);

// Turn off Nagle on a connected socket, so the tail segment of a
// multi-segment reply is sent at once instead of waiting for the peer's
// delayed ACK. Both ends of every protocol connection set it.
void SetTcpNoDelay(int fd);

// Parse "tcp://host:port". Returns false on malformed input.
bool ParseTcpEndpoint(const std::string& text, std::string* host, uint16_t* port);

// write(2) the whole buffer, retrying EINTR / short writes.
bool WriteAll(int fd, const char* data, size_t size);

// How a ReadLineEx call ended. EINTR and short reads are retried inside;
// none of these statuses ever means "try the same call again".
enum class ReadLineStatus {
  kLine,       // *line holds a complete request line
  kEof,        // clean disconnect: EOF with an empty carry buffer
  kTruncated,  // EOF with a partial line buffered (client died mid-request)
  kError,      // recv failed (connection reset and friends)
};

// Read one '\n'-terminated line (newline stripped, CR tolerated) through a
// caller-held carry buffer. Distinguishes a clean disconnect from a
// connection that died mid-line or errored, so servers can count protocol
// errors instead of treating every short read as a polite goodbye.
ReadLineStatus ReadLineEx(int fd, std::string* carry, std::string* line);

// Compatibility wrapper: true only for kLine (clients that retry or close
// either way do not care which way the stream ended).
inline bool ReadLine(int fd, std::string* carry, std::string* line) {
  return ReadLineEx(fd, carry, line) == ReadLineStatus::kLine;
}

}  // namespace hk

#endif  // HK_SERVE_NET_H_
