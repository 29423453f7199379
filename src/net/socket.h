// Thin RAII + error-string wrappers over POSIX TCP sockets.
//
// Everything the service tier needs and nothing more: an owning fd, an
// IPv4 listener (loopback by default), a blocking connector for clients,
// and send/recv helpers that fold EINTR handling in one place. Errors are
// reported bool + message, matching the dataset-I/O idiom — the network
// layer never throws for I/O outcomes.

#ifndef OSD_NET_SOCKET_H_
#define OSD_NET_SOCKET_H_

#include <sys/types.h>

#include <string>

namespace osd {
namespace net {

/// Move-only owning file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  /// Releases ownership of the fd to the caller.
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (IPv4 dotted quad; port 0 picks a free
/// port — read it back with LocalPort). The listener is non-blocking and
/// close-on-exec.
bool ListenTcp(const std::string& host, int port, Socket* out,
               std::string* error);

/// Blocking connect to host:port (IPv4 dotted quad).
bool ConnectTcp(const std::string& host, int port, Socket* out,
                std::string* error);

/// The locally bound port of a socket (resolves port-0 listeners).
int LocalPort(const Socket& socket);

/// Switches an fd to non-blocking mode.
bool SetNonBlocking(int fd, std::string* error);

/// Turns off Nagle on a connected TCP socket. Both ends of every wire
/// connection call this: streamed frames are small back-to-back writes,
/// and under Nagle each one after the first waits out the peer's delayed
/// ACK (~40 ms on Linux). Best effort — a failure only costs latency.
void SetNoDelay(int fd);

/// Blocking write of the whole buffer (retries EINTR and partial writes).
bool SendAll(int fd, const char* data, size_t size, std::string* error);

/// One blocking read; returns bytes read, 0 on orderly EOF, -1 on error
/// (EINTR folded in).
ssize_t RecvSome(int fd, char* buffer, size_t size);

}  // namespace net
}  // namespace osd

#endif  // OSD_NET_SOCKET_H_
