#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>

#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

namespace osd {
namespace net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool MakeAddress(const std::string& host, int port, sockaddr_in* addr,
                 std::string* error) {
  if (port < 0 || port > 65535) {
    if (error != nullptr) *error = "port out of range";
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    if (error != nullptr) {
      *error = "invalid IPv4 address '" + host + "'";
    }
    return false;
  }
  return true;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool SetNonBlocking(int fd, std::string* error) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    if (error != nullptr) *error = Errno("fcntl(O_NONBLOCK)");
    return false;
  }
  return true;
}

void SetNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool ListenTcp(const std::string& host, int port, Socket* out,
               std::string* error) {
  sockaddr_in addr;
  if (!MakeAddress(host, port, &addr, error)) return false;
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = Errno("socket");
    return false;
  }
  const int one = 1;
  setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = Errno("bind " + host + ":" + std::to_string(port));
    }
    return false;
  }
  if (listen(sock.fd(), 128) != 0) {
    if (error != nullptr) *error = Errno("listen");
    return false;
  }
  if (!SetNonBlocking(sock.fd(), error)) return false;
  *out = std::move(sock);
  return true;
}

bool ConnectTcp(const std::string& host, int port, Socket* out,
                std::string* error) {
  sockaddr_in addr;
  if (!MakeAddress(host, port, &addr, error)) return false;
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = Errno("socket");
    return false;
  }
  int rc;
  do {
    rc = connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (error != nullptr) {
      *error = Errno("connect " + host + ":" + std::to_string(port));
    }
    return false;
  }
  SetNoDelay(sock.fd());
  *out = std::move(sock);
  return true;
}

int LocalPort(const Socket& socket) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return -1;
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

bool SendAll(int fd, const char* data, size_t size, std::string* error) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("send");
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

ssize_t RecvSome(int fd, char* buffer, size_t size) {
  ssize_t n;
  do {
    n = ::recv(fd, buffer, size, 0);
  } while (n < 0 && errno == EINTR);
  return n;
}

}  // namespace net
}  // namespace osd
