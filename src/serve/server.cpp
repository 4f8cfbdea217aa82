#include "serve/server.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

namespace ara::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void close_quiet(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Upper bound on one blocking reply write. A peer that stops reading
/// (zero receive window) makes write_frame fail with EWOULDBLOCK after
/// this long; Connection::send then marks the socket broken, so the
/// stalled client forfeits its replies instead of wedging one of the
/// few dispatch slots and blocking drain()/stop() forever.
constexpr timeval kSendTimeout{10, 0};

}  // namespace

// ---- Endpoint ----

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      throw std::invalid_argument("Endpoint: empty unix socket path");
    }
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::invalid_argument("Endpoint: unix socket path too long");
    }
    return ep;
  }
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument(
        "Endpoint: expected unix:PATH or HOST:PORT, got \"" + spec + "\"");
  }
  ep.kind = Kind::kTcp;
  ep.host = colon == 0 ? "127.0.0.1" : spec.substr(0, colon);
  if (ep.host == "localhost") ep.host = "127.0.0.1";
  const std::string port = spec.substr(colon + 1);
  char* end = nullptr;
  const long value = std::strtol(port.c_str(), &end, 10);
  if (port.empty() || *end != '\0' || value < 0 || value > 65535) {
    throw std::invalid_argument("Endpoint: bad port \"" + port + "\"");
  }
  ep.port = static_cast<std::uint16_t>(value);
  return ep;
}

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

namespace {

int connect_endpoint(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("connect(" + ep.describe() + ")");
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::invalid_argument("Endpoint: bad IPv4 host \"" + ep.host + "\"");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + ep.describe() + ")");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

// ---- ServeServer::Connection ----

ServeServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

void ServeServer::Connection::send(const ServeReply& reply) {
  const std::string payload = encode_reply(reply);
  std::lock_guard<std::mutex> lock(write_mutex);
  if (broken) return;
  try {
    write_frame(fd, MessageType::kReply, payload);
  } catch (const std::exception&) {
    // The client vanished mid-reply or stalled past the send timeout;
    // it forfeited this answer. Mark the socket so later replies stop
    // trying.
    broken = true;
  }
}

// ---- ServeServer ----

ServeServer::ServeServer(AnalysisService& service, const Endpoint& endpoint)
    : service_(service), endpoint_(endpoint) {
  if (::pipe2(stop_pipe_, O_CLOEXEC) != 0) throw_errno("pipe2");

  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw_errno("socket(AF_UNIX)");
    ::unlink(endpoint_.path.c_str());  // stale socket from a prior run
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint_.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind(" + endpoint_.describe() + ")");
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint_.port);
    if (::inet_pton(AF_INET, endpoint_.host.c_str(), &addr.sin_addr) != 1) {
      throw std::invalid_argument("Endpoint: bad IPv4 host \"" +
                                  endpoint_.host + "\"");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind(" + endpoint_.describe() + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
      endpoint_.port = port_;
    }
  }
  if (::listen(listen_fd_, 128) != 0) {
    throw_errno("listen(" + endpoint_.describe() + ")");
  }
}

ServeServer::~ServeServer() {
  stop();
  close_quiet(listen_fd_);
  close_quiet(stop_pipe_[0]);
  close_quiet(stop_pipe_[1]);
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

void ServeServer::start() {
  std::signal(SIGPIPE, SIG_IGN);
  if (!accept_thread_.joinable()) {
    accept_thread_ = std::thread([this] { accept_loop(); });
  }
}

void ServeServer::stop() {
  if (!stopping_.exchange(true)) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(stop_pipe_[1], &byte, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Wake every blocked reader: EOF on the receive side.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& weak : connections_) {
      if (const auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (Reader& reader : readers_) {
    if (reader.thread.joinable()) reader.thread.join();
  }
  readers_.clear();
}

void ServeServer::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0 || stopping_.load()) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    if (endpoint_.kind == Endpoint::Kind::kTcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kSendTimeout,
                 sizeof kSendTimeout);
    connections_accepted_.fetch_add(1);
    auto conn = std::make_shared<Connection>(fd);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock(connections_mutex_);
    reap_finished_locked();
    connections_.push_back(conn);
    readers_.push_back(Reader{
        std::thread([this, conn = std::move(conn), done]() mutable {
          reader_loop(std::move(conn));
          done->store(true);
        }),
        done});
  }
}

void ServeServer::reap_finished_locked() {
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (it->done->load()) {
      it->thread.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
  std::erase_if(connections_, [](const std::weak_ptr<Connection>& weak) {
    return weak.expired();
  });
}

void ServeServer::reader_loop(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(conn->fd);
    } catch (const std::exception&) {
      break;  // protocol violation or torn connection: stop reading
    }
    if (!frame) break;  // clean EOF (or half-close)
    if (frame->type != MessageType::kRequest) break;

    ServeRequest request;
    std::size_t wire_bytes = frame->payload.size();
    try {
      request = decode_request(frame->payload);
    } catch (const std::exception&) {
      // Undecodable payload: no request_id to correlate — the frame
      // layer was intact, so the stream is still framed; answer with a
      // generic error and keep reading.
      ServeReply reply;
      reply.status = Status::kError;
      reply.message = "undecodable request payload";
      conn->send(reply);
      continue;
    }
    service_.submit(
        std::move(request),
        [conn](ServeReply&& reply) { conn->send(reply); }, wire_bytes);
  }
  // Replies still in flight hold their own shared_ptr; dropping ours
  // here closes the fd only once the last of them is written.
}

// ---- ServeClient ----

ServeClient::ServeClient(const Endpoint& endpoint)
    : fd_(connect_endpoint(endpoint)) {}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

void ServeClient::send(const ServeRequest& request) {
  write_frame(fd_, MessageType::kRequest, encode_request(request));
}

std::optional<ServeReply> ServeClient::receive() {
  std::optional<Frame> frame = read_frame(fd_);
  if (!frame) return std::nullopt;
  if (frame->type != MessageType::kReply) {
    throw std::runtime_error("ServeClient: unexpected frame type");
  }
  return decode_reply(frame->payload);
}

ServeReply ServeClient::call(const ServeRequest& request) {
  send(request);
  std::optional<ServeReply> reply = receive();
  if (!reply) {
    throw std::runtime_error("ServeClient: server closed before replying");
  }
  return *reply;
}

void ServeClient::finish_sending() { ::shutdown(fd_, SHUT_WR); }

}  // namespace ara::serve
