#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/socket.h"
#include "obs/trace.h"

namespace wfit::net {

namespace {

// Installs the request's wire trace context around the handler and wraps
// it in a server-side span, so the client's "cli.<type>" span becomes the
// parent of "srv.<type>" even across processes.
Response RunTraced(const Server::Handler& handler, const Request& req) {
  obs::ScopedTraceContext ctx(
      obs::TraceContext{req.trace_id, req.parent_span});
  char span_name[24];
  std::snprintf(span_name, sizeof(span_name), "srv.%s",
                MsgTypeName(req.type));
  obs::SpanGuard span(span_name);
  if (!req.tenant.empty()) span.SetDetail(req.tenant);
  return handler(req);
}

}  // namespace

Server::Server(Handler fast, Handler slow, SlowPredicate is_slow,
               ServerOptions options)
    : fast_(std::move(fast)),
      slow_(std::move(slow)),
      is_slow_(std::move(is_slow)),
      options_(std::move(options)) {
  WFIT_CHECK(fast_ != nullptr, "Server requires a fast handler");
  if (slow_ == nullptr) slow_ = fast_;
  if (is_slow_ == nullptr) is_slow_ = [](MsgType) { return false; };
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  WFIT_CHECK(!started_, "Server::Start called twice");
  auto listener = ListenTcp(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = *listener;
  auto port = LocalPort(listen_fd_);
  if (!port.ok()) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = *port;
  WFIT_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Status::Internal(std::string("epoll/eventfd: ") +
                            std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  started_ = true;
  loop_thread_ = std::thread([this] { EventLoop(); });
  const size_t workers = std::max<size_t>(options_.admin_workers, 1);
  for (size_t i = 0; i < workers; ++i) {
    admin_threads_.emplace_back([this] { AdminLoop(); });
  }
  return Status::Ok();
}

void Server::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  stop_.store(true);
  WakeLoop();
  loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    admin_stop_ = true;
  }
  admin_cv_.notify_all();
  for (std::thread& t : admin_threads_) t.join();
  admin_threads_.clear();
  // Best-effort final flush so a response produced during shutdown (e.g.
  // the reply to kShutdownNode itself) still reaches the peer.
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->dead && !conn->out.empty()) {
      (void)WriteAll(fd, conn->out);
    }
    conn->dead = true;
    CloseFd(fd);
  }
  conns_.clear();
  CloseFd(listen_fd_);
  CloseFd(epoll_fd_);
  CloseFd(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

void Server::WakeLoop() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
  (void)rc;  // eventfd counter saturation is fine; the loop wakes anyway
}

void Server::EventLoop() {
  std::vector<epoll_event> events(64);
  while (!stop_.load()) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), /*timeout=*/250);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;  // the sweep below picks up whatever changed
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        std::lock_guard<std::mutex> lock(it->second->mu);
        it->second->dead = true;
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(it->second);
      // Writes happen in the sweep; EPOLLOUT just wakes us for it.
    }
    SweepConns();
  }
}

void Server::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(options_.max_frame_bytes);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseFd(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
  }
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  // Pull every available byte first (edge-tolerant under level-triggered
  // epoll; one pass per wakeup).
  char buf[64 * 1024];
  bool peer_closed = false;
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->reader.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    peer_closed = true;  // hard socket error
    break;
  }
  // Extract and route complete frames, one at a time: dispatching can
  // flip the connection to busy (a slow RPC), which reroutes the REST of
  // the pipelined frames to the backlog for ordered handling.
  while (true) {
    std::string payload;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead || conn->closing) break;
      auto next = conn->reader.Next(&payload);
      if (!next.ok()) {
        // Structural damage (bad length prefix / CRC). Tell the peer why,
        // then flush-and-close — framing has no resync point.
        Response err = ErrResp(next.status());
        conn->out += EncodeFrame(EncodeResponse(err));
        conn->closing = true;
        break;
      }
      if (!*next) break;
      if (conn->busy) {
        conn->backlog.push_back(std::move(payload));
        continue;
      }
    }
    DispatchInline(conn, payload);
  }
  if (peer_closed) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->dead = true;
  }
}

void Server::DispatchInline(const std::shared_ptr<Conn>& conn,
                            const std::string& payload) {
  Request req;
  Status st = DecodeRequest(payload, &req);
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->out += EncodeFrame(EncodeResponse(ErrResp(st)));
    conn->closing = true;
    return;
  }
  if (is_slow_(req.type)) {
    bool shed = false;
    {
      // Capacity check and enqueue are atomic under admin_mu_; busy is
      // flipped inside the same critical section (conn->mu nests under
      // admin_mu_ here and nowhere else) so a shed never leaves a
      // connection parked busy with no admin job to un-park it.
      std::lock_guard<std::mutex> lock(admin_mu_);
      if (admin_queue_.size() >= options_.max_admin_queue) {
        shed = true;
      } else {
        {
          std::lock_guard<std::mutex> clock(conn->mu);
          conn->busy = true;
        }
        admin_queue_.push_back(AdminJob{conn, std::move(req)});
        admin_queue_depth_.store(admin_queue_.size());
      }
    }
    if (!shed) {
      admin_cv_.notify_one();
      return;
    }
    admin_shed_total_.fetch_add(1);
    Response busy;
    busy.kind = RespKind::kBusy;
    busy.message = "admin queue full";
    WriteResponse(conn, busy, /*from_event_loop=*/true);
    return;
  }
  Response resp = RunTraced(fast_, req);
  WriteResponse(conn, resp, /*from_event_loop=*/true);
}

void Server::WriteResponse(const std::shared_ptr<Conn>& conn,
                           const Response& resp, bool from_event_loop) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    conn->out += EncodeFrame(EncodeResponse(resp));
  }
  requests_served_.fetch_add(1);
  if (!from_event_loop) WakeLoop();
}

void Server::AdminLoop() {
  while (true) {
    AdminJob job;
    {
      std::unique_lock<std::mutex> lock(admin_mu_);
      admin_cv_.wait(lock,
                     [&] { return admin_stop_ || !admin_queue_.empty(); });
      if (admin_queue_.empty()) return;  // stop requested, queue drained
      job = std::move(admin_queue_.front());
      admin_queue_.pop_front();
      admin_queue_depth_.store(admin_queue_.size());
    }
    Response resp = RunTraced(slow_, job.request);
    WriteResponse(job.conn, resp, /*from_event_loop=*/false);
    // Drain frames that arrived while the slow RPC ran, in arrival
    // order. New frames may keep landing (busy stays true), so loop
    // until the backlog is empty at the moment we clear busy.
    while (true) {
      std::string payload;
      {
        std::lock_guard<std::mutex> lock(job.conn->mu);
        if (job.conn->backlog.empty() || job.conn->dead) {
          job.conn->busy = false;
          job.conn->backlog.clear();
          break;
        }
        payload = std::move(job.conn->backlog.front());
        job.conn->backlog.pop_front();
      }
      Request req;
      Status st = DecodeRequest(payload, &req);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(job.conn->mu);
        job.conn->out += EncodeFrame(EncodeResponse(ErrResp(st)));
        job.conn->closing = true;
        job.conn->busy = false;
        job.conn->backlog.clear();
        break;
      }
      // Either kind runs inline here — we ARE the admin thread, and the
      // fast handler is thread-safe by contract.
      Response backlog_resp =
          RunTraced(is_slow_(req.type) ? slow_ : fast_, req);
      WriteResponse(job.conn, backlog_resp, /*from_event_loop=*/false);
    }
    WakeLoop();
  }
}

void Server::SweepConns() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    const int fd = it->first;
    Conn* conn = it->second.get();
    bool reap = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->dead && !conn->out.empty()) {
        // Opportunistic nonblocking flush; leftovers wait for EPOLLOUT.
        ssize_t n = ::send(fd, conn->out.data(), conn->out.size(),
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          conn->out.erase(0, static_cast<size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          conn->dead = true;
        }
      }
      const bool want_out = !conn->dead && !conn->out.empty();
      if (want_out != conn->want_out) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        if (want_out) ev.events |= EPOLLOUT;
        ev.data.fd = fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
        conn->want_out = want_out;
      }
      if (conn->dead || (conn->closing && conn->out.empty())) {
        // A busy conn's admin job still holds the shared_ptr; it sees
        // `dead` and drops its writes.
        conn->dead = true;
        reap = true;
      }
    }
    if (reap) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      CloseFd(fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace wfit::net
