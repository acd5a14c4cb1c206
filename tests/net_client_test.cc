// Transport-failure coverage for net::Client and the wire codec: a hung
// peer, a torn response, a premature close, and chunked delivery on the
// client side; truncation, CRC damage, and version skew on the codec
// side. Every failure must surface as a descriptive Status — never an
// abort, never a hang past the configured timeout.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"

namespace wfit::net {
namespace {

// A one-connection scripted server: listens on an ephemeral port,
// accepts exactly one client, and hands the accepted fd to the script.
// The script owns the fd's lifetime up to close; the harness closes it
// afterwards regardless (safe on an already-closed fd only if the
// script leaves it open — scripts here never close it themselves).
class RawServer {
 public:
  explicit RawServer(std::function<void(int fd)> script) {
    auto listen = ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(listen.ok()) << listen.status().message();
    listen_fd_ = *listen;
    auto port = LocalPort(listen_fd_);
    EXPECT_TRUE(port.ok());
    port_ = *port;
    thread_ = std::thread([this, script = std::move(script)] {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      script(fd);
      CloseFd(fd);
    });
  }

  ~RawServer() {
    CloseFd(listen_fd_);  // unblocks accept if no client ever came
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

// Reads and discards one full frame (request) from the peer so the
// script can then misbehave on the response side.
void DrainOneFrame(int fd) {
  FrameReader reader;
  char buf[4096];
  std::string payload;
  while (true) {
    auto next = reader.Next(&payload);
    if (!next.ok() || *next) return;
    ssize_t n = RecvSome(fd, buf, sizeof(buf));
    if (n <= 0) return;
    reader.Feed(buf, static_cast<size_t>(n));
  }
}

Request PingRequest() {
  Request req;
  req.type = MsgType::kGetAnalyzed;
  req.tenant = "tenant-0";
  return req;
}

TEST(NetClientTest, TimeoutSurfacesCleanly) {
  RawServer server([](int fd) {
    DrainOneFrame(fd);
    // Never reply; hold the socket open until the harness closes it.
    char buf[64];
    while (RecvSome(fd, buf, sizeof(buf)) > 0) {
    }
  });

  Client client;
  Client::Options opts;
  opts.timeout_ms = 100;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), opts).ok());

  auto start = std::chrono::steady_clock::now();
  auto resp = client.Call(PingRequest());
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  ASSERT_FALSE(resp.ok());
  EXPECT_NE(resp.status().message().find("timed out"), std::string::npos)
      << resp.status().message();
  // Bounded by the timeout, not the kernel's defaults.
  EXPECT_LT(elapsed, 5000);
  // A half-consumed stream cannot be reused.
  EXPECT_FALSE(client.connected());
}

TEST(NetClientTest, TornResponseSurfacesCleanly) {
  RawServer server([](int fd) {
    DrainOneFrame(fd);
    Response resp;
    resp.kind = RespKind::kOk;
    std::string frame = EncodeFrame(EncodeResponse(resp));
    // A strict prefix hits the wire, then the connection dies.
    (void)WriteAll(fd, std::string_view(frame).substr(0, frame.size() / 2));
  });

  Client client;
  Client::Options opts;
  opts.timeout_ms = 2000;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), opts).ok());

  auto resp = client.Call(PingRequest());
  ASSERT_FALSE(resp.ok());
  EXPECT_NE(resp.status().message().find("torn"), std::string::npos)
      << resp.status().message();
  EXPECT_FALSE(client.connected());
}

TEST(NetClientTest, ClosedBeforeResponseSurfacesCleanly) {
  RawServer server([](int fd) {
    DrainOneFrame(fd);
    // Close without sending a single response byte.
  });

  Client client;
  Client::Options opts;
  opts.timeout_ms = 2000;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), opts).ok());

  auto resp = client.Call(PingRequest());
  ASSERT_FALSE(resp.ok());
  EXPECT_NE(resp.status().message().find("closed before the response"),
            std::string::npos)
      << resp.status().message();
  EXPECT_FALSE(client.connected());
}

TEST(NetClientTest, ChunkedResponseDeliverySucceeds) {
  Response canned;
  canned.kind = RespKind::kOk;
  canned.analyzed = 41;
  canned.text = "chunked";
  RawServer server([&canned](int fd) {
    DrainOneFrame(fd);
    std::string frame = EncodeFrame(EncodeResponse(canned));
    // Dribble the frame out a few bytes at a time: the client's frame
    // reader must reassemble across arbitrarily small reads.
    for (size_t off = 0; off < frame.size(); off += 3) {
      size_t n = std::min<size_t>(3, frame.size() - off);
      if (!WriteAll(fd, std::string_view(frame).substr(off, n)).ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  Client client;
  Client::Options opts;
  opts.timeout_ms = 5000;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), opts).ok());

  auto resp = client.Call(PingRequest());
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  EXPECT_EQ(resp->kind, RespKind::kOk);
  EXPECT_EQ(resp->analyzed, 41u);
  EXPECT_EQ(resp->text, "chunked");
  EXPECT_TRUE(client.connected());  // clean round trip: reusable
}

TEST(WireCodecTest, MembershipFieldsRoundTrip) {
  Request hb;
  hb.type = MsgType::kHeartbeat;
  hb.node_id = "node-b";
  hb.seq = 77;
  Request decoded_hb;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(hb), &decoded_hb).ok());
  EXPECT_EQ(decoded_hb.type, MsgType::kHeartbeat);
  EXPECT_EQ(decoded_hb.node_id, "node-b");
  EXPECT_EQ(decoded_hb.seq, 77u);

  Request dec;
  dec.type = MsgType::kDecommission;
  dec.target_node = "node-c";
  Request decoded_dec;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(dec), &decoded_dec).ok());
  EXPECT_EQ(decoded_dec.type, MsgType::kDecommission);
  EXPECT_EQ(decoded_dec.target_node, "node-c");
}

TEST(WireCodecTest, TruncatedRequestNeverAborts) {
  Request req;
  req.type = MsgType::kSubmitAt;
  req.tenant = "tenant-7";
  req.seq = 1234;
  req.has_statement = true;
  req.statement.sql = "SELECT * FROM t WHERE a = 1";
  req.statement.tables.emplace_back();
  req.statement.tables.back().table = 3;
  req.f_plus = {1, 2, 3};
  req.f_minus = {4};
  req.node_id = "node-a";
  std::string encoded = EncodeRequest(req);

  Request round;
  ASSERT_TRUE(DecodeRequest(encoded, &round).ok());
  // Every strict prefix must fail with a clean Status — the decoder
  // reads fields sequentially, so missing tail bytes are always caught.
  for (size_t len = 0; len < encoded.size(); ++len) {
    Request out;
    Status s = DecodeRequest(std::string_view(encoded).substr(0, len), &out);
    EXPECT_FALSE(s.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(WireCodecTest, TruncatedResponseNeverAborts) {
  Response resp;
  resp.kind = RespKind::kNotLeader;
  resp.code = StatusCode::kFailedPrecondition;
  resp.message = "not here";
  resp.owner_id = "node-b";
  resp.owner_host = "127.0.0.1";
  resp.owner_port = 4242;
  resp.tenants = {"tenant-0", "tenant-1"};
  resp.history = {IndexSet{1}, IndexSet{2, 3}};
  resp.history_start = 9;
  resp.count = 1;
  std::string encoded = EncodeResponse(resp);

  Response round;
  ASSERT_TRUE(DecodeResponse(encoded, &round).ok());
  for (size_t len = 0; len < encoded.size(); ++len) {
    Response out;
    Status s = DecodeResponse(std::string_view(encoded).substr(0, len), &out);
    EXPECT_FALSE(s.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(WireCodecTest, TraceContextRoundTrips) {
  Request req = PingRequest();
  req.trace_id = 0xdeadbeefcafef00dull;
  req.parent_span = 0x12345678ull;
  Request decoded;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(req), &decoded).ok());
  EXPECT_EQ(decoded.trace_id, 0xdeadbeefcafef00dull);
  EXPECT_EQ(decoded.parent_span, 0x12345678ull);

  // The 3-arg overload stamps the context without copying the request.
  Request stamped;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(PingRequest(), 7, 9), &stamped).ok());
  EXPECT_EQ(stamped.trace_id, 7u);
  EXPECT_EQ(stamped.parent_span, 9u);
}

TEST(WireCodecTest, VersionSkewRejectedCleanly) {
  // Only kWireVersion decodes: a newer peer, and an older one even where
  // its layout is a prefix of this one (a v2 request is the v3 encoding
  // minus the trailing 16-byte trace context).
  std::string encoded = EncodeRequest(PingRequest());
  ASSERT_GT(encoded.size(), 16u);
  std::string older = encoded.substr(0, encoded.size() - 16);
  encoded[0] = static_cast<char>(kWireVersion + 1);  // leading version byte
  older[0] = static_cast<char>(kWireVersion - 1);
  for (const std::string& skewed : {encoded, older}) {
    Request out;
    Status s = DecodeRequest(skewed, &out);
    ASSERT_FALSE(s.ok()) << "version " << int{skewed[0]} << " decoded";
    EXPECT_NE(s.message().find("version"), std::string::npos) << s.message();
  }
}

TEST(WireCodecTest, UnknownRequestTypeRefusedCleanly) {
  // 20 was the retired JSON health report; 0 and 255 were never types.
  for (uint8_t type_byte : {uint8_t{20}, uint8_t{0}, uint8_t{255}}) {
    std::string encoded = EncodeRequest(PingRequest());
    ASSERT_GE(encoded.size(), 2u);
    encoded[1] = static_cast<char>(type_byte);  // after the version byte
    Request out;
    Status s = DecodeRequest(encoded, &out);
    ASSERT_FALSE(s.ok()) << "type byte " << int{type_byte} << " decoded";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("unknown request type"), std::string::npos)
        << s.message();
  }
}

TEST(WireCodecTest, CrcFlipPoisonsFrameStream) {
  std::string payload = EncodeRequest(PingRequest());
  std::string frame = EncodeFrame(payload);
  // Flip one payload byte: length prefix still parses, CRC must not.
  frame[frame.size() - 1] ^= 0x01;

  FrameReader reader;
  reader.Feed(frame);
  std::string out;
  auto next = reader.Next(&out);
  ASSERT_FALSE(next.ok());
  // Poisoned stream: the error is sticky even after more (valid) bytes.
  reader.Feed(EncodeFrame(payload));
  EXPECT_FALSE(reader.Next(&out).ok());
}

TEST(WireCodecTest, TornFrameWaitsAndAbsurdLengthRejects) {
  std::string frame = EncodeFrame(EncodeRequest(PingRequest()));

  // Feeding a prefix is not an error — the reader just wants more.
  FrameReader torn;
  torn.Feed(std::string_view(frame).substr(0, frame.size() - 1));
  std::string out;
  auto next = torn.Next(&out);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(*next);
  EXPECT_GT(torn.pending_bytes(), 0u);
  // The remaining byte completes it.
  torn.Feed(std::string_view(frame).substr(frame.size() - 1));
  next = torn.Next(&out);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(*next);
  EXPECT_EQ(out, EncodeRequest(PingRequest()));

  // A garbage length prefix (beyond max_frame_bytes) is structural
  // damage, rejected before any payload arrives.
  FrameReader bounded(/*max_frame_bytes=*/1024);
  std::string huge(kFrameHeaderBytes, '\0');
  huge[0] = '\xff';
  huge[1] = '\xff';
  huge[2] = '\xff';
  huge[3] = '\x7f';
  bounded.Feed(huge);
  EXPECT_FALSE(bounded.Next(&out).ok());
}

}  // namespace
}  // namespace wfit::net
