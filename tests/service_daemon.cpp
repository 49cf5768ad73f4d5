// End-to-end tests for the framed protocol, the in-process daemon +
// client lifecycle, verdict-store survival across daemon restarts, and the
// transport primitives (endpoint specs, frame reassembly) they ride on.
#include "wfregs/service/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "wfregs/consensus/protocols.hpp"
#include "wfregs/service/client.hpp"
#include "wfregs/service/job.hpp"
#include "wfregs/service/transport.hpp"

namespace wfregs::service {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string job_text(const std::shared_ptr<const Implementation>& impl) {
  VerifyJob job;
  job.kind = JobKind::kConsensus;
  job.impl = impl;
  return print_job(job);
}

/// Unix sockets cap sun_path at ~108 bytes, so keep names short and in /tmp.
std::string socket_path(const std::string& tag) {
  return "/tmp/wfregsd_test_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

TEST(Protocol, FramesRoundTripOverASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A 1 MiB frame overflows the socket buffer, so the writer needs its own
  // thread (write_frame is intentionally blocking).
  const std::string big(1 << 20, 'x');
  for (const Frame& sent : {Frame{FrameType::kSubmit, "job text"},
                           Frame{FrameType::kStats, ""},
                           Frame{FrameType::kReply, big}}) {
    std::thread writer([&] { write_frame(fds[0], sent); });
    const auto got = read_frame(fds[1]);
    writer.join();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, sent.type);
    EXPECT_EQ(got->payload, sent.payload);
  }
  // Clean EOF at a frame boundary is nullopt, not an error.
  ASSERT_EQ(::close(fds[0]), 0);
  EXPECT_FALSE(read_frame(fds[1]).has_value());
  ::close(fds[1]);
}

TEST(Protocol, MidFrameEofThrows) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char partial[] = {5, 0, 0, 0, 1, 'a'};  // 2 payload bytes cut
  ASSERT_EQ(::write(fds[0], partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  ::close(fds[0]);
  EXPECT_THROW(read_frame(fds[1]), std::runtime_error);
  ::close(fds[1]);
}

TEST(Protocol, OversizedLengthPrefixThrows) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t len = kMaxFrame + 1;
  unsigned char prefix[4] = {
      static_cast<unsigned char>(len), static_cast<unsigned char>(len >> 8),
      static_cast<unsigned char>(len >> 16),
      static_cast<unsigned char>(len >> 24)};
  ASSERT_EQ(::write(fds[0], prefix, 4), 4);
  EXPECT_THROW(read_frame(fds[1]), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);
}

/// Runs a daemon on a background thread for the duration of a test.
struct DaemonFixture {
  explicit DaemonFixture(const std::string& sock,
                         const std::string& store = "") {
    DaemonOptions options;
    options.socket_path = sock;
    options.scheduler.workers = 1;
    options.scheduler.store_path = store;
    daemon = std::make_unique<Daemon>(std::move(options));
    server = std::thread([this] { served = daemon->run(); });
  }
  ~DaemonFixture() {
    if (server.joinable()) {
      daemon->request_stop();
      server.join();
    }
  }

  std::unique_ptr<Daemon> daemon;
  std::thread server;
  std::uint64_t served = 0;
};

TEST(Daemon, SubmitPollStatsShutdownLifecycle) {
  const std::string sock = socket_path("life");
  DaemonFixture fixture(sock);
  Client client(sock);

  const std::string text = job_text(consensus::from_test_and_set());
  const std::string submitted = client.submit(text);
  EXPECT_TRUE(contains(submitted, "\"status\":\"queued\"")) << submitted;
  const std::string key = job_key_hex(job_key(parse_job(text)));
  EXPECT_TRUE(contains(submitted, key)) << submitted;

  const std::string done = client.wait(key);
  EXPECT_TRUE(contains(done, "\"status\":\"done\"")) << done;
  EXPECT_TRUE(contains(done, "\"ok\":true")) << done;

  // Resubmission answers straight from the cache, verdict inline.
  const std::string again = client.submit(text);
  EXPECT_TRUE(contains(again, "\"status\":\"cached\"")) << again;
  EXPECT_TRUE(contains(again, "\"ok\":true")) << again;

  EXPECT_TRUE(contains(client.poll(std::string(32, '0')),
                       "\"status\":\"unknown\""));

  const std::string stats = client.stats();
  EXPECT_TRUE(contains(stats, "\"submitted\":2")) << stats;
  EXPECT_TRUE(contains(stats, "\"cache_hits\":1")) << stats;

  EXPECT_TRUE(contains(client.shutdown(), "draining"));
  fixture.server.join();
  EXPECT_GE(fixture.served, 5u);
}

TEST(Daemon, PollFromCacheFollowsTheLatestSubmission) {
  // A cold job's verdict was computed, not served from the cache; only a
  // resubmission that hits the cache reports from_cache 1.
  const std::string sock = socket_path("prov");
  DaemonFixture fixture(sock);
  Client client(sock);
  const std::string text = job_text(consensus::from_test_and_set());
  const std::string key = job_key_hex(job_key(parse_job(text)));

  client.submit(text);
  const std::string cold = client.wait(key);
  EXPECT_TRUE(contains(cold, "\"status\":\"done\"")) << cold;
  EXPECT_TRUE(contains(cold, "\"from_cache\":0")) << cold;
  EXPECT_TRUE(contains(client.stats(), "\"cache_hits\":0"));

  EXPECT_TRUE(contains(client.submit(text), "\"status\":\"cached\""));
  const std::string warm = client.poll(key);
  EXPECT_TRUE(contains(warm, "\"status\":\"done\"")) << warm;
  EXPECT_TRUE(contains(warm, "\"from_cache\":1")) << warm;
  EXPECT_TRUE(contains(client.stats(), "\"cache_hits\":1"));

  client.shutdown();
  fixture.server.join();
}

TEST(Daemon, MalformedJobTextGetsAnErrorReplyNotADrop) {
  const std::string sock = socket_path("err");
  DaemonFixture fixture(sock);
  Client client(sock);
  EXPECT_THROW(client.submit("job nonsense\n"), std::runtime_error);
  // The connection and the daemon both survive the error.
  const std::string text = job_text(consensus::from_test_and_set());
  EXPECT_TRUE(contains(client.submit(text), "\"status\":\"queued\""));
}

TEST(Daemon, RestartServesCachedVerdictsFromThePersistentStore) {
  const std::string sock = socket_path("restart");
  const std::string store = ::testing::TempDir() + "wfregsd_restart_" +
                            std::to_string(::getpid()) + ".log";
  std::remove(store.c_str());
  const std::string text = job_text(consensus::from_queue());
  const std::string key = job_key_hex(job_key(parse_job(text)));
  std::string first_verdict;
  {
    DaemonFixture fixture(sock, store);
    Client client(sock);
    client.submit(text);
    first_verdict = client.wait(key);
    EXPECT_TRUE(contains(first_verdict, "\"status\":\"done\""));
    client.shutdown();
    fixture.server.join();
  }
  {
    DaemonFixture fixture(sock, store);
    Client client(sock);
    const std::string reply = client.submit(text);
    EXPECT_TRUE(contains(reply, "\"status\":\"cached\"")) << reply;
    EXPECT_TRUE(contains(reply, "\"ok\":true")) << reply;
    client.shutdown();
    fixture.server.join();
  }
  std::remove(store.c_str());
}

TEST(Protocol, PackBatchRoundTripsAndValidates) {
  const std::vector<std::string> items = {"", "one", std::string("\x00\xFF", 2),
                                          std::string(100000, 'z')};
  EXPECT_EQ(unpack_batch(pack_batch(items)), items);
  EXPECT_EQ(unpack_batch(pack_batch({})), std::vector<std::string>{});
  // Truncation, impossible counts and trailing garbage all throw.
  const std::string packed = pack_batch({"abc"});
  EXPECT_THROW(unpack_batch(packed.substr(0, packed.size() - 1)),
               std::runtime_error);
  EXPECT_THROW(unpack_batch(packed + "x"), std::runtime_error);
  EXPECT_THROW(unpack_batch(std::string("\xFF\xFF\xFF\xFF", 4)),
               std::runtime_error);
}

TEST(Daemon, PipelinedFramesInOneSendAllGetReplies) {
  // Regression for the poll-loop drain bug: a client writing TWO complete
  // frames in a single send() must receive both replies without another
  // wakeup -- the loop has to dispatch every buffered frame, not one frame
  // per poll cycle.
  const std::string sock = socket_path("pipe");
  DaemonFixture fixture(sock);
  const int fd = connect_endpoint(parse_endpoint(sock));
  std::string two;
  for (int n = 0; n < 2; ++n) {
    const std::uint32_t len = 1;  // type byte only, empty payload
    for (int k = 0; k < 4; ++k) {
      two.push_back(static_cast<char>((len >> (8 * k)) & 0xFF));
    }
    two.push_back(static_cast<char>(FrameType::kStats));
  }
  ASSERT_EQ(::send(fd, two.data(), two.size(), 0),
            static_cast<ssize_t>(two.size()));
  for (int n = 0; n < 2; ++n) {
    const auto reply = read_frame(fd);
    ASSERT_TRUE(reply.has_value()) << "reply " << n << " never arrived";
    EXPECT_EQ(reply->type, FrameType::kReply);
    EXPECT_TRUE(contains(reply->payload, "\"submitted\"")) << reply->payload;
  }
  ::close(fd);
}

TEST(Daemon, ServesTheSameProtocolOverTcp) {
  DaemonOptions options;
  options.tcp = "tcp:127.0.0.1:0";  // ephemeral: no fixed-port races
  options.scheduler.workers = 1;
  Daemon daemon(std::move(options));
  ASSERT_NE(daemon.tcp_port(), 0);
  std::thread server([&daemon] { daemon.run(); });
  Client client("tcp:127.0.0.1:" + std::to_string(daemon.tcp_port()));
  const std::string text = job_text(consensus::from_test_and_set());
  client.submit(text);
  const std::string done =
      client.wait(job_key_hex(job_key(parse_job(text))));
  EXPECT_TRUE(contains(done, "\"status\":\"done\"")) << done;
  EXPECT_TRUE(contains(client.shutdown(), "draining"));
  server.join();
}

TEST(Daemon, BatchSubmitAndPollRoundTripInOrder) {
  const std::string sock = socket_path("batch");
  DaemonFixture fixture(sock);
  Client client(sock);
  const std::string tas = job_text(consensus::from_test_and_set());
  const std::string queue = job_text(consensus::from_queue());
  // One frame pair for the whole batch; replies come back in order.  The
  // duplicate tas entry must NOT queue a second computation: it comes back
  // "coalesced" when the first is still pending, or "cached" if the tiny
  // job already finished by the time the batch reaches the duplicate.
  const std::string submitted = client.submit_batch({tas, queue, tas});
  EXPECT_TRUE(contains(submitted, "\"status\":\"queued\"")) << submitted;
  EXPECT_TRUE(contains(submitted, "\"status\":\"coalesced\"") ||
              contains(submitted, "\"status\":\"cached\""))
      << submitted;
  const std::string tas_key = job_key_hex(job_key(parse_job(tas)));
  const std::string queue_key = job_key_hex(job_key(parse_job(queue)));
  EXPECT_LT(submitted.find(tas_key), submitted.find(queue_key)) << submitted;
  client.wait(tas_key);
  client.wait(queue_key);
  const std::string polled = client.poll_batch({tas_key, queue_key});
  EXPECT_TRUE(contains(polled, "[{")) << polled;
  EXPECT_LT(polled.find(tas_key), polled.find(queue_key)) << polled;
  EXPECT_FALSE(contains(polled, "\"status\":\"queued\"")) << polled;
  EXPECT_FALSE(contains(polled, "\"status\":\"running\"")) << polled;
  client.shutdown();
}

TEST(Daemon, RetiredFrameTypesGetAnErrorAndTheConnectionKeepsServing) {
  // Type bytes that once named worker frames (0x10-0x12 requests, 0x90 and
  // 0x91 replies) are no longer part of the protocol.  Each must get a
  // kError reply -- not a crash, a hang or a dropped connection -- and a
  // valid submit on the same connection must still be served.
  const std::string sock = socket_path("retired");
  DaemonFixture fixture(sock);
  const int fd = connect_endpoint(parse_endpoint(sock));
  const std::string text = job_text(consensus::from_test_and_set());
  for (const std::uint8_t type : {0x10, 0x11, 0x12, 0x90, 0x91}) {
    write_frame(fd, Frame{static_cast<FrameType>(type),
                          pack_batch({"0123456789abcdef0123456789abcdef",
                                      text})});
    const auto reply = read_frame(fd);
    ASSERT_TRUE(reply.has_value()) << "no reply to type " << int{type};
    EXPECT_EQ(reply->type, FrameType::kError) << "type " << int{type};
  }
  write_frame(fd, Frame{FrameType::kSubmit, text});
  const auto reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kReply);
  EXPECT_TRUE(contains(reply->payload, "\"status\":\"queued\""))
      << reply->payload;
  ::close(fd);
}

TEST(Transport, EndpointSpecsParseBothFamilies) {
  Endpoint ep = parse_endpoint("/tmp/x.sock");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/x.sock");
  EXPECT_EQ(endpoint_to_string(ep), "unix:/tmp/x.sock");
  EXPECT_EQ(parse_endpoint("unix:/a/b").path, "/a/b");

  ep = parse_endpoint("tcp:7461");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 7461);
  ep = parse_endpoint("tcp:10.1.2.3:80");
  EXPECT_EQ(ep.host, "10.1.2.3");
  EXPECT_EQ(ep.port, 80);
  EXPECT_EQ(endpoint_to_string(ep), "tcp:10.1.2.3:80");

  EXPECT_THROW(parse_endpoint(""), std::runtime_error);
  EXPECT_THROW(parse_endpoint("tcp:"), std::runtime_error);
  EXPECT_THROW(parse_endpoint("tcp:notaport"), std::runtime_error);
  EXPECT_THROW(parse_endpoint("tcp:127.0.0.1:99999"), std::runtime_error);
}

TEST(Transport, FrameSplitterReassemblesByteByByte) {
  // Three frames serialized back to back, fed one byte at a time: the
  // splitter must yield exactly the three frames, in order, regardless of
  // how the stream fragments.
  const std::vector<Frame> frames = {
      Frame{FrameType::kSubmit, "job text"},
      Frame{FrameType::kStats, ""},
      Frame{FrameType::kReply, std::string(10000, 'v')}};
  std::string stream;
  for (const Frame& f : frames) {
    const std::uint32_t len = static_cast<std::uint32_t>(1 + f.payload.size());
    for (int k = 0; k < 4; ++k) {
      stream.push_back(static_cast<char>((len >> (8 * k)) & 0xFF));
    }
    stream.push_back(static_cast<char>(f.type));
    stream.append(f.payload);
  }
  FrameSplitter splitter;
  std::vector<Frame> got;
  Frame frame;
  for (const char c : stream) {
    splitter.feed(&c, 1);
    while (splitter.next(&frame)) got.push_back(frame);
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t k = 0; k < frames.size(); ++k) {
    EXPECT_EQ(got[k].type, frames[k].type);
    EXPECT_EQ(got[k].payload, frames[k].payload);
  }
  EXPECT_EQ(splitter.buffered(), 0u);
  // A zero-length prefix is a protocol violation, not a hang.
  const char bad[5] = {0, 0, 0, 0, 0};
  splitter.feed(bad, 5);
  EXPECT_THROW(splitter.next(&frame), std::runtime_error);
}

}  // namespace
}  // namespace wfregs::service
