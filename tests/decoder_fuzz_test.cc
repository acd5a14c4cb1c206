// Seeded mutation sweep over every decoder of bytes that come from disk or
// the network: ReadSnapshot, ReadJournal, UnpackCheckpointDir, the wire
// DecodeRequest/DecodeResponse, DecodeClusterConfig, the incremental
// FrameReader (fed in random chunk sizes) and the Prometheus text reader
// ParseScrape. Each case applies bit flips, a truncation or a corrupted
// length field to a valid encoding (text also gets hostile tokens spliced
// in: stray braces and quotes, non-numeric values, NULs); CRC-guarded
// formats are also re-sealed (checksums recomputed after the mutation) so
// the payload decoders behind the CRC see the hostile bytes too. Every
// case must come back as a Status or a poisoned stream — no abort, no
// sanitizer report.
//
// WFIT_FUZZ_CASES sets the cases per decoder (default 300). A failing case
// prints its decoder, its own rng seed, case number, mutation and offset,
// also when the process dies mid-case.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "common/crc32.h"
#include "core/wfit.h"
#include "net/frame.h"
#include "net/wire.h"
#include "obs/health.h"
#include "persist/codec.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "persist/tenant_tree.h"
#include "tests/test_util.h"

extern "C" void __sanitizer_set_death_callback(void (*callback)(void))
    __attribute__((weak));

namespace wfit {
namespace {

namespace fs = std::filesystem;
using wfit::testing::TestDb;

// --- failure reporting ---------------------------------------------------

/// The case in flight, preformatted so a signal handler can print it.
char g_case[256] = "";

void PrintCase() {
  if (g_case[0] == '\0') return;
  const char prefix[] = "\ndecoder fuzz: died in case ";
  (void)!::write(STDERR_FILENO, prefix, sizeof(prefix) - 1);
  (void)!::write(STDERR_FILENO, g_case, std::strlen(g_case));
  (void)!::write(STDERR_FILENO, "\n", 1);
}

void OnFatalSignal(int sig) {
  PrintCase();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void InstallCrashReporter() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  for (int sig : {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL}) {
    ::signal(sig, OnFatalSignal);
  }
  if (__sanitizer_set_death_callback != nullptr) {
    __sanitizer_set_death_callback(PrintCase);
  }
}

constexpr uint64_t kBaseSeed = 0x5EEDF00Dull;

uint64_t Cases() {
  const char* v = std::getenv("WFIT_FUZZ_CASES");
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 0) : 300;
}

// --- mutations -------------------------------------------------------------

enum class Mutation { kBitFlip, kTruncate, kLengthField, kSplice };

const char* MutationName(Mutation m) {
  switch (m) {
    case Mutation::kBitFlip:
      return "bitflip";
    case Mutation::kTruncate:
      return "truncate";
    case Mutation::kLengthField:
      return "length";
    case Mutation::kSplice:
      return "splice";
  }
  return "?";
}

struct MutatedCase {
  std::string bytes;
  Mutation mutation = Mutation::kBitFlip;
  size_t offset = 0;
  /// Checksums were recomputed after the mutation.
  bool resealed = false;
};

/// Mutates bytes[lo, hi) (the whole buffer for truncation): 1-3 bit flips,
/// a cut, or a hostile u32 written over what may be a length prefix.
MutatedCase Mutate(const std::string& original, size_t lo, size_t hi,
                   std::mt19937_64& rng) {
  MutatedCase c;
  c.bytes = original;
  c.mutation = static_cast<Mutation>(rng() % 3);
  if (hi <= lo) c.mutation = Mutation::kTruncate;
  switch (c.mutation) {
    case Mutation::kBitFlip: {
      c.offset = lo + rng() % (hi - lo);
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < flips; ++i) {
        const size_t at = i == 0 ? c.offset : lo + rng() % (hi - lo);
        c.bytes[at] = static_cast<char>(c.bytes[at] ^ (1u << (rng() % 8)));
      }
      break;
    }
    case Mutation::kTruncate:
      c.offset = original.empty() ? 0 : rng() % original.size();
      c.bytes.resize(c.offset);
      break;
    case Mutation::kLengthField: {
      c.offset = lo + rng() % (hi - lo);
      uint32_t current = 0;
      std::memcpy(&current, c.bytes.data() + c.offset,
                  std::min<size_t>(4, c.bytes.size() - c.offset));
      const uint32_t hostile[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 0x80000000u,
                                  current + 1, current - 1,
                                  static_cast<uint32_t>(rng())};
      const uint32_t v = hostile[rng() % (sizeof(hostile) / 4)];
      for (size_t i = 0; i < 4 && c.offset + i < c.bytes.size(); ++i) {
        c.bytes[c.offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
      }
      break;
    }
    case Mutation::kSplice:  // Splice's kind; never drawn above
      break;
  }
  return c;
}

/// Inserts 1-3 hostile tokens into text, the first at c.offset: the
/// shapes a line-oriented text reader trips on.
MutatedCase Splice(const std::string& original, std::mt19937_64& rng) {
  static const std::string kTokens[] = {
      "{", "}", "\"", "\\", std::string(1, '\0'), "\n", " ", "#",
      "{peer=\"", "\"} ", " NaN", " -Inf", " abc", " 1e99999", "}}{{"};
  MutatedCase c;
  c.bytes = original;
  c.mutation = Mutation::kSplice;
  c.offset = rng() % (original.size() + 1);
  const int splices = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < splices; ++i) {
    const size_t at = i == 0 ? c.offset : rng() % (c.bytes.size() + 1);
    c.bytes.insert(at, kTokens[rng() % std::size(kTokens)]);
  }
  return c;
}

/// Runs `cases` seeded cases of `decode` over mutations `make` produces.
void Sweep(const char* decoder, size_t index,
           const std::function<MutatedCase(std::mt19937_64&)>& make,
           const std::function<void(const MutatedCase&)>& decode) {
  InstallCrashReporter();
  const uint64_t cases = Cases();
  for (uint64_t i = 0; i < cases; ++i) {
    const uint64_t seed =
        kBaseSeed ^ (uint64_t{index} << 56) ^ (i * 0x9E3779B97F4A7C15ull);
    std::mt19937_64 rng(seed);
    MutatedCase c = make(rng);
    std::snprintf(g_case, sizeof(g_case),
                  "decoder=%s seed=0x%llx case=%llu mutation=%s offset=%zu "
                  "resealed=%d",
                  decoder, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(i),
                  MutationName(c.mutation), c.offset, c.resealed ? 1 : 0);
    SCOPED_TRACE(g_case);
    decode(c);
    if (::testing::Test::HasFatalFailure()) break;
  }
  g_case[0] = '\0';
}

// --- seed encodings ----------------------------------------------------------

WfitOptions FastOptions() {
  WfitOptions options;
  options.candidates.idx_cnt = 8;
  options.candidates.state_cnt = 64;
  options.candidates.hist_size = 50;
  options.candidates.creation_penalty_factor = 1e-6;
  return options;
}

Workload BuildWorkload(TestDb& db, size_t n) {
  const char* shapes[] = {
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150",
      "SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk AND t1.a = 5",
      "SELECT count(*) FROM t2 WHERE x BETWEEN 10 AND 40",
      "UPDATE t1 SET d = 1 WHERE a = 77",
      "SELECT count(*) FROM t3 WHERE v = 9",
  };
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    w.push_back(db.Bind(shapes[i % (sizeof(shapes) / sizeof(shapes[0]))]));
  }
  return w;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_decoder_fuzz_" + tag + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutU32At(std::string* bytes, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

constexpr size_t kSnapshotHeader = 24;

/// Recomputes a snapshot header's payload length and both CRCs over
/// whatever payload follows it.
void ResealSnapshotHeader(std::string* bytes) {
  const std::string_view payload =
      std::string_view(*bytes).substr(kSnapshotHeader);
  const uint64_t len = payload.size();
  PutU32At(bytes, 8, static_cast<uint32_t>(len));
  PutU32At(bytes, 12, static_cast<uint32_t>(len >> 32));
  PutU32At(bytes, 16, Crc32(payload));
  PutU32At(bytes, 20, Crc32(std::string_view(*bytes).substr(0, 20)));
}

/// A snapshot of a tuner that has analyzed and taken votes.
std::string SnapshotBytes(const std::string& dir) {
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  Workload w = BuildWorkload(db, 40);
  for (size_t i = 0; i < w.size(); ++i) {
    tuner.AnalyzeQuery(w[i]);
    if (i == 20) tuner.Feedback(IndexSet{db.Ix("t1", {"a"})}, IndexSet{});
  }
  persist::SnapshotMeta meta;
  meta.analyzed = w.size();
  meta.journal_lsn = 2 * w.size();
  const std::string path = (fs::path(dir) / "seed.wfsnap").string();
  Status st = persist::WriteSnapshotFile(path, tuner, db.pool(), meta);
  WFIT_CHECK(st.ok(), st.ToString());
  return ReadFile(path);
}

/// A compacted journal holding every record kind.
std::string JournalBytes(const std::string& dir) {
  TestDb db;
  Workload w = BuildWorkload(db, 12);
  const std::string path = (fs::path(dir) / "seed.wfj").string();
  persist::JournalWriter writer;
  WFIT_CHECK(writer.Open(path, 0, 0).ok(), "journal open");
  for (size_t i = 0; i < w.size(); ++i) {
    WFIT_CHECK(writer.AppendStatement(i, w[i]).ok(), "append statement");
    WFIT_CHECK(writer.AppendAnalyzed(i).ok(), "append analyzed");
    if (i % 4 == 1) {
      WFIT_CHECK(writer
                     .AppendFeedback(i + 1, i % 8 == 1,
                                     IndexSet{db.Ix("t1", {"a"})},
                                     IndexSet{db.Ix("t2", {"x"})})
                     .ok(),
                 "append feedback");
    }
  }
  WFIT_CHECK(writer.Sync().ok(), "journal sync");
  writer.Close();
  auto compacted = persist::CompactJournal(path, 4);
  WFIT_CHECK(compacted.ok(), compacted.status().ToString());
  return ReadFile(path);
}

/// Offsets of every [u32 len][u32 crc][payload] frame in a journal.
std::vector<size_t> JournalFrames(const std::string& bytes) {
  std::vector<size_t> frames;
  size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, 4);
    frames.push_back(pos);
    pos += 8 + len;
  }
  return frames;
}

/// A request of every field kind the codec carries.
net::Request SeedRequest(TestDb& db, net::MsgType type) {
  net::Request req;
  req.type = type;
  req.tenant = "tenant-7";
  req.seq = 42;
  req.has_statement = true;
  req.statement = db.Bind("SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk");
  req.f_plus = IndexSet{db.Ix("t1", {"a"})};
  req.f_minus = IndexSet{db.Ix("t2", {"x"}), db.Ix("t1", {"b"})};
  req.target_node = "node-b";
  req.pack = std::string(64, 'p');
  req.votes = {{3, IndexSet{db.Ix("t1", {"a"})}, IndexSet{}},
               {9, IndexSet{}, IndexSet{db.Ix("t2", {"x"})}}};
  req.config_blob = "config";
  req.node_id = "node-a";
  return req;
}

net::Response SeedResponse(TestDb& db) {
  net::Response resp;
  resp.kind = net::RespKind::kNotLeader;
  resp.code = StatusCode::kInvalidArgument;
  resp.message = "moved";
  resp.owner_id = "node-b";
  resp.owner_host = "127.0.0.1";
  resp.owner_port = 7602;
  resp.config_version = 5;
  resp.configuration = IndexSet{db.Ix("t1", {"a"}), db.Ix("t2", {"x"})};
  resp.analyzed = 100;
  resp.version = 3;
  resp.text = "text";
  resp.tenants = {"a", "b", "c"};
  resp.history = {IndexSet{}, IndexSet{db.Ix("t1", {"b"})}};
  resp.history_start = 10;
  resp.count = 2;
  return resp;
}

// --- the sweeps --------------------------------------------------------------

TEST(DecoderFuzzTest, ReadSnapshotWfit) {
  const std::string dir = FreshDir("snapshot_wfit");
  const std::string seed = SnapshotBytes(dir);
  ASSERT_GT(seed.size(), kSnapshotHeader);
  const std::string path = (fs::path(dir) / "case.wfsnap").string();
  Sweep(
      "snapshot_wfit", 1,
      [&](std::mt19937_64& rng) {
        // Half the cases mutate the header or raw file (the CRCs must
        // reject them); half mutate the payload and re-seal the header so
        // the payload decoder itself meets the hostile bytes.
        const bool reseal = rng() % 2 == 0;
        MutatedCase c = reseal ? Mutate(seed, kSnapshotHeader, seed.size(), rng)
                               : Mutate(seed, 0, seed.size(), rng);
        if (reseal && c.bytes.size() >= kSnapshotHeader) {
          ResealSnapshotHeader(&c.bytes);
          c.resealed = true;
        }
        return c;
      },
      [&](const MutatedCase& c) {
        WriteFile(path, c.bytes);
        TestDb db;
        Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
        persist::SnapshotMeta meta;
        Status st = persist::ReadSnapshot(path, &tuner, &db.pool(), &meta);
        if (!c.resealed && c.bytes != seed) {
          EXPECT_FALSE(st.ok()) << "damaged snapshot accepted";
        }
      });
  fs::remove_all(dir);
}

TEST(DecoderFuzzTest, ReadJournal) {
  const std::string dir = FreshDir("journal");
  const std::string seed = JournalBytes(dir);
  const std::vector<size_t> frames = JournalFrames(seed);
  ASSERT_GT(frames.size(), 10u);
  auto original = persist::ReadJournal((fs::path(dir) / "seed.wfj").string());
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_GT(original->base_lsn, 0u);
  const std::string path = (fs::path(dir) / "case.wfj").string();
  Sweep(
      "journal", 3,
      [&](std::mt19937_64& rng) {
        // Re-sealed cases mutate one record's payload and recompute its
        // CRC, so the record decoders see the damage.
        const bool reseal = rng() % 2 == 0;
        if (!reseal) return Mutate(seed, 0, seed.size(), rng);
        const size_t frame = frames[rng() % frames.size()];
        uint32_t len = 0;
        std::memcpy(&len, seed.data() + frame, 4);
        MutatedCase c = Mutate(seed, frame + 8, frame + 8 + len, rng);
        if (c.mutation != Mutation::kTruncate) {
          PutU32At(&c.bytes, frame + 4,
                   Crc32(std::string_view(c.bytes).substr(frame + 8, len)));
          c.resealed = true;
        }
        return c;
      },
      [&](const MutatedCase& c) {
        WriteFile(path, c.bytes);
        auto read = persist::ReadJournal(path);
        if (read.ok()) {
          EXPECT_LE(read->valid_bytes, c.bytes.size());
          EXPECT_LE(read->records.size(), frames.size());
        }
      });
  fs::remove_all(dir);
}

TEST(DecoderFuzzTest, UnpackCheckpointDir) {
  const std::string dir = FreshDir("pack");
  const std::string tree = (fs::path(dir) / "tree").string();
  fs::create_directories(tree);
  WriteFile((fs::path(tree) / "snapshot-00000000000000000040.wfsnap").string(),
            SnapshotBytes(dir));
  WriteFile((fs::path(tree) / "journal.wfj").string(), JournalBytes(dir));
  auto packed = persist::PackCheckpointDir(tree);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  const std::string seed = *packed;
  const std::string target = (fs::path(dir) / "target").string();
  Sweep(
      "pack", 4,
      [&](std::mt19937_64& rng) {
        const bool reseal = rng() % 2 == 0;
        MutatedCase c = Mutate(seed, 0, seed.size() - 4, rng);
        if (reseal && c.bytes.size() >= 4) {
          // The trailing u32 is the CRC of everything before it.
          PutU32At(&c.bytes, c.bytes.size() - 4,
                   Crc32(std::string_view(c.bytes).substr(
                       0, c.bytes.size() - 4)));
          c.resealed = true;
        }
        return c;
      },
      [&](const MutatedCase& c) {
        Status st = persist::UnpackCheckpointDir(c.bytes, target);
        if (!c.resealed && c.bytes != seed) {
          EXPECT_FALSE(st.ok()) << "damaged pack accepted";
        }
        // Whatever was unpacked stays inside the target directory.
        std::error_code ec;
        for (const auto& entry : fs::directory_iterator(dir, ec)) {
          const std::string name = entry.path().filename().string();
          EXPECT_TRUE(name == "tree" || name == "target" ||
                      name == "seed.wfsnap" || name == "seed.wfj")
              << "unpack escaped its directory: " << name;
        }
        fs::remove_all(target);
      });
  fs::remove_all(dir);
}

TEST(DecoderFuzzTest, DecodeRequest) {
  TestDb db;
  std::vector<std::string> seeds;
  for (net::MsgType type :
       {net::MsgType::kSubmitAt, net::MsgType::kFeedbackAfter,
        net::MsgType::kMigrateIn, net::MsgType::kHeartbeat}) {
    seeds.push_back(net::EncodeRequest(SeedRequest(db, type), 11, 12));
  }
  Sweep(
      "wire_request", 5,
      [&](std::mt19937_64& rng) {
        const std::string& seed = seeds[rng() % seeds.size()];
        return Mutate(seed, 0, seed.size(), rng);
      },
      [&](const MutatedCase& c) {
        net::Request req;
        (void)net::DecodeRequest(c.bytes, &req);
      });
}

TEST(DecoderFuzzTest, DecodeResponse) {
  TestDb db;
  const std::string seed = net::EncodeResponse(SeedResponse(db));
  Sweep(
      "wire_response", 6,
      [&](std::mt19937_64& rng) { return Mutate(seed, 0, seed.size(), rng); },
      [&](const MutatedCase& c) {
        net::Response resp;
        (void)net::DecodeResponse(c.bytes, &resp);
      });
}

TEST(DecoderFuzzTest, DecodeClusterConfig) {
  cluster::ClusterConfig config;
  config.version = 9;
  config.nodes = {{"a", "10.0.0.1", 7601},
                  {"b", "10.0.0.2", 7602},
                  {"c", "host-c", 65535}};
  config.overrides = {{"tenant-1", "b"},
                      {"tenant-2", "c"},
                      {"tenant-3", "a"},
                      {"tenant with spaces / slashes", "b"}};
  config.Normalize();
  const std::string seed = cluster::EncodeClusterConfig(config);
  Sweep(
      "cluster_config", 7,
      [&](std::mt19937_64& rng) { return Mutate(seed, 0, seed.size(), rng); },
      [&](const MutatedCase& c) {
        cluster::ClusterConfig decoded;
        if (!cluster::DecodeClusterConfig(c.bytes, &decoded).ok()) return;
        // An accepted config survives its own round trip.
        cluster::ClusterConfig again;
        EXPECT_TRUE(cluster::DecodeClusterConfig(
                        cluster::EncodeClusterConfig(decoded), &again)
                        .ok());
      });
}

TEST(DecoderFuzzTest, ParseScrape) {
  // A node scrape's shapes: headers, plain and labelled samples, a
  // histogram, an escaped label value, a timestamp.
  const std::string seed =
      "# HELP wfit_node_failovers_total Dead-node takeovers.\n"
      "# TYPE wfit_node_failovers_total counter\n"
      "wfit_node_failovers_total 1\n"
      "wfit_node_acting_coordinator 1\n"
      "wfit_node_peer_health{peer=\"b\"} 2\n"
      "wfit_node_peer_silence_ms{peer=\"b\"} 1200 1700000000000\n"
      "wfit_service_analysis_latency_us_bucket{le=\"+Inf\"} 40\n"
      "wfit_service_analysis_latency_us_sum 912.5\n"
      "wfit_tenant_resident{tenant=\"t \\\"q\\\" }\"} 1\n";
  ASSERT_EQ(obs::ParseScrape(seed).size(), 7u);
  Sweep(
      "scrape_text", 9,
      [&](std::mt19937_64& rng) {
        return rng() % 2 == 0 ? Splice(seed, rng)
                              : Mutate(seed, 0, seed.size(), rng);
      },
      [&](const MutatedCase& c) {
        for (const auto& [series, value] : obs::ParseScrape(c.bytes)) {
          EXPECT_FALSE(series.empty());
          EXPECT_EQ(series.find('\n'), std::string::npos) << series;
        }
      });
}

TEST(DecoderFuzzTest, FrameReaderInRandomChunks) {
  TestDb db;
  // A stream of several frames, as a connection would carry them.
  std::string seed;
  std::vector<size_t> frames;
  for (net::MsgType type :
       {net::MsgType::kSubmitAt, net::MsgType::kFeedbackAfter,
        net::MsgType::kHeartbeat, net::MsgType::kMigrateIn}) {
    frames.push_back(seed.size());
    seed += net::EncodeFrame(
        net::EncodeRequest(SeedRequest(db, type), 11, 12));
  }
  Sweep(
      "frame_reader", 8,
      [&](std::mt19937_64& rng) {
        // Re-sealed cases damage one frame's payload and recompute its
        // CRC, so the damaged payload reaches DecodeRequest.
        const bool reseal = rng() % 2 == 0;
        if (!reseal) return Mutate(seed, 0, seed.size(), rng);
        const size_t frame = frames[rng() % frames.size()];
        uint32_t len = 0;
        std::memcpy(&len, seed.data() + frame, 4);
        MutatedCase c = Mutate(seed, frame + net::kFrameHeaderBytes,
                               frame + net::kFrameHeaderBytes + len, rng);
        if (c.mutation != Mutation::kTruncate) {
          PutU32At(&c.bytes, frame + 4,
                   Crc32(std::string_view(c.bytes).substr(
                       frame + net::kFrameHeaderBytes, len)));
          c.resealed = true;
        }
        return c;
      },
      [&](const MutatedCase& c) {
        // The chunking is part of the case: derive it from the bytes so
        // the printed seed alone reproduces it.
        std::mt19937_64 chunk_rng(Crc32(c.bytes) ^ c.offset);
        net::FrameReader reader;
        std::string payload;
        size_t fed = 0;
        size_t consumed = 0;
        Status poison;
        while (fed < c.bytes.size() && poison.ok()) {
          const size_t n =
              std::min<size_t>(1 + chunk_rng() % 64, c.bytes.size() - fed);
          reader.Feed(std::string_view(c.bytes).substr(fed, n));
          fed += n;
          while (true) {
            StatusOr<bool> next = reader.Next(&payload);
            if (!next.ok()) {
              poison = next.status();
              break;
            }
            if (!*next) break;
            consumed += net::kFrameHeaderBytes + payload.size();
            net::Request req;
            (void)net::DecodeRequest(payload, &req);
          }
        }
        if (!poison.ok()) {
          // Poisoned for good: more bytes never resynchronize the stream.
          reader.Feed(seed);
          StatusOr<bool> again = reader.Next(&payload);
          ASSERT_FALSE(again.ok());
          EXPECT_EQ(again.status().code(), poison.code());
          EXPECT_EQ(again.status().message(), poison.message());
        } else {
          EXPECT_EQ(consumed + reader.pending_bytes(), c.bytes.size());
        }
        if (!c.resealed && c.bytes != seed && poison.ok() &&
            c.mutation != Mutation::kTruncate) {
          // Undetected damage is only possible in a length prefix that
          // now waits for bytes that never come.
          EXPECT_GT(reader.pending_bytes(), 0u) << "damaged frame accepted";
        }
      });
}

}  // namespace
}  // namespace wfit
