// Concurrent multi-client server tests (ctest label `concurrency`, so the
// TSan preset runs them): N client threads driving one EngineServer
// through HandleLine — disjoint sessions in parallel, one shared session
// under contention — plus the structural-sharing and LRU-eviction
// guarantees of the split between the shared compiled rule base and
// per-session match state.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/engine_server.h"
#include "server/session.h"
#include "tests/server_test_util.h"

namespace sorel {
namespace server {
namespace {

constexpr char kRules[] = R"(
(literalize item id cat val)
(literalize bin cat total)
(p pair (item ^cat <c> ^val <v>)
        (item ^cat <c> ^val > <v>)
        --> (make bin ^cat <c> ^total <v>))
(startup (make item ^id 0 ^cat seed ^val 1))
)";

std::unique_ptr<EngineServer> MustCreate(const std::string& dir,
                                         EngineServerOptions options = {}) {
  options.data_dir = dir;
  auto server = EngineServer::Create(kRules, options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(*server);
}

/// Sends one line and asserts the response reports ok.
std::string MustHandle(EngineServer& server, const std::string& line) {
  std::string response = server.HandleLine(line);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos)
      << line << " -> " << response;
  return response;
}

/// Captures a session fingerprint with metric counters cleared: snapshot-
/// based recovery intentionally does not persist counters (see
/// server_recovery_test), so comparisons that cross an evict/reopen cycle
/// must ignore them. Everything else — WM dump, tag counter, conflict set
/// with refraction — must survive bit-identically.
Fingerprint CaptureSansCounters(Session& session) {
  Fingerprint fp = Capture(session);
  fp.counters.clear();
  return fp;
}

/// The deterministic per-session workload both the threaded sessions and
/// the solo reference run: makes, a run, a modify, a remove.
void Drive(EngineServer& server, const std::string& session) {
  auto cmd = [&](const std::string& body) {
    return MustHandle(server,
                      "{\"cmd\":" + body + ",\"session\":\"" + session +
                      "\"}");
  };
  for (int i = 1; i <= 4; ++i) {
    cmd("\"make\",\"cls\":\"item\",\"attrs\":{\"id\":" + std::to_string(i) +
        ",\"cat\":\"A\",\"val\":" + std::to_string(i * 3) + "}");
  }
  cmd("\"run\",\"max\":8");
  cmd("\"modify\",\"tag\":\"2\",\"attrs\":{\"val\":50}");
  cmd("\"run\",\"max\":8");
  cmd("\"remove\",\"tag\":\"3\"");
}

TEST(ServerConcurrencyTest, SessionsShareOneCompiledBase) {
  TempDir dir;
  auto server = MustCreate(dir.path());
  const CompiledRuleBase* shared = server->rule_base().get();
  ASSERT_NE(shared, nullptr);
  long pinned = server->rule_base().use_count();

  MustHandle(*server, R"({"cmd":"open","session":"a"})");
  MustHandle(*server, R"({"cmd":"open","session":"b","matcher":"treat"})");

  Session* a = server->FindSession("a");
  Session* b = server->FindSession("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Pointer identity: both sessions bind the server's one artifact —
  // rules, topology, schemas compiled exactly once.
  EXPECT_EQ(a->engine().rule_base().get(), shared);
  EXPECT_EQ(b->engine().rule_base().get(), shared);
  EXPECT_EQ(server->rule_base().use_count(), pinned + 2);
  EXPECT_EQ(a->engine().rules()[0], b->engine().rules()[0]);
  EXPECT_EQ(server->sessions_resident(), 2);
  // Each bound engine reports the one shared artifact's bytes.
  for (Session* s : {a, b}) {
    EXPECT_EQ(s->engine().metrics().SnapshotGauges().at(
                  "engine.rule_base_bytes"),
              static_cast<double>(shared->MemoryBytes()));
  }

  // The gauges surface through the protocol metrics command.
  std::string metrics =
      MustHandle(*server, R"({"cmd":"metrics","session":"a"})");
  EXPECT_NE(metrics.find("\"server.sessions_resident\":\"2\""),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\"engine.rule_base_bytes\":\"" +
                         std::to_string(shared->MemoryBytes()) + "\""),
            std::string::npos)
      << metrics;
}

TEST(ServerConcurrencyTest, LruEvictionRoundTripsSessionState) {
  TempDir dir;
  EngineServerOptions options;
  options.max_resident_sessions = 1;
  auto server = MustCreate(dir.path(), options);

  MustHandle(*server, R"({"cmd":"open","session":"s1"})");
  Drive(*server, "s1");
  Fingerprint before = CaptureSansCounters(*server->FindSession("s1"));
  std::string dump1 = MustHandle(*server, R"({"cmd":"dump","session":"s1"})");

  // Opening s2 overflows the cap: s1 (the LRU idle session) is
  // checkpointed and released, but its name stays addressable.
  MustHandle(*server, R"({"cmd":"open","session":"s2"})");
  EXPECT_EQ(server->FindSession("s1"), nullptr);
  EXPECT_NE(server->FindSession("s2"), nullptr);
  EXPECT_EQ(server->sessions_resident(), 1);
  std::string sessions = MustHandle(*server, R"({"cmd":"sessions"})");
  EXPECT_NE(sessions.find("\"s1\""), std::string::npos);

  // The next command on s1 transparently reopens it — state intact, and
  // now s2 gets evicted instead.
  std::string dump2 = MustHandle(*server, R"({"cmd":"dump","session":"s1"})");
  EXPECT_EQ(dump1, dump2);
  Fingerprint after = CaptureSansCounters(*server->FindSession("s1"));
  EXPECT_EQ(before, after) << DiffFingerprints(before, after);
  EXPECT_EQ(server->FindSession("s2"), nullptr);
  EXPECT_EQ(server->sessions_resident(), 1);

  // Eviction and reopen preserve WAL continuity: more work lands after
  // the round trip and survives another bounce.
  MustHandle(*server,
             R"({"cmd":"make","session":"s1","cls":"item",)"
             R"("attrs":{"id":9,"cat":"A","val":99}})");
  MustHandle(*server, R"({"cmd":"run","session":"s1","max":8})");
  Fingerprint grown = CaptureSansCounters(*server->FindSession("s1"));
  MustHandle(*server, R"({"cmd":"wm","session":"s2"})");  // bounce s1 out
  EXPECT_EQ(server->FindSession("s1"), nullptr);
  MustHandle(*server, R"({"cmd":"cs","session":"s1"})");  // and back in
  Fingerprint back = CaptureSansCounters(*server->FindSession("s1"));
  EXPECT_EQ(grown, back) << DiffFingerprints(grown, back);
}

TEST(ServerConcurrencyTest, InTransactionSessionsAreNotEvicted) {
  TempDir dir;
  EngineServerOptions options;
  options.max_resident_sessions = 1;
  auto server = MustCreate(dir.path(), options);

  MustHandle(*server, R"({"cmd":"open","session":"s1"})");
  MustHandle(*server, R"({"cmd":"begin","session":"s1"})");
  MustHandle(*server,
             R"({"cmd":"make","session":"s1","cls":"item",)"
             R"("attrs":{"id":7,"cat":"A","val":7}})");

  // s1 is over the cap but pinned by its open transaction.
  MustHandle(*server, R"({"cmd":"open","session":"s2"})");
  EXPECT_NE(server->FindSession("s1"), nullptr);
  EXPECT_EQ(server->sessions_resident(), 2);

  // Commit unpins the server: it converges back under the cap by evicting
  // the LRU idle session (s2 — s1 is the slot driving the commit).
  MustHandle(*server, R"({"cmd":"commit","session":"s1"})");
  EXPECT_NE(server->FindSession("s1"), nullptr);
  EXPECT_EQ(server->FindSession("s2"), nullptr);
  EXPECT_EQ(server->sessions_resident(), 1);
  // And s1 itself is evictable again: touching s2 reopens it and bounces
  // the now-idle s1 out.
  MustHandle(*server, R"({"cmd":"wm","session":"s2"})");
  EXPECT_EQ(server->FindSession("s1"), nullptr);
}

TEST(ServerConcurrencyTest, DisjointSessionsRunInParallel) {
  constexpr int kClients = 4;
  TempDir dir;
  auto server = MustCreate(dir.path());

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &failures, c] {
      std::string name = "s" + std::to_string(c);
      std::string opened = server->HandleLine(
          "{\"cmd\":\"open\",\"session\":\"" + name + "\"}");
      if (opened.find("\"ok\":true") == std::string::npos) {
        ++failures;
        return;
      }
      Drive(*server, name);
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every threaded session must be bit-identical to a solo reference
  // session that ran the same workload single-threaded.
  TempDir solo_dir;
  auto solo = MustCreate(solo_dir.path());
  MustHandle(*solo, R"({"cmd":"open","session":"ref"})");
  Drive(*solo, "ref");
  Fingerprint reference = Capture(*solo->FindSession("ref"));
  for (int c = 0; c < kClients; ++c) {
    Session* session = server->FindSession("s" + std::to_string(c));
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(Capture(*session), reference) << "session s" << c;
    EXPECT_EQ(session->engine().rule_base().get(), server->rule_base().get());
  }
}

TEST(ServerConcurrencyTest, SharedSessionSerializesUnderContention) {
  constexpr int kClients = 4;
  constexpr int kMakesPerClient = 8;
  TempDir dir;
  auto server = MustCreate(dir.path());
  MustHandle(*server, R"({"cmd":"open","session":"shared"})");

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &failures, c] {
      for (int i = 0; i < kMakesPerClient; ++i) {
        std::string response = server->HandleLine(
            "{\"cmd\":\"make\",\"session\":\"shared\",\"cls\":\"item\","
            "\"attrs\":{\"id\":" + std::to_string(c * 100 + i) +
            ",\"cat\":\"c" + std::to_string(c) + "\",\"val\":" +
            std::to_string(i) + "}}");
        if (response.find("\"ok\":true") == std::string::npos) ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // All makes landed exactly once (plus the startup WME), whatever the
  // interleaving: the slot mutex serialized them.
  Session* session = server->FindSession("shared");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->engine().wm().Snapshot().size(),
            static_cast<size_t>(kClients * kMakesPerClient + 1));
  MustHandle(*server, R"({"cmd":"run","session":"shared","max":200})");
  MustHandle(*server, R"({"cmd":"shutdown"})");
  EXPECT_TRUE(server->shutdown_requested());
}

TEST(ServerConcurrencyTest, ConcurrentClientsWithEvictionChurn) {
  // Disjoint sessions under a cap smaller than the client count: every
  // command may trigger an eviction or a transparent reopen, concurrently.
  constexpr int kClients = 4;
  TempDir dir;
  EngineServerOptions options;
  options.max_resident_sessions = 2;
  auto server = MustCreate(dir.path(), options);

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &failures, c] {
      std::string name = "s" + std::to_string(c);
      std::string opened = server->HandleLine(
          "{\"cmd\":\"open\",\"session\":\"" + name + "\"}");
      if (opened.find("\"ok\":true") == std::string::npos) {
        ++failures;
        return;
      }
      Drive(*server, name);
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  TempDir solo_dir;
  auto solo = MustCreate(solo_dir.path());
  MustHandle(*solo, R"({"cmd":"open","session":"ref"})");
  Drive(*solo, "ref");
  Fingerprint reference = CaptureSansCounters(*solo->FindSession("ref"));
  for (int c = 0; c < kClients; ++c) {
    std::string name = "s" + std::to_string(c);
    // Touch the session so an evicted one reopens before capture (the
    // touch also converges residency if the churn left an overflow).
    MustHandle(*server, "{\"cmd\":\"wm\",\"session\":\"" + name + "\"}");
    Session* session = server->FindSession(name);
    ASSERT_NE(session, nullptr) << name;
    Fingerprint got = CaptureSansCounters(*session);
    EXPECT_EQ(got, reference) << name << "\n"
                              << DiffFingerprints(reference, got);
  }
  // Sequential traffic has drained; the cap must hold again.
  EXPECT_LE(server->sessions_resident(), 2);
}

}  // namespace
}  // namespace server
}  // namespace sorel
