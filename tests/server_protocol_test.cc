// Protocol golden tests: a scripted request transcript is replayed through
// EngineServer::HandleLine and the full request/response exchange is
// compared byte-for-byte against tests/golden/server_protocol.golden —
// response key order, value encodings, and error wording are all pinned.
// Error paths (malformed JSON, unknown session, unknown command, bad
// session names, run/rollback misuse) are additionally asserted against
// their Status codes inline, so a failure names the broken case even when
// the golden diff is large.
//
// To update the golden after an intentional protocol change:
//   SOREL_REGEN_GOLDEN=1 ./build/tests/server_protocol_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "server/engine_server.h"
#include "server_test_util.h"

namespace sorel {
namespace server {
namespace {

constexpr const char* kRules = R"(
(literalize item id cat val)
(p promote { (item ^cat A ^val <v>) <i> } -->
  (modify <i> ^cat B ^val (compute <v> * 2))
  (write promoted <v> (crlf)))
(p chain (item ^cat B ^val <v>) { (item ^cat C ^val <v>) <c> } -->
  (remove <c>)
  (write chained <v> (crlf)))
)";

/// The scripted exchange. Each request is paired with the Status code its
/// response must carry ("" = success). The exact response bytes live in
/// the golden file.
struct Step {
  const char* request;
  const char* code;  // expected "code" field; "" means ok:true
};

const Step kScript[] = {
    {R"({"cmd":"ping"})", ""},
    {R"({"cmd":"rules"})", ""},
    {R"({"cmd":"sessions"})", ""},
    // --- error paths before any session exists ---
    {R"(this is not json)", "ParseError"},
    {R"([1,2,3])", "InvalidArgument"},           // not an object
    {R"({"session":"s1"})", "InvalidArgument"},  // missing cmd
    {R"({"cmd":"open"})", "InvalidArgument"},    // missing session name
    {R"({"cmd":"open","session":"../evil"})", "InvalidArgument"},
    {R"({"cmd":"open","session":".hidden"})", "InvalidArgument"},
    {R"({"cmd":"open","session":"s1","matcher":"quantum"})",
     "InvalidArgument"},
    {R"({"cmd":"make","session":"nope","cls":"item","attrs":{}})",
     "NotFound"},
    // --- numeric fields are range-checked, never narrowed by a cast ---
    {R"({"cmd":"open","session":"s2","threads":100000})",
     "InvalidArgument"},  // over kMaxSessionThreads
    {R"({"cmd":"open","session":"s2","threads":1e20})", "InvalidArgument"},
    {R"({"cmd":"open","session":"s2","threads":2.5})", "InvalidArgument"},
    {R"({"cmd":"open","session":"s2","fsync_every":-1e20})",
     "InvalidArgument"},
    // --- a working session ---
    {R"({"cmd":"open","session":"s1","matcher":"rete","strategy":"lex"})",
     ""},
    {R"({"cmd":"open","session":"s1"})", "InvalidArgument"},  // already open
    {R"({"cmd":"sessions"})", ""},
    {R"({"cmd":"frobnicate","session":"s1"})", "InvalidArgument"},
    {R"({"cmd":"make","session":"s1","cls":"bogus","attrs":{}})",
     "InvalidArgument"},
    {R"({"cmd":"make","session":"s1","cls":"item","attrs":{"id":1,"cat":"A","val":5}})",
     ""},
    {R"({"cmd":"make","session":"s1","cls":"item","attrs":{"id":2,"cat":"C","val":7}})",
     ""},
    {R"({"cmd":"make","session":"s1","cls":"item","attrs":{"val":[1,2]}})",
     "InvalidArgument"},  // arrays cannot coerce to attribute values
    {R"({"cmd":"run","session":"s1"})", ""},
    {R"({"cmd":"remove","session":"s1","tag":"999"})", "NotFound"},
    // --- transactions ---
    {R"({"cmd":"begin","session":"s1"})", ""},
    {R"({"cmd":"run","session":"s1"})", "InvalidArgument"},  // run in txn
    {R"({"cmd":"make","session":"s1","cls":"item","attrs":{"id":9,"cat":"C","val":1}})",
     ""},
    {R"({"cmd":"rollback","session":"s1"})", ""},
    {R"({"cmd":"rollback","session":"s1"})", "InvalidArgument"},  // no txn
    // --- inspection (exact encodings pinned by the golden) ---
    {R"({"cmd":"wm","session":"s1"})", ""},
    {R"({"cmd":"cs","session":"s1"})", ""},
    {R"({"cmd":"metrics","session":"s1"})", ""},
    {R"({"cmd":"wal","session":"s1"})", ""},
    {R"({"cmd":"modify","session":"s1","tag":"2","attrs":{"val":9}})", ""},
    {R"({"cmd":"dump","session":"s1"})", ""},
    {R"({"cmd":"trace","session":"s1"})", ""},  // opened untraced: []
    // --- snapshot + close ---
    {R"({"cmd":"snapshot","session":"s1"})", ""},
    {R"({"cmd":"wal","session":"s1"})", ""},  // truncated: records back to 0
    {R"({"cmd":"close","session":"s1"})", ""},
    {R"({"cmd":"close","session":"s1"})", "NotFound"},
    // --- in-range numbers keep their meaning ---
    {R"({"cmd":"open","session":"s2","threads":2,"fsync_every":0})", ""},
    {R"({"cmd":"make","session":"s2","cls":"item","attrs":{"id":3,"cat":"A","val":1}})",
     ""},
    {R"({"cmd":"run","session":"s2","max":1e20})", "InvalidArgument"},
    {R"({"cmd":"run","session":"s2","max":0.5})", "InvalidArgument"},
    {R"({"cmd":"run","session":"s2","max":-3})", ""},  // negative: unlimited
    // fsync_every 0 clamped to 1: one fsync per record.
    {R"({"cmd":"wal","session":"s2"})", ""},
    // A numeric tag must be an integer in TimeTag's range; an in-range tag
    // that names no live WME is still NotFound.
    {R"({"cmd":"remove","session":"s2","tag":1e300})", "InvalidArgument"},
    {R"({"cmd":"remove","session":"s2","tag":1e400})", "InvalidArgument"},
    {R"({"cmd":"remove","session":"s2","tag":0.5})", "InvalidArgument"},
    {R"({"cmd":"remove","session":"s2","tag":-1})", "NotFound"},
    {R"({"cmd":"close","session":"s2"})", ""},
    {R"({"cmd":"shutdown"})", ""},
};

std::string GoldenPath() {
  std::string file = __FILE__;
  size_t slash = file.rfind('/');
  return file.substr(0, slash + 1) + "golden/server_protocol.golden";
}

/// Pulls the "code" field out of an error response line (crudely — the
/// field is always first after ok).
std::string ResponseCode(const std::string& response) {
  const std::string key = "\"code\":\"";
  size_t at = response.find(key);
  if (at == std::string::npos) return "";
  size_t end = response.find('"', at + key.size());
  return response.substr(at + key.size(), end - at - key.size());
}

TEST(ServerProtocolTest, TranscriptMatchesGolden) {
  TempDir dir;
  EngineServerOptions options;
  options.data_dir = dir.path();
  auto server = EngineServer::Create(kRules, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::ostringstream transcript;
  for (const Step& step : kScript) {
    std::string response = (*server)->HandleLine(step.request);
    transcript << "> " << step.request << "\n< " << response << "\n";
    if (std::string(step.code).empty()) {
      EXPECT_NE(response.find("\"ok\":true"), std::string::npos)
          << step.request << " -> " << response;
    } else {
      EXPECT_EQ(ResponseCode(response), step.code)
          << step.request << " -> " << response;
    }
  }
  EXPECT_TRUE((*server)->shutdown_requested());

  if (std::getenv("SOREL_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.is_open()) << GoldenPath();
    out << transcript.str();
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.is_open())
      << "missing " << GoldenPath()
      << " — regenerate with SOREL_REGEN_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(transcript.str(), golden.str())
      << "protocol output changed; if intentional, regenerate with "
         "SOREL_REGEN_GOLDEN=1 ./server_protocol_test";
}

TEST(ServerProtocolTest, ResponsesAreValidJson) {
  // Every response line — success or error — must parse as a JSON object
  // with an "ok" member (clients dispatch on it).
  TempDir dir;
  EngineServerOptions options;
  options.data_dir = dir.path();
  auto server = EngineServer::Create(kRules, options);
  ASSERT_TRUE(server.ok());
  for (const Step& step : kScript) {
    std::string response = (*server)->HandleLine(step.request);
    auto parsed = obs::ParseJson(response);
    ASSERT_TRUE(parsed.ok()) << step.request << " -> " << response;
    ASSERT_TRUE(parsed->is_object()) << response;
    EXPECT_NE(parsed->Find("ok"), nullptr) << response;
  }
}

TEST(ServerProtocolTest, SessionsAreIsolatedOverTheProtocol) {
  // The protocol-level view of the isolation property: two sessions, same
  // commands with different values — neither's wm/cs/metrics mention the
  // other's state, and tag counters advance independently.
  TempDir dir;
  EngineServerOptions options;
  options.data_dir = dir.path();
  auto server = EngineServer::Create(kRules, options);
  ASSERT_TRUE(server.ok());
  EngineServer& srv = **server;
  EXPECT_NE(srv.HandleLine(R"({"cmd":"open","session":"a"})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(srv.HandleLine(R"({"cmd":"open","session":"b"})")
                .find("\"ok\":true"),
            std::string::npos);
  std::string t1 = srv.HandleLine(
      R"({"cmd":"make","session":"a","cls":"item","attrs":{"id":1,"cat":"A","val":111}})");
  std::string t2 = srv.HandleLine(
      R"({"cmd":"make","session":"b","cls":"item","attrs":{"id":1,"cat":"A","val":333}})");
  // Both sessions hand out tag 1: independent counters.
  EXPECT_NE(t1.find("\"tag\":\"1\""), std::string::npos) << t1;
  EXPECT_NE(t2.find("\"tag\":\"1\""), std::string::npos) << t2;
  srv.HandleLine(R"({"cmd":"run","session":"a"})");
  std::string wm_a = srv.HandleLine(R"({"cmd":"wm","session":"a"})");
  std::string wm_b = srv.HandleLine(R"({"cmd":"wm","session":"b"})");
  // a ran: its item was promoted to val 222 (= 2*111). b never ran and
  // still holds val 333. Neither listing mentions the other's values.
  EXPECT_NE(wm_a.find("\"i\":\"222\""), std::string::npos) << wm_a;
  EXPECT_EQ(wm_a.find("\"i\":\"333\""), std::string::npos) << wm_a;
  EXPECT_NE(wm_b.find("\"i\":\"333\""), std::string::npos) << wm_b;
  EXPECT_EQ(wm_b.find("\"i\":\"222\""), std::string::npos) << wm_b;
  // b's unrun instantiation sits in its conflict set, untouched by a's run.
  std::string cs_b = srv.HandleLine(R"({"cmd":"cs","session":"b"})");
  EXPECT_NE(cs_b.find("promote"), std::string::npos) << cs_b;
}

TEST(ServerProtocolTest, NumericTagsAreRangeChecked) {
  TempDir dir;
  EngineServerOptions options;
  options.data_dir = dir.path();
  auto server = EngineServer::Create(kRules, options);
  ASSERT_TRUE(server.ok());
  EngineServer& srv = **server;
  ASSERT_NE(srv.HandleLine(R"({"cmd":"open","session":"s"})")
                .find("\"ok\":true"),
            std::string::npos);
  std::string made = srv.HandleLine(
      R"({"cmd":"make","session":"s","cls":"item","attrs":{"id":1,"cat":"Z"}})");
  ASSERT_NE(made.find("\"tag\":\"1\""), std::string::npos) << made;
  // Outside int64 (2^63 - 1 parses to 2^63 as a double), infinite, or
  // fractional: rejected before any lookup, on remove and modify alike.
  for (std::string tag : {"9223372036854775807", "1e19", "-1e19", "1e400",
                          "-1e400", "1.5", "-0.25"}) {
    std::string remove =
        R"({"cmd":"remove","session":"s","tag":)" + tag + "}";
    EXPECT_EQ(ResponseCode(srv.HandleLine(remove)), "InvalidArgument") << tag;
    std::string modify = R"({"cmd":"modify","session":"s","tag":)" + tag +
                         R"(,"attrs":{"id":2}})";
    EXPECT_EQ(ResponseCode(srv.HandleLine(modify)), "InvalidArgument") << tag;
  }
  // In range: -2^63 and other dead tags are NotFound; a live one works.
  EXPECT_EQ(ResponseCode(srv.HandleLine(
                R"({"cmd":"remove","session":"s","tag":-9223372036854775808})")),
            "NotFound");
  EXPECT_EQ(ResponseCode(srv.HandleLine(
                R"({"cmd":"remove","session":"s","tag":2})")),
            "NotFound");
  std::string removed =
      srv.HandleLine(R"({"cmd":"remove","session":"s","tag":1.0})");
  EXPECT_NE(removed.find("\"ok\":true"), std::string::npos) << removed;
}

}  // namespace
}  // namespace server
}  // namespace sorel
