// Diagnostics quality: errors carry the right code and enough context
// (rule name, line, offending name) to act on.

#include <gtest/gtest.h>

#include <sstream>

#include "tests/test_util.h"

namespace sorel {
namespace {

Status LoadError(const std::string& src) {
  Engine engine;
  Status status = engine.LoadString(std::string(kPlayerSchema) + src);
  EXPECT_FALSE(status.ok()) << "expected failure for: " << src;
  return status;
}

TEST(ErrorsTest, ParseErrorsCarryLineNumbers) {
  Engine engine;
  Status s = engine.LoadString("(literalize m v)\n(p r (m ^v <x)\n");
  ASSERT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(ErrorsTest, CompileErrorsNameTheRule) {
  Status s = LoadError("(p myrule (ghostclass) --> (halt))");
  EXPECT_EQ(s.code(), StatusCode::kCompileError);
  EXPECT_NE(s.message().find("myrule"), std::string::npos);
  EXPECT_NE(s.message().find("ghostclass"), std::string::npos);
}

TEST(ErrorsTest, UnknownAttributeNamesBoth) {
  Status s = LoadError("(p r (player ^salary 3) --> (halt))");
  EXPECT_NE(s.message().find("player"), std::string::npos);
  EXPECT_NE(s.message().find("salary"), std::string::npos);
}

TEST(ErrorsTest, UnboundRhsVariableNamed) {
  Status s = LoadError("(p r (player) --> (write <ghost>))");
  EXPECT_NE(s.message().find("<ghost>"), std::string::npos);
}

TEST(ErrorsTest, SetVarMisuseExplainsOptions) {
  Status s = LoadError("(p r [player ^name <n>] --> (write <n>))");
  EXPECT_NE(s.message().find("<n>"), std::string::npos);
  EXPECT_NE(s.message().find("foreach"), std::string::npos);
}

TEST(ErrorsTest, ScalarClauseUnknownVariable) {
  Status s = LoadError("(p r [player ^name <n>] :scalar (<zz>)"
                       " --> (foreach <n> (write <n>)))");
  EXPECT_NE(s.message().find("<zz>"), std::string::npos);
}

TEST(ErrorsTest, ElementVariableReuse) {
  Status s = LoadError(
      "(p r { (player) <p> } { (player) <p> } --> (remove <p>))");
  EXPECT_EQ(s.code(), StatusCode::kCompileError);
  EXPECT_NE(s.message().find("<p>"), std::string::npos);
}

TEST(ErrorsTest, AggregateOnElementVarExplainsCountOnly) {
  Status s = LoadError(
      "(p r { [player] <P> } :test ((sum <P>) > 1) --> (halt))");
  EXPECT_NE(s.message().find("count"), std::string::npos);
}

TEST(ErrorsTest, RemoveOrdinalOutOfRange) {
  Status s = LoadError("(p r (player) --> (remove 5))");
  EXPECT_NE(s.message().find("ordinal"), std::string::npos);
}

TEST(ErrorsTest, LiteralizeConflictDetected) {
  Engine engine;
  ASSERT_TRUE(engine.LoadString("(literalize m a b)").ok());
  Status s = engine.LoadString("(literalize m b a)");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("re-declared"), std::string::npos);
}

TEST(ErrorsTest, RuntimeErrorNamesTheLine) {
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  ASSERT_TRUE(engine
                  .LoadString("(literalize m v)\n"
                              "(p bad (m ^v <x>)\n"
                              " --> (bind <y> (<x> / 0)))")
                  .ok());
  ASSERT_TRUE(engine.MakeWme("m", {{"v", Value::Int(1)}}).ok());
  auto r = engine.Run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError);
  EXPECT_NE(r.status().message().find("zero"), std::string::npos);
}

TEST(ErrorsTest, ForeachMemberErrorKeepsLineAndMessage) {
  // An error in one foreach member's modify surfaces with its code, its
  // source line and its text.
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  ASSERT_TRUE(engine
                  .LoadString("(literalize m v)\n"
                              "(p bad { [m ^v <x>] <P> }"
                              " :test ((count <P>) >= 2)\n"
                              " --> (foreach <P> (modify <P> ^v"
                              " (<x> / 0))))")
                  .ok());
  ASSERT_TRUE(engine.MakeWme("m", {{"v", Value::Int(1)}}).ok());
  ASSERT_TRUE(engine.MakeWme("m", {{"v", Value::Int(2)}}).ok());
  auto r = engine.Run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError);
  EXPECT_EQ(r.status().ToString(), "RuntimeError: line 3: division by zero");
}

TEST(ErrorsTest, StatusToStringFormats) {
  EXPECT_EQ(Status::CompileError("x").ToString(), "CompileError: x");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

// Match-time errors happen inside WM-change callbacks, which have no Status
// channel; the engine must surface the stashed error from Run instead of
// silently freezing the affected instantiations.

TEST(ErrorsTest, SNodeTestErrorSurfacesFromRun) {
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  ASSERT_TRUE(engine
                  .LoadString(std::string(kPlayerSchema) +
                              "(p pair { [player ^name <n>] <P> }"
                              " :test ((sum <n>) > 5) --> (write fire))")
                  .ok());
  // sum over a symbol domain: runtime type error inside the S-node.
  ASSERT_TRUE(engine.MakeWme("player", {{"name", engine.Sym("alice")}}).ok());
  auto r = engine.Run();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("sum"), std::string::npos)
      << r.status().ToString();
}

TEST(ErrorsTest, DipsCondTableErrorSurfacesFromRun) {
  EngineOptions options;
  options.matcher = MatcherKind::kDips;
  Engine engine(options);
  std::ostringstream out;
  engine.set_output(&out);
  ASSERT_TRUE(engine
                  .LoadString(std::string(kPlayerSchema) +
                              "(p pair { [player ^name <n>] <P> }"
                              " :test ((sum <n>) > 5) --> (write fire))")
                  .ok());
  ASSERT_TRUE(engine.MakeWme("player", {{"name", engine.Sym("alice")}}).ok());
  auto r = engine.Run();
  ASSERT_FALSE(r.ok());
}

TEST(ErrorsTest, RunParallelSurfacesMatchErrors) {
  Engine engine;
  std::ostringstream out;
  engine.set_output(&out);
  ASSERT_TRUE(engine
                  .LoadString(std::string(kPlayerSchema) +
                              "(p pair { [player ^name <n>] <P> }"
                              " :test ((sum <n>) > 5) --> (write fire))")
                  .ok());
  ASSERT_TRUE(engine.MakeWme("player", {{"name", engine.Sym("alice")}}).ok());
  EXPECT_FALSE(engine.RunParallel().ok());
}

}  // namespace
}  // namespace sorel
