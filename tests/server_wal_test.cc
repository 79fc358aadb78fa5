// WAL framing and codec unit tests: CRC-32 vectors, append/read round
// trips, fsync batching, every torn-tail shape the recovery path must
// survive, and exact value/record/snapshot-line encodings (64-bit ints and
// doubles must round-trip bit-identically — recovery is only as good as
// the codec).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "server/codec.h"
#include "server/wal.h"

namespace sorel {
namespace server {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sorel_wal_test_XXXXXX";
    ASSERT_NE(::mkstemp(tmpl), -1);
    path_ = tmpl;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Reads the raw file bytes.
  std::string FileBytes() {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string out;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
    std::fclose(f);
    return out;
  }

  void WriteFileBytes(const std::string& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  std::string path_;
};

TEST(Crc32Test, KnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  // Any corruption must change the sum.
  EXPECT_NE(Crc32("hello world"), Crc32("hello worle"));
}

TEST_F(WalTest, AppendReadRoundTrip) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  std::vector<std::string> payloads = {"first", "", "third with spaces",
                                       std::string("\0binary\xff", 8)};
  for (const std::string& p : payloads) {
    ASSERT_TRUE(writer.Append(p).ok());
  }
  writer.Close();

  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(read->records[i].payload, payloads[i]);
  }
  EXPECT_EQ(read->torn_bytes, 0u);
  EXPECT_FALSE(read->crc_mismatch);
  // end_offsets are cumulative frame sizes.
  uint64_t expect = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    expect += 8 + payloads[i].size();
    EXPECT_EQ(read->records[i].end_offset, expect);
  }
}

TEST_F(WalTest, MissingFileReadsEmpty) {
  std::remove(path_.c_str());
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->torn_bytes, 0u);
}

TEST_F(WalTest, FsyncBatching) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_, /*fsync_every=*/4).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.Append("record").ok());
  }
  // 10 appends at every-4 batching: syncs after records 4 and 8.
  EXPECT_EQ(writer.stats().fsyncs, 2u);
  EXPECT_EQ(writer.stats().records, 10u);
  ASSERT_TRUE(writer.Sync().ok());  // flushes the 2 pending
  EXPECT_EQ(writer.stats().fsyncs, 3u);
  ASSERT_TRUE(writer.Sync().ok());  // nothing pending: no extra fsync
  EXPECT_EQ(writer.stats().fsyncs, 3u);
}

TEST_F(WalTest, TruncateResetsFile) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append("before").ok());
  ASSERT_TRUE(writer.Truncate().ok());
  ASSERT_TRUE(writer.Append("after").ok());
  writer.Close();
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "after");
}

TEST_F(WalTest, TornHeaderDropsTail) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append("intact").ok());
  writer.Close();
  WriteFileBytes(FileBytes() +
                 std::string("\x05\x00", 2));  // 2 bytes of a next header

  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "intact");
  EXPECT_EQ(read->torn_bytes, 2u);
  EXPECT_FALSE(read->crc_mismatch);  // short, not corrupt
}

TEST_F(WalTest, TornPayloadDropsTail) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append("intact").ok());
  ASSERT_TRUE(writer.Append("this record gets cut").ok());
  writer.Close();
  std::string bytes = FileBytes();
  WriteFileBytes(bytes.substr(0, bytes.size() - 5));

  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->torn_bytes, 8u + std::strlen("this record gets cut") - 5);
  EXPECT_FALSE(read->crc_mismatch);
}

TEST_F(WalTest, FlippedByteIsCrcMismatch) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append("intact").ok());
  ASSERT_TRUE(writer.Append("damaged").ok());
  writer.Close();
  std::string bytes = FileBytes();
  bytes.back() = static_cast<char>(bytes.back() ^ 0xFF);
  WriteFileBytes(bytes);

  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "intact");
  EXPECT_EQ(read->torn_bytes, 8u + std::strlen("damaged"));
  EXPECT_TRUE(read->crc_mismatch);
}

TEST_F(WalTest, WildLengthIsCrcMismatch) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append("intact").ok());
  writer.Close();
  // A "header" whose length field is garbage (bit-flipped high byte).
  std::string bogus = std::string("\xff\xff\xff\x7f\x00\x00\x00\x00", 8) +
                      "trailing";
  WriteFileBytes(FileBytes() + bogus);

  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->torn_bytes, bogus.size());
  EXPECT_TRUE(read->crc_mismatch);
}

// --- codec ---

TEST(CodecTest, ValueRoundTripsExactly) {
  SymbolTable symbols;
  std::vector<Value> values = {
      Value::Nil(),
      Value::Int(0),
      Value::Int(-1),
      Value::Int(INT64_MAX),
      Value::Int(INT64_MIN),
      // 2^53 + 1 is where doubles lose integers — the reason ints encode
      // as decimal strings, not JSON numbers.
      Value::Int((int64_t{1} << 53) + 1),
      Value::Float(0.0),
      Value::Float(-0.0),
      Value::Float(1.0 / 3.0),
      Value::Float(1e-300),
      Value::Float(1e300),
      Value::Symbol(symbols.Intern("plain")),
      Value::Symbol(symbols.Intern("with space")),
      Value::Symbol(symbols.Intern("multi\nline")),
      Value::Symbol(symbols.Intern("pipe|and\"quote")),  // both delimiters:
      // unrepresentable in OPS5 source text, fine in the codec.
      Value::Symbol(symbols.Intern("")),
  };
  for (const Value& v : values) {
    std::string encoded = EncodeValue(v, symbols);
    auto parsed = obs::ParseJson(encoded);
    ASSERT_TRUE(parsed.ok()) << encoded << ": " << parsed.status().ToString();
    auto decoded = DecodeValue(*parsed, &symbols);
    ASSERT_TRUE(decoded.ok()) << encoded << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->kind(), v.kind()) << encoded;
    if (v.is_int()) EXPECT_EQ(decoded->as_int(), v.as_int());
    if (v.is_symbol()) EXPECT_EQ(decoded->as_symbol(), v.as_symbol());
    if (v.is_float()) {
      // Bit-exact, including the sign of zero.
      uint64_t want, got;
      double vf = v.as_float(), df = decoded->as_float();
      std::memcpy(&want, &vf, sizeof(want));
      std::memcpy(&got, &df, sizeof(got));
      EXPECT_EQ(got, want) << encoded;
    }
  }
}

TEST(CodecTest, BatchEntryRoundTrip) {
  SymbolTable symbols;
  SymbolId cls = symbols.Intern("item");
  std::vector<WmChange> changes;
  WmChange add;
  add.wme = std::make_shared<const Wme>(
      cls,
      std::vector<Value>{Value::Int(7), Value::Symbol(symbols.Intern("A")),
                         Value::Nil()},
      /*time_tag=*/41);
  add.added = true;
  add.modify_pair = 39;
  changes.push_back(add);
  WmChange rm;
  rm.wme = std::make_shared<const Wme>(cls, std::vector<Value>{}, 39);
  rm.added = false;
  rm.modify_pair = 41;
  changes.push_back(rm);

  std::string payload =
      EncodeBatch(/*lsn=*/12, /*direct=*/false, changes, /*next_tag=*/44,
                  symbols);
  SymbolTable fresh;  // recovery interns into a new table
  auto entry = DecodeEntry(payload, &fresh);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_EQ(entry->kind, WalEntry::Kind::kBatch);
  EXPECT_EQ(entry->lsn, 12u);
  EXPECT_FALSE(entry->direct);
  EXPECT_EQ(entry->next_tag, 44);
  ASSERT_EQ(entry->changes.size(), 2u);
  EXPECT_TRUE(entry->changes[0].added);
  EXPECT_EQ(entry->changes[0].tag, 41);
  EXPECT_EQ(entry->changes[0].modify_pair, 39);
  EXPECT_EQ(entry->changes[0].cls, fresh.Find("item"));
  ASSERT_EQ(entry->changes[0].fields.size(), 3u);
  EXPECT_EQ(entry->changes[0].fields[0].as_int(), 7);
  EXPECT_EQ(fresh.Name(entry->changes[0].fields[1].as_symbol()), "A");
  EXPECT_TRUE(entry->changes[0].fields[2].is_nil());
  EXPECT_FALSE(entry->changes[1].added);
  EXPECT_EQ(entry->changes[1].tag, 39);
  EXPECT_EQ(entry->changes[1].modify_pair, 41);
}

TEST(CodecTest, RunEntryRoundTrip) {
  SymbolTable symbols;
  auto entry = DecodeEntry(EncodeRun(/*lsn=*/3, /*max_firings=*/-1),
                           &symbols);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->kind, WalEntry::Kind::kRun);
  EXPECT_EQ(entry->lsn, 3u);
  EXPECT_EQ(entry->max_firings, -1);
}

TEST(CodecTest, RunEntryMaxMustFitInt) {
  SymbolTable symbols;
  auto at_limit = DecodeEntry(
      "{\"t\":\"run\",\"lsn\":\"1\",\"max\":\"-2147483648\"}", &symbols);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->max_firings, -2147483647 - 1);
  auto over = DecodeEntry(
      "{\"t\":\"run\",\"lsn\":\"1\",\"max\":\"2147483648\"}", &symbols);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(DecodeEntry(
                   "{\"t\":\"run\",\"lsn\":\"1\",\"max\":\"-9000000000\"}",
                   &symbols)
                   .ok());
}

TEST(CodecTest, MalformedEntriesError) {
  SymbolTable symbols;
  EXPECT_FALSE(DecodeEntry("not json", &symbols).ok());
  EXPECT_FALSE(DecodeEntry("{}", &symbols).ok());
  EXPECT_FALSE(DecodeEntry("{\"t\":\"mystery\",\"lsn\":\"1\"}", &symbols)
                   .ok());
  // Tags must be strings (numbers would silently lose 64-bit precision).
  EXPECT_FALSE(
      DecodeEntry("{\"t\":\"batch\",\"lsn\":\"1\",\"direct\":false,"
                  "\"next_tag\":7,\"changes\":[]}",
                  &symbols)
          .ok());
}

TEST(CodecTest, SnapshotLinesRoundTrip) {
  SymbolTable symbols;
  SnapshotHeader header;
  header.lsn = 99;
  header.next_tag = 1234;
  auto header2 = DecodeSnapshotHeader(EncodeSnapshotHeader(header));
  ASSERT_TRUE(header2.ok());
  EXPECT_EQ(header2->lsn, 99u);
  EXPECT_EQ(header2->next_tag, 1234);

  Wme wme(symbols.Intern("item"),
          {Value::Nil(), Value::Float(2.5), Value::Symbol(symbols.Intern(
                                                "line\nbreak"))},
          77);
  auto change = DecodeSnapshotWme(EncodeSnapshotWme(wme, symbols), &symbols);
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(change->tag, 77);
  EXPECT_EQ(change->cls, symbols.Find("item"));
  ASSERT_EQ(change->fields.size(), 3u);
  EXPECT_EQ(symbols.Name(change->fields[2].as_symbol()), "line\nbreak");

  CsEntrySnapshot entry;
  entry.rule = "my-rule";
  entry.rows = {{5, 2}, {9, 1}};
  entry.fired = true;
  auto entry2 = DecodeSnapshotCsEntry(EncodeSnapshotCsEntry(entry));
  ASSERT_TRUE(entry2.ok());
  EXPECT_EQ(entry2->rule, "my-rule");
  EXPECT_EQ(entry2->rows, entry.rows);
  EXPECT_TRUE(entry2->fired);
  EXPECT_EQ(entry2->Key(), entry.Key());

  EXPECT_TRUE(CheckSnapshotEnd(EncodeSnapshotEnd(3, 2), 3, 2).ok());
  // A count mismatch means the snapshot was torn mid-write.
  EXPECT_FALSE(CheckSnapshotEnd(EncodeSnapshotEnd(3, 2), 3, 1).ok());

  auto kind = SnapshotLineKind(EncodeSnapshotHeader(header));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, "header");
  EXPECT_FALSE(SnapshotLineKind("{\"t\":\"weird\"}").ok());
}

TEST(CodecTest, CsEntryKeyDistinguishesRowOrder) {
  // Row tags are recorded in CE order precisely because a symmetric join
  // can give two different instantiations the same tag multiset.
  CsEntrySnapshot a, b;
  a.rule = b.rule = "r";
  a.rows = {{1, 2}};
  b.rows = {{2, 1}};
  EXPECT_NE(a.Key(), b.Key());
}

}  // namespace
}  // namespace server
}  // namespace sorel
