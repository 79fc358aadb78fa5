#include "server/codec.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sorel {
namespace server {

namespace {

/// Exact round-trip rendering of an int64 (JSON numbers are doubles, which
/// lose precision past 2^53 — tags and integer field values must not).
std::string QuotedInt(int64_t v) { return "\"" + std::to_string(v) + "\""; }

std::string QuotedU64(uint64_t v) { return "\"" + std::to_string(v) + "\""; }

Result<int64_t> ParseInt(const std::string& text, std::string_view what) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("codec: bad " + std::string(what) + " '" +
                                   text + "'");
  }
  return static_cast<int64_t>(v);
}

Result<const obs::JsonValue*> Member(const obs::JsonValue& j,
                                     std::string_view key) {
  const obs::JsonValue* m = j.Find(key);
  if (m == nullptr) {
    return Status::InvalidArgument("codec: missing member '" +
                                   std::string(key) + "'");
  }
  return m;
}

Result<std::string> MemberString(const obs::JsonValue& j,
                                 std::string_view key) {
  SOREL_ASSIGN_OR_RETURN(const obs::JsonValue* m, Member(j, key));
  if (!m->is_string()) {
    return Status::InvalidArgument("codec: member '" + std::string(key) +
                                   "' is not a string");
  }
  return m->string;
}

Result<int64_t> MemberInt(const obs::JsonValue& j, std::string_view key) {
  SOREL_ASSIGN_OR_RETURN(std::string text, MemberString(j, key));
  return ParseInt(text, key);
}

Result<bool> MemberBool(const obs::JsonValue& j, std::string_view key) {
  SOREL_ASSIGN_OR_RETURN(const obs::JsonValue* m, Member(j, key));
  if (m->kind != obs::JsonValue::Kind::kBool) {
    return Status::InvalidArgument("codec: member '" + std::string(key) +
                                   "' is not a bool");
  }
  return m->boolean;
}

/// Bit-exact double rendering: C99 hexfloat, which strtod parses back to
/// the identical bit pattern (decimal shortest-round-trip would need
/// %.17g + care; hexfloat is exact by construction).
std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

Result<double> ParseHexFloat(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("codec: bad float '" + text + "'");
  }
  return v;
}

Result<ReplayChange> DecodeChange(const obs::JsonValue& j,
                                  SymbolTable* symbols) {
  if (!j.is_object()) {
    return Status::InvalidArgument("codec: change is not an object");
  }
  SOREL_ASSIGN_OR_RETURN(std::string op, MemberString(j, "op"));
  ReplayChange change;
  SOREL_ASSIGN_OR_RETURN(change.tag, MemberInt(j, "tag"));
  SOREL_ASSIGN_OR_RETURN(change.modify_pair, MemberInt(j, "pair"));
  if (op == "rm") {
    change.added = false;
    return change;
  }
  if (op != "add") {
    return Status::InvalidArgument("codec: unknown change op '" + op + "'");
  }
  change.added = true;
  SOREL_ASSIGN_OR_RETURN(std::string cls, MemberString(j, "cls"));
  change.cls = symbols->Intern(cls);
  SOREL_ASSIGN_OR_RETURN(const obs::JsonValue* fields, Member(j, "fields"));
  if (!fields->is_array()) {
    return Status::InvalidArgument("codec: 'fields' is not an array");
  }
  change.fields.reserve(fields->items.size());
  for (const obs::JsonValue& f : fields->items) {
    SOREL_ASSIGN_OR_RETURN(Value v, DecodeValue(f, symbols));
    change.fields.push_back(v);
  }
  return change;
}

std::string EncodeChange(const WmChange& c, const SymbolTable& symbols) {
  std::string out;
  if (c.added) {
    out += "{\"op\":\"add\",\"tag\":" + QuotedInt(c.wme->time_tag());
    out += ",\"cls\":\"" +
           obs::JsonEscape(symbols.Name(c.wme->cls())) + "\"";
    out += ",\"pair\":" + QuotedInt(c.modify_pair);
    out += ",\"fields\":[";
    const auto& fields = c.wme->fields();
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i != 0) out += ",";
      out += EncodeValue(fields[i], symbols);
    }
    out += "]}";
  } else {
    out += "{\"op\":\"rm\",\"tag\":" + QuotedInt(c.wme->time_tag());
    out += ",\"pair\":" + QuotedInt(c.modify_pair) + "}";
  }
  return out;
}

}  // namespace

std::string EncodeValue(const Value& v, const SymbolTable& symbols) {
  switch (v.kind()) {
    case ValueKind::kNil:
      return "null";
    case ValueKind::kInt:
      return "{\"i\":" + QuotedInt(v.as_int()) + "}";
    case ValueKind::kFloat:
      return "{\"f\":\"" + HexFloat(v.as_float()) + "\"}";
    case ValueKind::kSymbol:
      return "{\"s\":\"" + obs::JsonEscape(symbols.Name(v.as_symbol())) +
             "\"}";
  }
  return "null";
}

Result<Value> DecodeValue(const obs::JsonValue& j, SymbolTable* symbols) {
  if (j.kind == obs::JsonValue::Kind::kNull) return Value::Nil();
  if (!j.is_object() || j.members.size() != 1) {
    return Status::InvalidArgument("codec: bad value encoding");
  }
  const auto& [key, inner] = j.members[0];
  if (!inner.is_string()) {
    return Status::InvalidArgument("codec: value member '" + key +
                                   "' is not a string");
  }
  if (key == "i") {
    SOREL_ASSIGN_OR_RETURN(int64_t v, ParseInt(inner.string, "int value"));
    return Value::Int(v);
  }
  if (key == "f") {
    SOREL_ASSIGN_OR_RETURN(double v, ParseHexFloat(inner.string));
    return Value::Float(v);
  }
  if (key == "s") return Value::Symbol(symbols->Intern(inner.string));
  return Status::InvalidArgument("codec: unknown value kind '" + key + "'");
}

std::string EncodeTag(int64_t v) { return QuotedInt(v); }

Result<int64_t> DecodeTag(const obs::JsonValue& j) {
  if (!j.is_string()) {
    return Status::InvalidArgument("codec: tag is not a string");
  }
  return ParseInt(j.string, "tag");
}

std::string EncodeBatch(uint64_t lsn, bool direct,
                        const std::vector<WmChange>& changes,
                        TimeTag next_tag, const SymbolTable& symbols) {
  std::string out = "{\"t\":\"batch\",\"lsn\":" + QuotedU64(lsn);
  out += direct ? ",\"direct\":true" : ",\"direct\":false";
  out += ",\"next_tag\":" + QuotedInt(next_tag);
  out += ",\"changes\":[";
  for (size_t i = 0; i < changes.size(); ++i) {
    if (i != 0) out += ",";
    out += EncodeChange(changes[i], symbols);
  }
  out += "]}";
  return out;
}

std::string EncodeRun(uint64_t lsn, int max_firings) {
  return "{\"t\":\"run\",\"lsn\":" + QuotedU64(lsn) +
         ",\"max\":" + QuotedInt(max_firings) + "}";
}

Result<WalEntry> DecodeEntry(std::string_view payload, SymbolTable* symbols) {
  SOREL_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::ParseJson(payload));
  if (!doc.is_object()) {
    return Status::InvalidArgument("codec: record is not an object");
  }
  SOREL_ASSIGN_OR_RETURN(std::string type, MemberString(doc, "t"));
  WalEntry entry;
  SOREL_ASSIGN_OR_RETURN(int64_t lsn, MemberInt(doc, "lsn"));
  if (lsn < 0) return Status::InvalidArgument("codec: negative lsn");
  entry.lsn = static_cast<uint64_t>(lsn);
  if (type == "run") {
    entry.kind = WalEntry::Kind::kRun;
    SOREL_ASSIGN_OR_RETURN(int64_t max, MemberInt(doc, "max"));
    if (max < std::numeric_limits<int>::min() ||
        max > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("codec: run max " + std::to_string(max) +
                                     " is out of int range");
    }
    entry.max_firings = static_cast<int>(max);
    return entry;
  }
  if (type != "batch") {
    return Status::InvalidArgument("codec: unknown record type '" + type +
                                   "'");
  }
  entry.kind = WalEntry::Kind::kBatch;
  SOREL_ASSIGN_OR_RETURN(entry.direct, MemberBool(doc, "direct"));
  SOREL_ASSIGN_OR_RETURN(entry.next_tag, MemberInt(doc, "next_tag"));
  SOREL_ASSIGN_OR_RETURN(const obs::JsonValue* changes,
                         Member(doc, "changes"));
  if (!changes->is_array()) {
    return Status::InvalidArgument("codec: 'changes' is not an array");
  }
  entry.changes.reserve(changes->items.size());
  for (const obs::JsonValue& c : changes->items) {
    SOREL_ASSIGN_OR_RETURN(ReplayChange change, DecodeChange(c, symbols));
    entry.changes.push_back(std::move(change));
  }
  return entry;
}

// --- snapshot lines ---

std::string CsEntrySnapshot::Key() const {
  std::string key = rule + "|";
  for (const auto& row : rows) {
    for (TimeTag tag : row) {
      key += std::to_string(tag);
      key += ",";
    }
    key += ";";
  }
  return key;
}

std::string EncodeSnapshotHeader(const SnapshotHeader& header) {
  return "{\"t\":\"snap-header\",\"v\":1,\"lsn\":" + QuotedU64(header.lsn) +
         ",\"next_tag\":" + QuotedInt(header.next_tag) + "}";
}

Result<SnapshotHeader> DecodeSnapshotHeader(std::string_view line) {
  SOREL_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::ParseJson(line));
  SOREL_ASSIGN_OR_RETURN(std::string type, MemberString(doc, "t"));
  if (type != "snap-header") {
    return Status::InvalidArgument("snapshot: expected header, got '" + type +
                                   "'");
  }
  const obs::JsonValue* version = doc.Find("v");
  if (version == nullptr || !version->is_number() || version->number != 1) {
    return Status::InvalidArgument("snapshot: unsupported version");
  }
  SnapshotHeader header;
  SOREL_ASSIGN_OR_RETURN(int64_t lsn, MemberInt(doc, "lsn"));
  if (lsn < 0) return Status::InvalidArgument("snapshot: negative lsn");
  header.lsn = static_cast<uint64_t>(lsn);
  SOREL_ASSIGN_OR_RETURN(header.next_tag, MemberInt(doc, "next_tag"));
  return header;
}

std::string EncodeSnapshotWme(const Wme& wme, const SymbolTable& symbols) {
  std::string out = "{\"t\":\"wme\",\"tag\":" + QuotedInt(wme.time_tag());
  out += ",\"cls\":\"" + obs::JsonEscape(symbols.Name(wme.cls())) + "\"";
  out += ",\"fields\":[";
  const auto& fields = wme.fields();
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ",";
    out += EncodeValue(fields[i], symbols);
  }
  out += "]}";
  return out;
}

Result<ReplayChange> DecodeSnapshotWme(std::string_view line,
                                       SymbolTable* symbols) {
  SOREL_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::ParseJson(line));
  SOREL_ASSIGN_OR_RETURN(std::string type, MemberString(doc, "t"));
  if (type != "wme") {
    return Status::InvalidArgument("snapshot: expected wme line, got '" +
                                   type + "'");
  }
  ReplayChange change;
  change.added = true;
  SOREL_ASSIGN_OR_RETURN(change.tag, MemberInt(doc, "tag"));
  SOREL_ASSIGN_OR_RETURN(std::string cls, MemberString(doc, "cls"));
  change.cls = symbols->Intern(cls);
  SOREL_ASSIGN_OR_RETURN(const obs::JsonValue* fields,
                         Member(doc, "fields"));
  if (!fields->is_array()) {
    return Status::InvalidArgument("snapshot: 'fields' is not an array");
  }
  change.fields.reserve(fields->items.size());
  for (const obs::JsonValue& f : fields->items) {
    SOREL_ASSIGN_OR_RETURN(Value v, DecodeValue(f, symbols));
    change.fields.push_back(v);
  }
  return change;
}

std::string EncodeSnapshotCsEntry(const CsEntrySnapshot& entry) {
  std::string out = "{\"t\":\"cs\",\"rule\":\"" + obs::JsonEscape(entry.rule) +
                    "\",\"rows\":[";
  for (size_t r = 0; r < entry.rows.size(); ++r) {
    if (r != 0) out += ",";
    out += "[";
    for (size_t i = 0; i < entry.rows[r].size(); ++i) {
      if (i != 0) out += ",";
      out += QuotedInt(entry.rows[r][i]);
    }
    out += "]";
  }
  out += entry.fired ? "],\"fired\":true}" : "],\"fired\":false}";
  return out;
}

Result<CsEntrySnapshot> DecodeSnapshotCsEntry(std::string_view line) {
  SOREL_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::ParseJson(line));
  SOREL_ASSIGN_OR_RETURN(std::string type, MemberString(doc, "t"));
  if (type != "cs") {
    return Status::InvalidArgument("snapshot: expected cs line, got '" +
                                   type + "'");
  }
  CsEntrySnapshot entry;
  SOREL_ASSIGN_OR_RETURN(entry.rule, MemberString(doc, "rule"));
  SOREL_ASSIGN_OR_RETURN(entry.fired, MemberBool(doc, "fired"));
  SOREL_ASSIGN_OR_RETURN(const obs::JsonValue* rows, Member(doc, "rows"));
  if (!rows->is_array()) {
    return Status::InvalidArgument("snapshot: 'rows' is not an array");
  }
  for (const obs::JsonValue& row : rows->items) {
    if (!row.is_array()) {
      return Status::InvalidArgument("snapshot: cs row is not an array");
    }
    std::vector<TimeTag> tags;
    tags.reserve(row.items.size());
    for (const obs::JsonValue& tag : row.items) {
      SOREL_ASSIGN_OR_RETURN(int64_t t, DecodeTag(tag));
      tags.push_back(t);
    }
    entry.rows.push_back(std::move(tags));
  }
  return entry;
}

std::string EncodeSnapshotEnd(size_t wmes, size_t cs_entries) {
  return "{\"t\":\"snap-end\",\"wmes\":" +
         QuotedU64(static_cast<uint64_t>(wmes)) +
         ",\"cs\":" + QuotedU64(static_cast<uint64_t>(cs_entries)) + "}";
}

Status CheckSnapshotEnd(std::string_view line, size_t wmes,
                        size_t cs_entries) {
  SOREL_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::ParseJson(line));
  SOREL_ASSIGN_OR_RETURN(std::string type, MemberString(doc, "t"));
  if (type != "snap-end") {
    return Status::InvalidArgument("snapshot: expected trailer, got '" +
                                   type + "'");
  }
  SOREL_ASSIGN_OR_RETURN(int64_t want_wmes, MemberInt(doc, "wmes"));
  SOREL_ASSIGN_OR_RETURN(int64_t want_cs, MemberInt(doc, "cs"));
  if (want_wmes != static_cast<int64_t>(wmes) ||
      want_cs != static_cast<int64_t>(cs_entries)) {
    return Status::RuntimeError(
        "snapshot: line counts disagree with trailer (torn snapshot?)");
  }
  return Status::Ok();
}

Result<std::string> SnapshotLineKind(std::string_view line) {
  SOREL_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("snapshot: line is not an object");
  }
  SOREL_ASSIGN_OR_RETURN(std::string type, MemberString(doc, "t"));
  if (type == "snap-header") return std::string("header");
  if (type == "wme") return std::string("wme");
  if (type == "cs") return std::string("cs");
  if (type == "snap-end") return std::string("end");
  return Status::InvalidArgument("snapshot: unknown line type '" + type +
                                 "'");
}

}  // namespace server
}  // namespace sorel
