#include "workload.h"

#include <utility>

namespace servebench {

namespace {

// ingest: small requests on a tuple-only rule base (a 2-CE join plus a
// negated CE). A reading is a spike when it exceeds its sensor's limit and
// no live reading of that sensor is higher. The RHS only writes, so the
// session's time tags advance by exactly one per client make.
constexpr const char* kIngestRules = R"(
(literalize sensor id limit)
(literalize reading sensor seq val)
(p spike
   (sensor ^id <s> ^limit <l>)
   (reading ^sensor <s> ^seq <q> ^val { <v> > <l> })
   -(reading ^sensor <s> ^val > <v>)
   -->
   (write spike <s> <q>))
)";

// set_batch: the payroll-monitor shape. Set CEs over each department's
// staff; a below-floor average raises everyone in one firing (a foreach
// modify), and an over-headcount department is removed as a set.
constexpr const char* kSetBatchRules = R"(
(literalize employee id dept salary)
(literalize dept-target dept floor headcount)
(p below-floor-raise
   (dept-target ^dept <d> ^floor <f>)
   { [employee ^dept <d> ^salary <s>] <Staff> }
   :test ((avg <s>) < <f>)
   -->
   (foreach <Staff> (modify <Staff> ^salary ((<s> * 11) / 10))))
(p overstaffed
   (dept-target ^dept <d> ^headcount <h>)
   { [employee ^dept <d>] <Staff> }
   :test ((count <Staff>) > <h>)
   -->
   (set-remove <Staff>))
)";

// churn: a self-join on the group key keeps one token per ordered pair of
// items in a group; `watch` WMEs never exist, so the pairs stay partial
// matches (a large beta memory, no instantiations). Every modify moves an
// item to another group, deleting and rebuilding its pair tokens. `moved`
// fires once per modified item whose value is unique in its new group; its
// negated CE probes the group. Neither RHS consumes a time tag.
constexpr const char* kChurnRules = R"(
(literalize item id grp val)
(literalize watch grp)
(p crowd
   (item ^grp <g> ^id <a>)
   (item ^grp <g> ^id { <b> <> <a> })
   (watch ^grp <g>)
   -->
   (write crowd <g> <a> <b>))
(p moved
   (item ^id <a> ^grp <g> ^val <v>)
   -(item ^grp <g> ^val <v> ^id { <> <a> })
   -->
   (write moved <a> <g>))
)";

constexpr int kSensors = 16;
constexpr int kIngestLive = 256;     // a reading is removed 256 steps later
constexpr int kIngestRunEvery = 16;  // makes per run
constexpr int kDepts = 16;
constexpr int kBatchMakes = 100;
constexpr int kChurnItems = 4000;
constexpr int kChurnGroups = 64;
constexpr int kChurnRunEvery = 2;  // modifies per run

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {Workload::kIngest, "ingest", kIngestRules, 1, 80000, 47000},
      {Workload::kSetBatch, "set_batch", kSetBatchRules, 1, 400, 600},
      {Workload::kChurn, "churn", kChurnRules, 1, 251, 420},
  };
  return specs;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  out += s;
  out += "\"";
  return out;
}

std::string AttrsJson(
    const std::vector<std::pair<std::string, int64_t>>& attrs) {
  std::string out = "{";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i != 0) out += ",";
    out += Quote(attrs[i].first) + ":" + std::to_string(attrs[i].second);
  }
  return out + "}";
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() { return Specs(); }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string SessionName(const WorkloadSpec& spec, int conn) {
  return std::string(spec.name) + "-" + std::to_string(conn);
}

std::string OpenLine(const WorkloadSpec& spec, int conn) {
  return "{\"cmd\":\"open\",\"session\":" + Quote(SessionName(spec, conn)) +
         "}";
}

uint64_t Fnv1a(std::string_view data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Stream::Stream(const WorkloadSpec& spec, uint64_t seed, int conn)
    : spec_(spec), session_(SessionName(spec, conn)) {
  // splitmix64-seeded xorshift state, distinct per (workload, seed, conn).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(conn) +
               (static_cast<uint64_t>(spec.workload) << 32) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  rng_ = (z ^ (z >> 31)) | 1;
}

uint64_t Stream::Rand() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

void Stream::Make(std::vector<Request>* out, Kind kind, std::string cls,
                  std::vector<std::pair<std::string, int64_t>> attrs) {
  Request r;
  r.op = Request::Op::kMake;
  r.kind = kind;
  r.line = "{\"cmd\":\"make\",\"session\":" + Quote(session_) +
           ",\"cls\":" + Quote(cls) + ",\"attrs\":" + AttrsJson(attrs) + "}";
  r.cls = std::move(cls);
  r.attrs = std::move(attrs);
  out->push_back(std::move(r));
}

void Stream::Remove(std::vector<Request>* out, uint64_t tag) {
  Request r;
  r.op = Request::Op::kRemove;
  r.kind = Kind::kCommit;
  r.tag = tag;
  r.line = "{\"cmd\":\"remove\",\"session\":" + Quote(session_) +
           ",\"tag\":" + std::to_string(tag) + "}";
  out->push_back(std::move(r));
}

void Stream::Modify(std::vector<Request>* out, uint64_t tag,
                    std::vector<std::pair<std::string, int64_t>> attrs) {
  Request r;
  r.op = Request::Op::kModify;
  r.kind = Kind::kCommit;
  r.tag = tag;
  r.line = "{\"cmd\":\"modify\",\"session\":" + Quote(session_) +
           ",\"tag\":" + std::to_string(tag) +
           ",\"attrs\":" + AttrsJson(attrs) + "}";
  r.attrs = std::move(attrs);
  out->push_back(std::move(r));
}

void Stream::Simple(std::vector<Request>* out, Request::Op op, Kind kind,
                    const char* cmd) {
  Request r;
  r.op = op;
  r.kind = kind;
  r.line = "{\"cmd\":\"" + std::string(cmd) + "\",\"session\":" +
           Quote(session_) + "}";
  out->push_back(std::move(r));
}

void Stream::NextStep(std::vector<Request>* out) {
  const size_t first = out->size();
  switch (spec_.workload) {
    case Workload::kIngest: {
      if (step_ == 0) {
        for (int s = 0; s < kSensors; ++s) {
          Make(out, Kind::kCommit, "sensor",
               {{"id", s}, {"limit", 50 + static_cast<int64_t>(Rand() % 40)}});
          out->back().expect_tag = next_tag_++;
        }
      }
      Make(out, Kind::kCommit, "reading",
           {{"sensor", static_cast<int64_t>(Rand() % kSensors)},
            {"seq", step_},
            {"val", static_cast<int64_t>(Rand() % 100)}});
      out->back().expect_tag = next_tag_;
      tags_.push_back(next_tag_++);
      if (step_ >= kIngestLive) Remove(out, tags_[step_ - kIngestLive]);
      if ((step_ + 1) % kIngestRunEvery == 0) {
        Simple(out, Request::Op::kRun, Kind::kRun, "run");
      }
      // A window is kWindowSteps steps: every request is pipelined except
      // the window's last.
      for (size_t i = first; i < out->size(); ++i) (*out)[i].pipelined = true;
      out->back().pipelined = (step_ + 1) % kWindowSteps != 0;
      break;
    }
    case Workload::kSetBatch: {
      if (step_ == 0) {
        for (int d = 0; d < kDepts; ++d) {
          Make(out, Kind::kCommit, "dept-target",
               {{"dept", d}, {"floor", 64}, {"headcount", 120}});
        }
      }
      Simple(out, Request::Op::kBegin, Kind::kUntimed, "begin");
      out->back().pipelined = true;
      for (int i = 0; i < kBatchMakes; ++i) {
        Make(out, Kind::kUntimed, "employee",
             {{"id", step_ * kBatchMakes + i},
              {"dept", static_cast<int64_t>(Rand() % kDepts)},
              {"salary", 30 + static_cast<int64_t>(Rand() % 71)}});
        out->back().pipelined = i + 1 < kBatchMakes;
      }
      Simple(out, Request::Op::kCommit, Kind::kCommit, "commit");
      Simple(out, Request::Op::kRun, Kind::kRun, "run");
      break;
    }
    case Workload::kChurn: {
      if (step_ == 0) {
        for (int i = 0; i < kChurnItems; ++i) {
          Make(out, Kind::kCommit, "item",
               {{"id", i},
                {"grp", static_cast<int64_t>(Rand() % kChurnGroups)},
                {"val", static_cast<int64_t>(Rand() % 10000)}});
          out->back().expect_tag = next_tag_;
          tags_.push_back(next_tag_++);
        }
        Simple(out, Request::Op::kRun, Kind::kRun, "run");
        break;
      }
      const size_t item = Rand() % kChurnItems;
      Modify(out, tags_[item],
             {{"grp", static_cast<int64_t>(Rand() % kChurnGroups)},
              {"val", static_cast<int64_t>(Rand() % 10000)}});
      out->back().expect_tag = next_tag_;
      tags_[item] = next_tag_++;
      if (step_ % kChurnRunEvery == 0) {
        // The run is written together with the modify before it, so its
        // latency is that modify plus recognize-act on it. Sent alone, a
        // run costs a few microseconds of work and its latency would time
        // the host's thread wake-up instead.
        out->back().pipelined = true;
        Simple(out, Request::Op::kRun, Kind::kRun, "run");
      }
      break;
    }
  }
  ++step_;
}

std::vector<Request> Stream::Steps(int steps) {
  std::vector<Request> out;
  for (int i = 0; i < steps; ++i) NextStep(&out);
  return out;
}

MeasuredStream::MeasuredStream(const WorkloadSpec& spec, uint64_t seed,
                               int conn, int seconds)
    : stream_(spec, seed, conn),
      left_(static_cast<int64_t>(spec.steps_per_second) * seconds) {
  stream_.Steps(spec.prefix_steps);
}

bool MeasuredStream::Next(std::vector<Request>* chunk) {
  chunk->clear();
  constexpr int64_t kChunkSteps = 8 * kWindowSteps;
  for (int64_t i = 0; i < kChunkSteps && left_ > 0; ++i, --left_) {
    stream_.NextStep(chunk);
  }
  return !chunk->empty();
}

}  // namespace servebench
