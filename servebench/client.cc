#include "client.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

namespace servebench {

using sorel::Result;
using sorel::Status;

namespace {

/// A pipelined write group larger than this could outgrow the socket
/// buffers, and the client would then time its own blocking write.
constexpr size_t kMaxWindowBytes = 64 * 1024;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// On-CPU time of every live thread of `pid`, from per-task schedstat
/// (nanoseconds, unlike the tick-granular /proc/<pid>/stat).
double ServerCpuS(pid_t pid) {
  std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  double total = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double ns = 0;
    if (in >> ns) total += ns / 1e9;
  }
  closedir(d);
  return total;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

/// A running sorel_serve. The destructor kills and reaps it if the
/// benchmark bails out before a clean shutdown.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  Status Spawn(const ServerOptions& o) {
    std::string log = o.data_dir + "/server.log";
    pid_ = ::fork();
    if (pid_ < 0) return Status::RuntimeError("fork failed");
    if (pid_ == 0) {
      // Dies with the benchmark, however the benchmark ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int null_fd = ::open("/dev/null", O_RDONLY);
      int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (null_fd >= 0) ::dup2(null_fd, 0);
      if (log_fd >= 0) {
        ::dup2(log_fd, 1);
        ::dup2(log_fd, 2);
      }
      ::execl(o.binary.c_str(), o.binary.c_str(), o.rules_path.c_str(),
              "--data-dir", o.data_dir.c_str(), "--socket",
              o.socket_path.c_str(), "--fsync-every",
              std::to_string(kNoFsync).c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return Status::Ok();
  }

  pid_t pid() const { return pid_; }
  bool Exited() {
    if (pid_ <= 0) return true;
    if (::waitpid(pid_, &status_, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }
  /// Waits for a clean exit after `shutdown`.
  Status Wait() {
    if (pid_ > 0 && ::waitpid(pid_, &status_, 0) == pid_) pid_ = -1;
    if (pid_ > 0) return Status::RuntimeError("waitpid failed");
    if (!WIFEXITED(status_) || WEXITSTATUS(status_) != 0) {
      return Status::RuntimeError("sorel_serve exited abnormally");
    }
    return Status::Ok();
  }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
};

class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connects, retrying every 50 us while the server is starting.
  Status Connect(const std::string& path, ServerProcess* server) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    const double deadline = NowS() + 60;
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) return Status::RuntimeError("socket failed");
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        return Status::Ok();
      }
      Close();
      if (server->Exited()) {
        return Status::RuntimeError("sorel_serve exited before listening");
      }
      if (NowS() > deadline) return Status::RuntimeError("connect timed out");
      timespec pause{0, 50 * 1000};
      ::nanosleep(&pause, nullptr);
    }
  }

  Status Write(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::write(fd_, data.data() + sent, data.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::RuntimeError("write to sorel_serve failed");
      sent += static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  Status ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return Status::Ok();
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      // Busy-polls rather than sleeping in read(2): a sleeping client
      // makes the server's write(2) wake it, a cost that swings with the
      // host's load.
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (n <= 0) return Status::RuntimeError("sorel_serve closed the socket");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  Result<std::string> Call(const std::string& line) {
    SOREL_RETURN_IF_ERROR(Write(line + "\n"));
    std::string response;
    SOREL_RETURN_IF_ERROR(ReadLine(&response));
    return response;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t scanned_ = 0;
};

/// Failure bookkeeping shared by the connection threads.
struct Failures {
  std::mutex mu;
  uint64_t failed = 0;
  std::string first;
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (failed++ == 0) first = what;
  }
};

/// Closes the data connections, then asks for shutdown on a fresh one:
/// sorel_serve joins every connection thread before it exits, and a thread
/// blocked reading an idle client would keep it alive.
Status Shutdown(const ServerOptions& o, ServerProcess* server,
                std::vector<Conn>* conns, ServerRun* run, Failures* fails) {
  for (Conn& c : *conns) c.Close();
  Conn control;
  SOREL_RETURN_IF_ERROR(control.Connect(o.socket_path, server));
  ++run->attempted;
  SOREL_ASSIGN_OR_RETURN(std::string bye,
                         control.Call("{\"cmd\":\"shutdown\"}"));
  if (!IsOk(bye)) fails->Add("shutdown -> " + bye);
  control.Close();
  return server->Wait();
}

struct ConnResult {
  std::vector<double> commit_us;
  std::vector<double> run_us;
  uint64_t requests = 0;
  uint64_t wm_changes = 0;
  uint64_t hash = 0;
  Status status;
};

/// Sends one connection's measured stream a write group at a time (a
/// pipelined window, or a single request) and times each response from
/// the moment its group was written. Adds each answered group's requests
/// to `completed`.
void DriveConnection(Conn* conn, MeasuredStream stream,
                     std::atomic<uint64_t>* completed, Failures* fails,
                     ConnResult* out) {
  out->hash = Fnv1a("");
  std::vector<Request> chunk;
  std::string batch;
  std::string response;
  while (stream.Next(&chunk)) {
    size_t i = 0;
    while (i < chunk.size()) {
      size_t last = i;
      batch.clear();
      for (;;) {
        batch += chunk[last].line;
        batch += '\n';
        if (!chunk[last].pipelined || last + 1 == chunk.size()) break;
        ++last;
      }
      if (batch.size() > kMaxWindowBytes) {
        out->status = Status::InvalidArgument("pipelined window too large");
        return;
      }
      const double sent = NowS();
      out->status = conn->Write(batch);
      if (!out->status.ok()) return;
      for (size_t k = i; k <= last; ++k) {
        out->status = conn->ReadLine(&response);
        if (!out->status.ok()) return;
        const double latency_us = (NowS() - sent) * 1e6;
        const Request& r = chunk[k];
        const Status checked = CheckResponse(r, response);
        if (!checked.ok()) fails->Add(checked.message());
        if (r.kind == Kind::kCommit) out->commit_us.push_back(latency_us);
        if (r.kind == Kind::kRun) out->run_us.push_back(latency_us);
        if (r.op == Request::Op::kMake || r.op == Request::Op::kRemove ||
            r.op == Request::Op::kModify) {
          ++out->wm_changes;
        }
        response += '\n';
        out->hash = Fnv1a(response, out->hash);
      }
      out->requests += last + 1 - i;
      completed->fetch_add(last + 1 - i, std::memory_order_relaxed);
      i = last + 1;
    }
  }
}

/// One sample of the measured phase: when, requests answered so far, and
/// the server's on-CPU seconds so far.
struct Slice {
  double t;
  uint64_t requests;
  double server_cpu_s;
};

/// Turns consecutive samples into per-slice rates. A last slice shorter
/// than half a slice is dropped unless it is the only one.
void SliceRates(const std::vector<Slice>& samples, ServerRun* run) {
  for (size_t k = 1; k < samples.size(); ++k) {
    const double dt = samples[k].t - samples[k - 1].t;
    const double requests =
        static_cast<double>(samples[k].requests - samples[k - 1].requests);
    if (k > 1 && k + 1 == samples.size() && dt < kSliceS / 2) break;
    run->slice_rps.push_back(requests / dt);
    if (requests > 0) {
      run->slice_cpu_us_per_req.push_back(
          (samples[k].server_cpu_s - samples[k - 1].server_cpu_s) * 1e6 /
          requests);
    }
  }
}

}  // namespace

Result<ServerRun> DriveServer(const WorkloadSpec& spec,
                              const ServerOptions& o, const Prefix& prefix,
                              uint64_t seed, int seconds) {
  ServerRun run;
  Failures fails;
  const int n = spec.connections;
  for (int restart = 0; restart < kRestarts; ++restart) {
    ServerProcess server;
    std::vector<Conn> conns(n);
    // setup_s: spawn until every session has answered `open`.
    const double start = NowS();
    SOREL_RETURN_IF_ERROR(server.Spawn(o));
    for (int c = 0; c < n; ++c) {
      SOREL_RETURN_IF_ERROR(conns[c].Connect(o.socket_path, &server));
      SOREL_RETURN_IF_ERROR(conns[c].Write(OpenLine(spec, c) + "\n"));
      ++run.attempted;
    }
    for (int c = 0; c < n; ++c) {
      std::string opened;
      SOREL_RETURN_IF_ERROR(conns[c].ReadLine(&opened));
      if (!IsOk(opened)) {
        fails.Add("open -> " + opened);
      } else if (ResponseField(opened, "\"replayed\":") != prefix.records[c]) {
        return Status::RuntimeError("restart replayed a different record "
                                    "count than the prefix journaled: " +
                                    opened);
      }
    }
    run.setup_s.push_back(NowS() - start);
    if (restart + 1 < kRestarts) {
      SOREL_RETURN_IF_ERROR(Shutdown(o, &server, &conns, &run, &fails));
      continue;
    }

    // The measured phase, one thread per connection.
    std::vector<ConnResult> results(n);
    std::vector<MeasuredStream> streams;
    for (int c = 0; c < n; ++c) streams.emplace_back(spec, seed, c, seconds);
    std::atomic<uint64_t> completed{0};
    std::mutex mu;
    std::condition_variable finished;
    int sending = n;  // guarded by mu
    const double cpu0 = ServerCpuS(server.pid());
    const double client_cpu0 = ProcessCpuS();
    const auto phase_start = std::chrono::steady_clock::now();
    std::vector<Slice> samples = {{NowS(), 0, cpu0}};
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < n; ++c) {
        threads.emplace_back([&, c] {
          DriveConnection(&conns[c], std::move(streams[c]), &completed,
                          &fails, &results[c]);
          std::lock_guard<std::mutex> lock(mu);
          --sending;
          finished.notify_one();
        });
      }
      // Samples on a fixed schedule until the first connection is done;
      // the last sample is taken when it is.
      std::unique_lock<std::mutex> lock(mu);
      for (int k = 1;; ++k) {
        const auto due =
            phase_start + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(k * kSliceS));
        const bool done =
            finished.wait_until(lock, due, [&] { return sending < n; });
        lock.unlock();
        samples.push_back({NowS(), completed.load(std::memory_order_relaxed),
                           ServerCpuS(server.pid())});
        lock.lock();
        if (done) break;
      }
      lock.unlock();
      for (std::thread& t : threads) t.join();
    }
    run.phase_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - phase_start)
                      .count();
    run.client_cpu_s = ProcessCpuS() - client_cpu0;
    run.server_cpu_s = ServerCpuS(server.pid()) - cpu0;
    SliceRates(samples, &run);
    for (int c = 0; c < n; ++c) {
      SOREL_RETURN_IF_ERROR(results[c].status);
      run.measured_requests += results[c].requests;
      run.wm_changes += results[c].wm_changes;
      run.commit_us.insert(run.commit_us.end(), results[c].commit_us.begin(),
                           results[c].commit_us.end());
      run.run_us.insert(run.run_us.end(), results[c].run_us.begin(),
                        results[c].run_us.end());
    }
    run.attempted += run.measured_requests;

    // What the server says about each session afterwards.
    for (int c = 0; c < n; ++c) {
      const std::string name = SessionName(spec, c);
      std::string replies[3];
      const char* cmds[3] = {"wm", "wal", "metrics"};
      for (int q = 0; q < 3; ++q) {
        SOREL_ASSIGN_OR_RETURN(replies[q],
                               conns[c].Call(QueryLine(cmds[q], name)));
        ++run.attempted;
        if (!IsOk(replies[q])) fails.Add(std::string(cmds[q]) + " failed");
      }
      SessionCheck check;
      SOREL_RETURN_IF_ERROR(
          ParseCheck(replies[0], replies[1], replies[2], &check));
      check.response_hash = results[c].hash;
      run.checks.push_back(check);
    }
    run.peak_rss_mb = PeakRssMb(server.pid());
    SOREL_RETURN_IF_ERROR(Shutdown(o, &server, &conns, &run, &fails));
  }
  run.failed = fails.failed;
  run.first_failure = fails.first;
  return run;
}

}  // namespace servebench
