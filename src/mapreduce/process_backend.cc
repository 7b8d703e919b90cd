#include "mapreduce/process_backend.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

namespace smr {
namespace process_internal {

namespace {

/// Outcome of one link transfer under a liveness deadline.
enum class IoStatus {
  kOk,        // progress (for recv, *received == 0 means end of stream)
  kPeerGone,  // send hit EPIPE/ECONNRESET: the worker died
  kTimeout,   // no progress for the full deadline window
};

std::string Describe(const std::string& who, pid_t pid, int status) {
  std::string message = who + " (pid " + std::to_string(pid) + ") ";
  if (WIFSIGNALED(status)) {
    message += "was killed by signal " + std::to_string(WTERMSIG(status));
  } else if (WIFEXITED(status)) {
    message += "exited with status " + std::to_string(WEXITSTATUS(status));
  } else {
    message += "stopped abnormally (wait status " + std::to_string(status) +
               ")";
  }
  return message;
}

/// Waits for readiness; true = ready, false = the deadline passed.
/// timeout_ms < 0 never polls (the subsequent send/recv blocks).
bool AwaitReady(int fd, short events, int timeout_ms) {
  if (timeout_ms < 0) return true;
  while (true) {
    struct pollfd entry;
    entry.fd = fd;
    entry.events = events;
    entry.revents = 0;
    const int rc = poll(&entry, 1, timeout_ms);
    if (rc > 0) return true;  // readable/writable — or HUP/ERR, which the
                              // following send/recv surfaces precisely
    if (rc == 0) return false;
    if (errno != EINTR) {
      throw std::runtime_error(std::string("process backend: poll failed: ") +
                               std::strerror(errno));
    }
  }
}

/// Sends all of [data, data+size). With timeout_ms >= 0 every wait is a
/// poll(POLLOUT) bounded by the deadline — the deadline is per *progress*,
/// not per call, so a link that keeps accepting bytes never times out.
/// SIGPIPE is suppressed (MSG_NOSIGNAL); throws on unexpected failures.
IoStatus SendTimed(int fd, const unsigned char* data, size_t size,
                   int timeout_ms) {
  size_t sent = 0;
  while (sent < size) {
    if (!AwaitReady(fd, POLLOUT, timeout_ms)) return IoStatus::kTimeout;
    // MSG_DONTWAIT under a deadline: the poll above is the only wait.
    const ssize_t n = send(fd, data + sent, size - sent,
                           MSG_NOSIGNAL | (timeout_ms >= 0 ? MSG_DONTWAIT : 0));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kPeerGone;
      throw std::runtime_error(std::string("process backend: send failed: ") +
                               std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return IoStatus::kOk;
}

/// Reads up to `capacity` bytes under the same deadline discipline; kOk
/// with *received == 0 is end of stream.
IoStatus RecvTimed(int fd, unsigned char* out, size_t capacity,
                   int timeout_ms, size_t* received) {
  *received = 0;
  while (true) {
    if (!AwaitReady(fd, POLLIN, timeout_ms)) return IoStatus::kTimeout;
    const ssize_t n =
        recv(fd, out, capacity, timeout_ms >= 0 ? MSG_DONTWAIT : 0);
    if (n >= 0) {  // n == 0 is end of stream; the caller decides whether
                   // that is a crash
      *received = static_cast<size_t>(n);
      return IoStatus::kOk;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    if (errno == ECONNRESET) return IoStatus::kOk;  // reads as EOF
    throw std::runtime_error(std::string("process backend: recv failed: ") +
                             std::strerror(errno));
  }
}

/// Child-side failure path: ship the message as a kError frame (best
/// effort, truncated to fit any link's frame limit) and _exit(1).
[[noreturn]] void ChildFailAndExit(int fd, const char* what) {
  std::vector<unsigned char> wire;
  const size_t length = std::min<size_t>(std::strlen(what), 2048);
  AppendFrame(FrameKind::kError,
              reinterpret_cast<const unsigned char*>(what), length, &wire);
  SendTimed(fd, wire.data(), wire.size(), -1);  // best effort
  _exit(1);
}

/// Sleep before retrying after `failed_attempts` failures:
/// base * multiplier^(failed_attempts - 1), capped at 10 s.
void Backoff(const RetryPolicy& retry, unsigned failed_attempts) {
  if (retry.base_backoff_ms == 0 || failed_attempts == 0) return;
  const double factor =
      std::pow(std::max(1.0, retry.backoff_multiplier),
               static_cast<double>(failed_attempts - 1));
  const double ms = std::min(
      static_cast<double>(retry.base_backoff_ms) * factor, 10'000.0);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(ms)));
}

/// The one decoder of a whole-body varint sequence: `count` varints, or
/// with count == 0 a leading arity varint followed by that many. Returns
/// false on malformed or trailing bytes.
bool DecodeVarints(const FrameView& frame, size_t count,
                   std::vector<uint64_t>* out) {
  out->clear();
  size_t position = 0;
  const bool arity_first = count == 0;
  if (arity_first) count = 1;
  for (size_t i = 0; i < count; ++i) {
    uint64_t value = 0;
    size_t used = 0;
    if (GetVarint(frame.body + position, frame.body_bytes - position, &value,
                  &used) != DecodeStatus::kOk) {
      return false;
    }
    position += used;
    if (arity_first && i == 0) {
      // Every varint takes a byte, so a larger arity is corrupt.
      if (value > frame.body_bytes - position) return false;
      count += static_cast<size_t>(value);
      continue;
    }
    out->push_back(value);
  }
  return position == frame.body_bytes;
}

/// Rolling strict decode window over one link: Next() returns kOk or
/// kNeedMore and throws std::runtime_error on corrupt bytes. A FrameView
/// aliases the buffer and is valid until the next Append.
class FrameBuffer {
 public:
  explicit FrameBuffer(uint64_t frame_limit = kMaxFrameBytes)
      : frame_limit_(frame_limit) {}

  void Append(const unsigned char* data, size_t size) {
    if (position_ > 0) {
      bytes_.erase(bytes_.begin(),
                   bytes_.begin() + static_cast<ptrdiff_t>(position_));
      position_ = 0;
    }
    bytes_.insert(bytes_.end(), data, data + size);
  }

  DecodeStatus Next(FrameView* frame) {
    size_t consumed = 0;
    const DecodeStatus status = DecodeFrameChecked(
        bytes_.data() + position_, bytes_.size() - position_,
        /*closed=*/false, frame_limit_, frame, &consumed);
    if (status == DecodeStatus::kOk) position_ += consumed;
    return status;
  }

  bool Drained() const { return position_ >= bytes_.size(); }

 private:
  uint64_t frame_limit_;
  std::vector<unsigned char> bytes_;
  size_t position_ = 0;
};

/// Reducer sink that writes each emission as one frame ([varint
/// arity][varint node]*) through the worker's FrameWriter, so instances
/// and records interleave in emission order.
class FrameSink final : public InstanceSink {
 public:
  FrameSink(FrameKind kind, FrameWriter* writer)
      : kind_(kind), writer_(writer) {}

  void Emit(std::span<const NodeId> assignment) override {
    scratch_.clear();
    AppendVarint(assignment.size(), &scratch_);
    for (const NodeId node : assignment) AppendVarint(node, &scratch_);
    writer_->Write([&](std::vector<unsigned char>* wire) {
      AppendFrame(kind_, scratch_.data(), scratch_.size(), wire);
    });
  }

 private:
  FrameKind kind_;
  FrameWriter* writer_;
  std::vector<unsigned char> scratch_;
};

/// What a worker that died while its link was being fed had sent: the
/// message of a kError frame up to the link's end, if there is one.
std::optional<std::string> SentError(int fd, int timeout_ms,
                                     uint64_t frame_limit) {
  FrameBuffer buffer(frame_limit);
  std::vector<unsigned char> scratch(kBatchBytes);
  size_t n = 0;
  try {
    while (RecvTimed(fd, scratch.data(), scratch.size(), timeout_ms, &n) ==
               IoStatus::kOk &&
           n > 0) {
      buffer.Append(scratch.data(), n);
      FrameView frame;
      while (buffer.Next(&frame) == DecodeStatus::kOk) {
        if (frame.kind == FrameKind::kError) {
          return std::string(reinterpret_cast<const char*>(frame.body),
                             frame.body_bytes);
        }
      }
    }
  } catch (const std::runtime_error&) {
    // Corrupt bytes say nothing more than the crash itself.
  }
  return std::nullopt;
}

constexpr size_t kMetricsFields = 7;

/// A reduce worker's metrics frame: its reduce counters, as varints.
void AppendMetricsFrame(const MapReduceMetrics& shard,
                        std::vector<unsigned char>* out) {
  const uint64_t fields[kMetricsFields] = {
      shard.distinct_keys,           shard.max_reducer_input,
      shard.outputs,                 shard.reduce_cost.edges_scanned,
      shard.reduce_cost.candidates,  shard.reduce_cost.index_probes,
      shard.reduce_cost.outputs};
  unsigned char body[kMetricsFields * kMaxVarintBytes];
  size_t used = 0;
  for (const uint64_t field : fields) used += PutVarint(field, body + used);
  AppendFrame(FrameKind::kMetrics, body, used, out);
}

}  // namespace

FrameWriter::FrameWriter(int fd, const std::optional<ArmedFault>& fault,
                         bool stream)
    : fd_(fd),
      fault_(fault),
      stream_(stream),
      fire_at_(fault ? fault->after_frames : UINT64_MAX) {}

void FrameWriter::End(uint64_t count) {
  // A stream shorter than the plan's frame takes the fault on its kEnd,
  // so an armed fault always fires.
  if (fault_) fire_at_ = std::min(fire_at_, frames_);
  unsigned char body[kMaxVarintBytes];
  const size_t used = PutVarint(count, body);
  Write([&](std::vector<unsigned char>* wire) {
    AppendFrame(FrameKind::kEnd, body, used, wire);
  });
  if (cut_ != SIZE_MAX) Cut();
  Flush();
}

void FrameWriter::Fire(size_t start) {
  if (fault_->kind == FaultKind::kCorruptFrame) {
    // The kind byte follows the length varint's last byte; 0xee is no
    // FrameKind, so the receiver's strict decode rejects the stream.
    size_t i = start;
    while ((wire_[i] & 0x80) != 0) ++i;
    wire_[i + 1] = 0xee;
    return;
  }
  cut_ = start;
  if (stream_) Cut();
}

void FrameWriter::Flush() {
  // A failed send means the coordinator is gone: nobody to report to.
  if (SendTimed(fd_, wire_.data(), wire_.size(), -1) != IoStatus::kOk) {
    _exit(2);
  }
  wire_.clear();
}

void FrameWriter::Cut() {
  // The cut frame and everything after it stay unsent. A cut on kEnd
  // withholds kEnd itself, so the fault is never silent.
  SendTimed(fd_, wire_.data(), cut_, -1);  // best effort
  // A stall keeps the link open but silent: only the coordinator's
  // deadline clears it. Every other kind dies on the spot.
  while (fault_->kind == FaultKind::kStallLink) pause();
  raise(SIGKILL);
  _exit(137);  // unreachable unless SIGKILL races
}

class InputLink {
 public:
  explicit InputLink(int fd) : fd_(fd), scratch_(kBatchBytes) {}

  /// The next frame, receiving more bytes when the buffer holds none.
  FrameView Next() {
    FrameView frame;
    while (buffer_.Next(&frame) != DecodeStatus::kOk) {
      size_t n = 0;
      RecvTimed(fd_, scratch_.data(), scratch_.size(), /*timeout_ms=*/-1, &n);
      if (n == 0) throw std::runtime_error("coordinator hung up mid-input");
      buffer_.Append(scratch_.data(), n);
    }
    return frame;
  }

  bool NextPair(FrameView* frame) {
    *frame = Next();
    if (frame->kind == FrameKind::kPair) {
      ++pairs_;
      return true;
    }
    if (frame->kind != FrameKind::kEnd) {
      throw std::runtime_error("unexpected frame from coordinator");
    }
    std::vector<uint64_t> count;
    if (!DecodeVarints(*frame, 1, &count) || count[0] != pairs_ ||
        !buffer_.Drained()) {
      throw std::runtime_error("malformed end of input from coordinator");
    }
    return false;
  }

 private:
  int fd_;
  FrameBuffer buffer_;
  std::vector<unsigned char> scratch_;
  uint64_t pairs_ = 0;
};

bool NextPair(InputLink* link, FrameView* frame) {
  return link->NextPair(frame);
}

void RunReduceChild(
    int fd, const std::optional<ArmedFault>& fault,
    const std::function<void(InputLink*, InstanceSink*, InstanceSink*,
                             MapReduceMetrics*)>& reduce) {
  InputLink input(fd);
  const FrameView header = input.Next();
  if (header.kind != FrameKind::kHeader || header.body_bytes != 1) {
    throw std::runtime_error("expected a header frame from coordinator");
  }
  const unsigned char flags = header.body[0];
  MapReduceMetrics shard;
  FrameWriter writer(fd, fault, /*stream=*/false);
  FrameSink instances(FrameKind::kInstance, &writer);
  FrameSink records(FrameKind::kRecord, &writer);
  reduce(&input, (flags & 1u) != 0 ? &instances : nullptr,
         (flags & 2u) != 0 ? &records : nullptr, &shard);
  writer.Write([&](std::vector<unsigned char>* wire) {
    AppendMetricsFrame(shard, wire);
  });
  writer.End(0);
}

uint64_t CollectOutput(WorkerCrew* crew, size_t r, unsigned char flags,
                       std::vector<unsigned char>* replay, uint64_t* frames) {
  std::vector<uint64_t> fields;
  uint64_t bytes = 0;
  crew->Read(r, [&](const FrameView& frame) {
    const bool valid =
        (frame.kind == FrameKind::kInstance && (flags & 1u) != 0 &&
         DecodeVarints(frame, 0, &fields)) ||
        (frame.kind == FrameKind::kRecord && (flags & 2u) != 0 &&
         DecodeVarints(frame, 0, &fields)) ||
        (frame.kind == FrameKind::kMetrics &&
         DecodeVarints(frame, kMetricsFields, &fields));
    if (!valid) {
      throw Fault{WorkerErrorKind::kCorruptFrame,
                  "corrupt or unrequested output frame on " + crew->Who(r) +
                      "'s link"};
    }
    AppendFrame(frame.kind, frame.body, frame.body_bytes, replay);
    ++*frames;
  }, &bytes);
  return bytes;
}

void ReplayOutput(const std::vector<unsigned char>& replay, InstanceSink* sink,
                  InstanceSink* records, MapReduceMetrics* metrics) {
  FrameBuffer buffer;
  buffer.Append(replay.data(), replay.size());
  std::vector<uint64_t> fields;
  std::vector<NodeId> nodes;
  FrameView frame;
  while (buffer.Next(&frame) == DecodeStatus::kOk) {
    // Validated by CollectOutput, so a failure here is a coordinator bug.
    if (!DecodeVarints(frame, frame.kind == FrameKind::kMetrics
                                  ? kMetricsFields
                                  : 0,
                       &fields)) {
      throw std::runtime_error("process backend: malformed replay frame");
    }
    if (frame.kind == FrameKind::kMetrics) {
      MapReduceMetrics shard;
      shard.distinct_keys = fields[0];
      shard.max_reducer_input = fields[1];
      shard.outputs = fields[2];
      shard.reduce_cost.edges_scanned = fields[3];
      shard.reduce_cost.candidates = fields[4];
      shard.reduce_cost.index_probes = fields[5];
      shard.reduce_cost.outputs = fields[6];
      metrics->MergeReduceShard(shard);
      continue;
    }
    nodes.assign(fields.begin(), fields.end());
    (frame.kind == FrameKind::kInstance ? sink : records)->Emit(nodes);
  }
}

WorkerCrew::WorkerCrew(WorkerRole role, size_t count, int timeout_ms,
                       uint64_t pair_frame_bytes)
    : role_(role),
      workers_(count),
      timeout_ms_(timeout_ms),
      frame_limit_(std::max<uint64_t>(pair_frame_bytes, uint64_t{1} << 20)) {}

WorkerCrew::~WorkerCrew() {
  // Unwinding with live children (a throw anywhere in the round): kill and
  // reap every one so nothing outlives the round and nothing zombies.
  for (Worker& worker : workers_) {
    if (worker.fd >= 0) close(worker.fd);
    if (worker.pid > 0) {
      kill(worker.pid, SIGKILL);
      int status = 0;
      while (waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
}

std::string WorkerCrew::Who(size_t index) const {
  return std::string(WorkerRoleName(role_)) + " worker " +
         std::to_string(index);
}

void WorkerCrew::Run(const ExecutionPolicy& policy, ShuffleStats* stats,
                     const Tasks& tasks) {
  const unsigned max_attempts = std::max(1u, policy.retry.max_attempts);
  std::vector<unsigned> attempts(workers_.size(), 0);
  std::vector<std::optional<Fault>> faults(workers_.size());
  std::vector<size_t> pending(workers_.size());
  std::iota(pending.begin(), pending.end(), size_t{0});
  while (!pending.empty()) {
    // Forks, and the injector's ArmSpawn, run only here, while no other
    // coordinator thread is busy: a fork while a pool thread still starts
    // up can copy a held runtime lock into the child, which then hangs.
    if (policy.pool != nullptr) policy.pool->WaitUntilParked();
    std::vector<size_t> started;
    for (const size_t slot : pending) {
      Backoff(policy.retry, attempts[slot]);
      ++attempts[slot];
      try {
        tasks.start(slot);
        started.push_back(slot);
      } catch (const Fault& fault) {
        faults[slot] = fault;
      }
    }
    if (!started.empty()) {
      engine_internal::RunWorkers(policy, started.size(), [&](size_t i) {
        try {
          tasks.collect(started[i]);
        } catch (const Fault& fault) {
          faults[started[i]] = fault;
        }
      }, stats);
    }
    std::vector<size_t> failed;
    for (const size_t slot : pending) {
      if (!faults[slot]) continue;
      const Fault fault = *std::exchange(faults[slot], std::nullopt);
      KillAndReap(slot);  // no-op when the failing path already reaped
      stats->frames_discarded += tasks.discard(slot);
      if (fault.kind == WorkerErrorKind::kDeadline) ++stats->deadline_kills;
      if (attempts[slot] >= max_attempts) {
        throw WorkerError(fault.kind, WorkerRoleName(role_),
                          static_cast<unsigned>(slot), attempts[slot],
                          fault.detail);
      }
      ++stats->worker_retries;
      failed.push_back(slot);
    }
    pending = std::move(failed);
  }
}

std::optional<ArmedFault> WorkerCrew::Spawn(size_t index,
                                            FaultInjector* injector,
                                            const Body& body) {
  const std::optional<ArmedFault> armed =
      injector != nullptr
          ? injector->ArmSpawn(role_, static_cast<unsigned>(index))
          : std::nullopt;
  if (armed && armed->kind == FaultKind::kFailSpawn) {
    throw Fault{WorkerErrorKind::kSpawnFailure,
                "injected spawn failure for " + Who(index)};
  }
  // Spill failures fire in the coordinator; the child runs clean.
  const std::optional<ArmedFault> child_fault =
      armed && armed->kind != FaultKind::kFailSpillAppend ? armed
                                                          : std::nullopt;
  int sockets[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sockets) != 0) {
    throw Fault{WorkerErrorKind::kSpawnFailure,
                std::string("process backend: socketpair failed: ") +
                    std::strerror(errno)};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    const int error = errno;
    close(sockets[0]);
    close(sockets[1]);
    throw Fault{WorkerErrorKind::kSpawnFailure,
                std::string("process backend: fork failed: ") +
                    std::strerror(error)};
  }
  if (pid == 0) {
    // Child. Drop the parent ends of every link in this crew so a sibling
    // cannot hold a peer's socket open past its death, then run the worker
    // body. _exit (not exit): the child shares the parent's atexit state
    // and stdio buffers, none of which it may flush or tear down.
    close(sockets[0]);
    for (const Worker& other : workers_) {
      if (other.fd >= 0) close(other.fd);
    }
    try {
      body(sockets[1], child_fault);
    } catch (const std::exception& error) {
      ChildFailAndExit(sockets[1], error.what());
    } catch (...) {
      ChildFailAndExit(sockets[1], "unknown exception in worker");
    }
    _exit(0);
  }
  close(sockets[1]);
  workers_[index] = Worker{pid, sockets[0]};
  return armed;
}

void WorkerCrew::Send(size_t index, const unsigned char* data, size_t size) {
  const IoStatus io = SendTimed(workers_[index].fd, data, size, timeout_ms_);
  if (io == IoStatus::kOk) return;
  if (io == IoStatus::kPeerGone) {
    // A reducer that throws while its input still comes in dies with a
    // kError frame on the link: report that, not a bare crash.
    const std::optional<std::string> error =
        SentError(workers_[index].fd, timeout_ms_, frame_limit_);
    if (error) {
      KillAndReap(index);
      throw Fault{WorkerErrorKind::kChildError,
                  Who(index) + " failed: " + *error};
    }
  }
  const std::string how = KillAndReap(index);
  if (io == IoStatus::kTimeout) {
    throw Fault{WorkerErrorKind::kDeadline,
                Who(index) + " read no input for " +
                    std::to_string(timeout_ms_) + " ms; killed (" + how +
                    ")"};
  }
  throw Fault{WorkerErrorKind::kCrash, how + " while receiving its input"};
}

uint64_t WorkerCrew::Read(
    size_t index, const std::function<void(const FrameView&)>& on_frame,
    uint64_t* bytes) {
  FrameBuffer buffer(frame_limit_);
  std::vector<unsigned char> scratch(kBatchBytes);
  std::string how;
  while (true) {
    size_t n = 0;
    if (RecvTimed(workers_[index].fd, scratch.data(), scratch.size(),
                  timeout_ms_, &n) == IoStatus::kTimeout) {
      how = KillAndReap(index);
      throw Fault{WorkerErrorKind::kDeadline,
                  Who(index) + " made no progress for " +
                      std::to_string(timeout_ms_) + " ms; killed (" + how +
                      ")"};
    }
    if (n == 0) {
      Reap(index, &how);
      throw Fault{WorkerErrorKind::kCrash,
                  how + " before finishing its stream"};
    }
    *bytes += n;
    buffer.Append(scratch.data(), n);
    FrameView frame;
    while (true) {
      try {
        if (buffer.Next(&frame) != DecodeStatus::kOk) break;
      } catch (const std::runtime_error& error) {
        throw Fault{WorkerErrorKind::kCorruptFrame,
                    "corrupt frame on " + Who(index) + "'s link: " +
                        error.what()};
      }
      if (frame.kind == FrameKind::kError) {
        Reap(index, &how);
        throw Fault{WorkerErrorKind::kChildError,
                    Who(index) + " failed: " +
                        std::string(reinterpret_cast<const char*>(frame.body),
                                    frame.body_bytes)};
      }
      if (frame.kind != FrameKind::kEnd) {
        on_frame(frame);
        continue;
      }
      std::vector<uint64_t> count;
      if (!DecodeVarints(frame, 1, &count) || !buffer.Drained()) {
        throw Fault{WorkerErrorKind::kCorruptFrame,
                    "corrupt end of stream on " + Who(index) + "'s link"};
      }
      if (!Reap(index, &how)) {
        throw Fault{WorkerErrorKind::kCrash,
                    how + " after finishing its stream"};
      }
      return count[0];
    }
  }
}

bool WorkerCrew::Reap(size_t index, std::string* how) {
  Worker& worker = workers_[index];
  if (worker.fd >= 0) {
    close(worker.fd);
    worker.fd = -1;
  }
  how->clear();
  if (worker.pid <= 0) return true;  // already reaped — nothing to report
  int status = 0;
  while (waitpid(worker.pid, &status, 0) < 0) {
    if (errno != EINTR) {
      worker.pid = -1;
      throw std::runtime_error(
          std::string("process backend: waitpid failed: ") +
          std::strerror(errno));
    }
  }
  *how = Describe(Who(index), worker.pid, status);
  worker.pid = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string WorkerCrew::KillAndReap(size_t index) {
  // SIGKILL is not maskable, so the reap never blocks on a live child; a
  // zombie still accepts the no-op kill.
  if (workers_[index].pid > 0) kill(workers_[index].pid, SIGKILL);
  std::string how;
  Reap(index, &how);
  return how;
}

}  // namespace process_internal
}  // namespace smr
