#ifndef SMR_MAPREDUCE_PROCESS_LINK_H_
#define SMR_MAPREDUCE_PROCESS_LINK_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mapreduce/codec.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/fault_injection.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/metrics.h"
#include "mapreduce/worker_error.h"

namespace smr {

/// The process backend's link layer: the Value-independent half of
/// ProcessShuffleBackend (mapreduce/process_backend.h), defined in
/// process_backend.cc, the only file that calls fork/socketpair/poll. The
/// coordinator side is a WorkerCrew per role; the child side is one
/// FrameWriter per link and, for a reduce worker, its InputLink.
namespace process_internal {

/// One worker attempt's failure, thrown by a crew's start/collect hooks;
/// WorkerCrew::Run restarts the slot or escalates to a WorkerError.
struct Fault {
  WorkerErrorKind kind = WorkerErrorKind::kCrash;
  std::string detail;
};

/// Links carry pair frames in writes, and are read, in ~256 KiB batches.
inline constexpr size_t kBatchBytes = 256 * 1024;

/// The round's forked workers of one role, in fixed slots a failed worker
/// is respawned into, and the one retry loop both roles run. Link waits
/// honor the progress deadline `timeout_ms` (< 0 blocks); frames decode
/// strictly under the larger of `pair_frame_bytes` and 1 MiB (output and
/// error frames), so a corrupted length prefix is rejected. The destructor
/// kills and reaps every live worker: a throw anywhere leaks no children.
class WorkerCrew {
 public:
  /// One slot's hooks for Run: `start` forks the worker, `collect` sends
  /// it any input and reads its output (both throw Fault), `discard` drops
  /// a failed attempt's parent-side state and returns its frame count.
  struct Tasks {
    std::function<void(size_t)> start;
    std::function<void(size_t)> collect;
    std::function<uint64_t(size_t)> discard;
  };
  using Body = std::function<void(int fd, const std::optional<ArmedFault>&)>;

  WorkerCrew(WorkerRole role, size_t count, int timeout_ms,
             uint64_t pair_frame_bytes);
  ~WorkerCrew();
  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  /// Runs in passes: this thread starts every pending slot, then all of
  /// them collect at once on the policy's pool, each touching only its own
  /// slot. After the join, failed slots are killed, discarded, counted and
  /// backed off in slot order, then restarted in the next pass; the lowest
  /// one to exhaust retry.max_attempts throws WorkerError. Retries,
  /// discarded frames, deadline kills and pool use add up in *stats.
  void Run(const ExecutionPolicy& policy, ShuffleStats* stats,
           const Tasks& tasks);

  /// Arms the attempt with `injector` (may be null) and forks slot
  /// `index`; the child runs body(fd, armed child-side fault), turning an
  /// exception into a kError frame and exit(1). Throws
  /// Fault{kSpawnFailure}; returns the armed fault.
  std::optional<ArmedFault> Spawn(size_t index, FaultInjector* injector,
                                  const Body& body);

  /// Sends [data, data + size) to the worker; throws Fault when it died
  /// or stopped reading for the deadline. A worker that died with a kError
  /// frame on its link (a reducer that threw while its input still came
  /// in) throws kChildError with its message, as Read would.
  void Send(size_t index, const unsigned char* data, size_t size);

  /// Hands every frame before the worker's kEnd to `on_frame`, reaps it,
  /// adds the link's bytes to *bytes, and returns kEnd's count. Throws
  /// Fault on a crash, child error, deadline, corrupt bytes, bad exit.
  uint64_t Read(size_t index,
                const std::function<void(const FrameView&)>& on_frame,
                uint64_t* bytes);

  /// "map worker 3" — how messages name slot `index`.
  std::string Who(size_t index) const;

 private:
  struct Worker { pid_t pid = -1; int fd = -1; };
  bool Reap(size_t index, std::string* how);
  std::string KillAndReap(size_t index);

  WorkerRole role_;
  std::vector<Worker> workers_;
  int timeout_ms_;
  uint64_t frame_limit_;
};

/// Reduce worker r's collect: validates each output frame against the
/// requested `flags` (1 = instances, 2 = records) and buffers it into
/// *replay, counting *frames. Returns the link's bytes; throws Fault.
uint64_t CollectOutput(WorkerCrew* crew, size_t r, unsigned char flags,
                       std::vector<unsigned char>* replay, uint64_t* frames);

/// Replays one worker's collected output: instances into `sink`, records
/// into `records`, its metrics frame into *metrics.
void ReplayOutput(const std::vector<unsigned char>& replay, InstanceSink* sink,
                  InstanceSink* records, MapReduceMetrics* metrics);

/// Child side of a link; a child's link IO blocks (its liveness is the
/// coordinator's problem). Frames are counted as they are written, and an
/// armed kill, stall or corrupt fault fires on frame `after_frames`, or on
/// kEnd when the stream is shorter: a kill or stall delivers exactly the
/// frames before it and dies or hangs; a corrupt breaks that frame's kind
/// byte and goes on. A streaming writer (a map worker) sends each
/// kBatchBytes batch as it fills. Otherwise (a reduce worker's output,
/// which must not go out while its input still comes in) every frame, and
/// a cut, waits for End.
class FrameWriter {
 public:
  FrameWriter(int fd, const std::optional<ArmedFault>& fault, bool stream);

  /// Appends one frame through append(std::vector<unsigned char>* wire).
  template <typename Append>
  void Write(const Append& append) {
    const size_t start = wire_.size();
    append(&wire_);
    if (frames_++ == fire_at_) Fire(start);
    if (stream_ && wire_.size() >= kBatchBytes) Flush();
  }

  /// Writes kEnd carrying `count` and sends everything left.
  void End(uint64_t count);

 private:
  void Fire(size_t start);
  void Flush();
  [[noreturn]] void Cut();

  int fd_;
  std::optional<ArmedFault> fault_;
  bool stream_;
  uint64_t fire_at_;
  uint64_t frames_ = 0;
  size_t cut_ = SIZE_MAX;  // a cut waiting for End
  std::vector<unsigned char> wire_;
};

/// A reduce worker's input from the coordinator (process_backend.cc).
class InputLink;

/// Decodes the link's next kPair frame into *frame, receiving more bytes
/// when it needs them; false at the input's kEnd. Throws on any other
/// frame, on bytes after kEnd, on a kEnd whose count is not the pairs
/// received, and when the coordinator hangs up mid-input.
bool NextPair(InputLink* link, FrameView* frame);

/// A reduce worker's whole life after the fork: reads the coordinator's
/// header frame, then runs `reduce`, which pulls its input with NextPair
/// up to kEnd, into frame-encoding sinks for the instances and records the
/// header's flags asked for. The output — instance/record frames in
/// emission order, a metrics frame, kEnd — goes out through a
/// non-streaming FrameWriter once the input has ended.
void RunReduceChild(
    int fd, const std::optional<ArmedFault>& fault,
    const std::function<void(InputLink*, InstanceSink*, InstanceSink*,
                             MapReduceMetrics*)>& reduce);

}  // namespace process_internal

}  // namespace smr

#endif  // SMR_MAPREDUCE_PROCESS_LINK_H_
