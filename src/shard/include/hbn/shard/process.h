// Worker lifecycle plumbing for the sharded serving engine.
//
// A ShardCluster owns N worker endpoints and the transports to them;
// the ShardCoordinator borrows the links. Two flavours:
//
//   loopback   workers are threads of this process over in-memory
//              channels (makeLoopbackCluster) — deterministic, no
//              syscalls; what the digest-identity tests run.
//   exec       workers are fork()+exec()ed fresh processes of this
//              very binary with the hidden --shard-worker-fd=K flag
//              (makeExecCluster) — the production shape hbn_serve
//              --transport=socket uses. The child execs straight after
//              fork, so it never runs code that is unsafe in a forked
//              copy of a multi-threaded parent. Worker processes exit
//              with the serve::Error stage code (10-17) on failure, so
//              supervisors see the same taxonomy as the coordinator.
//
// Fault handling: join() reaps children and converts a nonzero worker
// exit into serve::Error{Peer}; kill() (also run by the destructor for
// still-live children) SIGKILLs and reaps, so a coordinator failure
// never leaks orphan processes.
#pragma once

#include <memory>
#include <vector>

#include "hbn/shard/transport.h"

namespace hbn::shard {

class ShardCluster {
 public:
  virtual ~ShardCluster() = default;

  /// Connected transports, one per worker; the cluster keeps ownership.
  [[nodiscard]] virtual std::vector<FramedTransport*> links() = 0;

  /// Waits for every worker to finish cleanly; throws
  /// serve::Error{Peer} when a worker process exited nonzero or died
  /// on a signal. Call after the coordinator's serve() returns.
  virtual void join() = 0;

  /// Force-terminates every still-running worker. Idempotent; never
  /// throws. The destructor runs this, so dropping the cluster on a
  /// fault path reaps all children.
  virtual void kill() noexcept = 0;
};

/// N worker threads over loopback channels.
[[nodiscard]] std::unique_ptr<ShardCluster> makeLoopbackCluster(int workers);

/// N fork()+exec()ed processes of the current binary with
/// --shard-worker-fd; requires the calling binary's main to call
/// maybeRunWorkerMain first. Throws std::runtime_error when the
/// executable path cannot be resolved.
[[nodiscard]] std::unique_ptr<ShardCluster> makeExecCluster(int workers);

/// The hidden worker-mode hook: when argv carries --shard-worker-fd=K,
/// runs the worker protocol over fd K and returns its exit code;
/// returns -1 otherwise (the caller proceeds with its normal main). A
/// K that is not a whole non-negative int prints an error and returns
/// 2.
/// Every binary that can act as an exec-cluster worker calls this
/// first thing in main.
[[nodiscard]] int maybeRunWorkerMain(int argc, char** argv);

/// Absolute path of the running executable (/proc/self/exe); empty
/// when unresolvable.
[[nodiscard]] std::string currentExecutablePath();

}  // namespace hbn::shard
