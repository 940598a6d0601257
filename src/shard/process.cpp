#include "hbn/shard/process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "hbn/serve/error.h"
#include "hbn/shard/worker.h"

namespace hbn::shard {
namespace {

constexpr const char* kWorkerFlag = "--shard-worker-fd=";

class LoopbackCluster final : public ShardCluster {
 public:
  explicit LoopbackCluster(int workers) {
    links_.reserve(static_cast<std::size_t>(workers));
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      auto [coordEnd, workerEnd] = makeLoopbackPair();
      links_.push_back(
          std::make_unique<FramedTransport>(std::move(coordEnd)));
      threads_.emplace_back(
          [end = std::make_shared<FramedTransport>(std::move(workerEnd))] {
            try {
              runWorker(*end);
            } catch (...) {
              // Failures already crossed the wire as Error frames (or
              // the link is dead and the coordinator sees Peer); the
              // thread just winds down.
            }
          });
    }
  }

  ~LoopbackCluster() override {
    kill();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  std::vector<FramedTransport*> links() override {
    std::vector<FramedTransport*> out;
    out.reserve(links_.size());
    for (const auto& link : links_) out.push_back(link.get());
    return out;
  }

  void join() override {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  void kill() noexcept override {
    // Closing the coordinator ends wakes every worker thread out of
    // recv with end-of-stream; join() then collects them.
    for (const auto& link : links_) link->close();
  }

 private:
  std::vector<std::unique_ptr<FramedTransport>> links_;
  std::vector<std::thread> threads_;
};

/// N fork()+exec()ed worker processes; the parent reaps them.
class ExecCluster final : public ShardCluster {
 public:
  explicit ExecCluster(int workers) {
    const std::string exe = currentExecutablePath();
    if (exe.empty()) {
      throw std::runtime_error(
          "shard: cannot resolve /proc/self/exe for worker spawn");
    }
    try {
      for (int w = 0; w < workers; ++w) spawn(exe);
    } catch (...) {
      kill();  // the destructor does not run for a throwing constructor
      throw;
    }
  }

  ~ExecCluster() override { ExecCluster::kill(); }

  std::vector<FramedTransport*> links() override {
    std::vector<FramedTransport*> out;
    out.reserve(links_.size());
    for (const auto& link : links_) out.push_back(link.get());
    return out;
  }

  void join() override {
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] < 0) continue;
      int status = 0;
      const pid_t pid = pids_[i];
      pids_[i] = -1;
      if (::waitpid(pid, &status, 0) < 0) continue;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) continue;
      kill();  // a bad worker fails the run; do not leave siblings
      if (WIFSIGNALED(status)) {
        throw serve::Error(serve::Stage::Peer, 0,
                           "worker " + std::to_string(i) +
                               " killed by signal " +
                               std::to_string(WTERMSIG(status)));
      }
      throw serve::Error(serve::Stage::Peer, 0,
                         "worker " + std::to_string(i) +
                             " exited with status " +
                             std::to_string(WEXITSTATUS(status)));
    }
  }

  void kill() noexcept override {
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] < 0) continue;
      ::kill(pids_[i], SIGKILL);
      int status = 0;
      ::waitpid(pids_[i], &status, 0);
      pids_[i] = -1;
    }
    for (const auto& link : links_) link->close();
  }

 private:
  void spawn(const std::string& exe) {
    auto [parentFd, childFd] = makeSocketPair();
    // The child fd must survive exec; the parent end must not leak into
    // siblings.
    ::fcntl(parentFd, F_SETFD, FD_CLOEXEC);
    // Built before fork: until it execs, the child of a multi-threaded
    // parent may only make async-signal-safe calls, so it must not
    // allocate.
    const std::string flag = kWorkerFlag + std::to_string(childFd);
    char* const args[] = {const_cast<char*>(exe.c_str()),
                          const_cast<char*>(flag.c_str()), nullptr};
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(parentFd);
      ::close(childFd);
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::execv(exe.c_str(), args);
      ::_exit(127);  // exec failed
    }
    ::close(childFd);
    pids_.push_back(pid);
    links_.push_back(
        std::make_unique<FramedTransport>(makeSocketChannel(parentFd)));
  }

  std::vector<std::unique_ptr<FramedTransport>> links_;
  std::vector<pid_t> pids_;
};

}  // namespace

std::unique_ptr<ShardCluster> makeLoopbackCluster(int workers) {
  return std::make_unique<LoopbackCluster>(workers);
}

std::unique_ptr<ShardCluster> makeExecCluster(int workers) {
  return std::make_unique<ExecCluster>(workers);
}

int maybeRunWorkerMain(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind(kWorkerFlag, 0) == 0) {
      const int fd = std::atoi(arg.substr(std::strlen(kWorkerFlag)).data());
      return runWorkerProcess(fd);
    }
  }
  return -1;
}

std::string currentExecutablePath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace hbn::shard
