#include "common/run_info.h"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/env.h"
#include "common/thread_pool.h"
#include "tensor/simd.h"

#ifndef FEDCL_SOURCE_DIR
#define FEDCL_SOURCE_DIR ""
#endif
#ifndef FEDCL_BUILD_TYPE
#define FEDCL_BUILD_TYPE "unknown"
#endif

namespace fedcl::runinfo {

namespace {

std::mutex g_mutex;
std::vector<std::string> g_argv;

// Runs `command` (stderr discarded) and returns its first output line,
// or "" on any failure — git being absent or the source dir not being
// a work tree must never break a run.
std::string command_line_output(const std::string& command) {
  std::FILE* pipe = ::popen((command + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return "";
  std::array<char, 256> buf{};
  std::string out;
  if (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    out = buf.data();
  }
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

std::string detect_compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string detect_hostname() {
  std::array<char, 256> buf{};
  if (::gethostname(buf.data(), buf.size() - 1) != 0) return "unknown";
  return buf.data()[0] != '\0' ? std::string(buf.data()) : "unknown";
}

struct GitState {
  std::string sha = "unknown";
  bool dirty = false;
};

GitState detect_git() {
  GitState state;
  if (const char* sha = std::getenv("FEDCL_GIT_SHA")) {
    state.sha = sha;
    if (const char* dirty = std::getenv("FEDCL_GIT_DIRTY")) {
      state.dirty = std::string(dirty) == "1" || std::string(dirty) == "true";
    }
    return state;
  }
  const std::string dir = FEDCL_SOURCE_DIR;
  if (dir.empty()) return state;
  const std::string git = "git -C \"" + dir + "\" ";
  const std::string sha = command_line_output(git + "rev-parse HEAD");
  if (sha.empty()) return state;
  state.sha = sha;
  state.dirty =
      !command_line_output(git + "status --porcelain --untracked-files=no")
           .empty();
  return state;
}

}  // namespace

void set_command_line(int argc, char** argv) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_argv.assign(argv, argv + argc);
}

RunInfo current() {
  // Process-constant fields, resolved once (the git subprocess is the
  // expensive part).
  static const GitState kGit = detect_git();
  static const std::string kCompiler = detect_compiler();
  static const std::string kHostname = detect_hostname();

  RunInfo info;
  info.git_sha = kGit.sha;
  info.git_dirty = kGit.dirty;
  info.build_type = FEDCL_BUILD_TYPE;
  info.compiler = kCompiler;
  info.hostname = kHostname;
  info.isa = fedcl_host_isa();
  info.hardware_threads =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  info.compute_threads = static_cast<std::int64_t>(compute_pool().size());
  info.seed = experiment_seed();
  info.scale = bench_scale_name(bench_scale());
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    info.argv = g_argv;
  }
  return info;
}

json::Value to_json(const RunInfo& info) {
  json::Value v = json::Value::object();
  json::Value git = json::Value::object();
  git["sha"] = info.git_sha;
  git["dirty"] = info.git_dirty;
  v["git"] = std::move(git);
  json::Value build = json::Value::object();
  build["type"] = info.build_type;
  build["compiler"] = info.compiler;
  v["build"] = std::move(build);
  json::Value host = json::Value::object();
  host["name"] = info.hostname;
  host["isa"] = info.isa;
  host["hardware_threads"] = info.hardware_threads;
  host["compute_threads"] = info.compute_threads;
  v["host"] = std::move(host);
  v["seed"] = static_cast<std::int64_t>(info.seed);
  v["scale"] = info.scale;
  json::Value argv = json::Value::array();
  for (const std::string& a : info.argv) argv.push_back(a);
  v["argv"] = std::move(argv);
  return v;
}

}  // namespace fedcl::runinfo
