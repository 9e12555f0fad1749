// Crash-recovery soak: proves the checkpoint/restore path end-to-end by
// repeatedly SIGKILLing a real rloopd mid-stream and restarting it against
// the same deterministic scenario source.
//
//   1. A reference rloopd consumes the whole scenario uninterrupted and
//      writes its alert lines to ref.txt.
//   2. Three incarnations run with --checkpoint-dir and are SIGKILLed at
//      failpoint-chosen epoch boundaries (RLOOP_FAILPOINTS_SPEC=
//      "daemon.epoch=kill@nth:K"; when failpoints are compiled out the
//      parent kills by hand once a checkpoint lands). Each restart must
//      report "restored checkpoint" on stderr.
//   3. The newest checkpoint is then corrupted with a byte flip; the final
//      incarnation must detect it by checksum ("skipping checkpoint"),
//      fall back to the older snapshot or a cold start, and finish with
//      exit 0 — never crash.
//   4. alerts.txt across all incarnations must byte-equal ref.txt (block
//      back-pressure drops nothing, so exactly-once alerting is exact),
//      and the alert set must score 100% recall against the scenario's
//      tap-crossing ground truth.
//
// Invoked with argv[1] = path to the rloopd binary; registered in ctest
// with the "slow" label.
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "net/prefix.h"
#include "net/time.h"
#include "scenarios/scenario.h"

namespace {

namespace fs = std::filesystem;

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "crash_recovery_soak: FAIL: %s\n", msg.c_str());
  std::exit(1);
}

#define CHECK(cond, msg)                                             \
  do {                                                               \
    if (!(cond)) fail(std::string(msg) + " [" #cond "]");            \
  } while (0)

constexpr char kScenario[] = "link_flap_storm";

struct RunResult {
  int status = 0;          // raw waitpid status
  std::string stderr_out;  // captured child stderr
  bool exited(int code) const {
    return WIFEXITED(status) && WEXITSTATUS(status) == code;
  }
  bool killed() const {
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  }
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Fork/exec one rloopd incarnation. `failpoint_spec` lands in
// RLOOP_FAILPOINTS_SPEC ("" clears it); when `manual_kill_dir` is non-empty
// the parent SIGKILLs the child once a checkpoint file appears there (the
// failpoints-compiled-out fallback).
RunResult run_rloopd(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& failpoint_spec,
                     const fs::path& stderr_path,
                     const fs::path& manual_kill_dir = {}) {
  const pid_t pid = ::fork();
  CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    const int fd = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd >= 0) {
      ::dup2(fd, 2);
      ::close(fd);
    }
    if (failpoint_spec.empty()) {
      ::unsetenv("RLOOP_FAILPOINTS_SPEC");
    } else {
      ::setenv("RLOOP_FAILPOINTS_SPEC", failpoint_spec.c_str(), 1);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::perror("execv rloopd");
    std::_Exit(127);
  }
  if (!manual_kill_dir.empty()) {
    // Wait until THIS incarnation has started (its restore-or-cold-start
    // line is on stderr), then for its first checkpoint or a little more
    // progress, then kill. Startup simulates the scenario and can take
    // longer than the progress fallback, and retention keeps the file count
    // flat once two snapshots exist, so without the startup wait the kill
    // could land before the child restored anything. Bounded so a wedged
    // child cannot hang the soak.
    const std::size_t before =
        std::distance(fs::directory_iterator(manual_kill_dir), {});
    bool started = false;
    int since_start = 0;
    for (int i = 0; i < 3000; ++i) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        return {status, slurp(stderr_path)};  // finished before the kill
      }
      if (!started) {
        const std::string err = slurp(stderr_path);
        started = err.find("restored checkpoint") != std::string::npos ||
                  err.find("cold start") != std::string::npos;
      } else if (std::distance(fs::directory_iterator(manual_kill_dir), {}) >
                     before ||
                 (before > 0 && ++since_start > 50)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        ::kill(pid, SIGKILL);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  RunResult r;
  CHECK(::waitpid(pid, &r.status, 0) == pid, "waitpid failed");
  r.stderr_out = slurp(stderr_path);
  return r;
}

// Inverts examples/rloopd.cpp's alert line:
//   [   12.345s] LOOP suspected on 10.1.2.0/24        ttl_delta=4
//   replicas=5 (stream began 8.0 ms earlier)
// Millisecond precision is plenty under the truth matcher's 2 s slack.
rloop::core::LoopAlert parse_alert_line(const std::string& line) {
  double raised_s = 0, began_ms = 0;
  char prefix[32] = {0};
  int ttl_delta = 0;
  unsigned long long replicas = 0;
  const int got = std::sscanf(
      line.c_str(),
      " [ %lf s] LOOP suspected on %31s ttl_delta=%d replicas=%llu "
      "(stream began %lf ms earlier)",
      &raised_s, prefix, &ttl_delta, &replicas, &began_ms);
  CHECK(got == 5, "unparseable alert line: " + line);
  unsigned a = 0, b = 0, c = 0, d = 0, bits = 0;
  CHECK(std::sscanf(prefix, "%u.%u.%u.%u/%u", &a, &b, &c, &d, &bits) == 5 &&
            bits == 24,
        "unparseable prefix in: " + line);
  rloop::core::LoopAlert alert;
  alert.prefix24 = rloop::net::Prefix::slash24(rloop::net::Ipv4Addr(
      static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
      static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d)));
  alert.raised_at = static_cast<rloop::net::TimeNs>(raised_s * 1e9 + 0.5);
  alert.first_seen =
      alert.raised_at - static_cast<rloop::net::TimeNs>(began_ms * 1e6 + 0.5);
  alert.ttl_delta = ttl_delta;
  alert.replicas = replicas;
  return alert;
}

fs::path newest_checkpoint(const fs::path& dir) {
  fs::path best;
  std::uint64_t best_seq = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    // Exact-name match only: a SIGKILLed incarnation can leave a
    // "ckpt-N.rlck.tmp.<pid>" behind, which restore never reads.
    if (std::sscanf(name.c_str(), "ckpt-%llu.rlck", &seq) == 1 &&
        name == "ckpt-" + std::to_string(seq) + ".rlck" && seq >= best_seq) {
      best_seq = seq;
      best = entry.path();
    }
  }
  CHECK(!best.empty(), "no checkpoint files in " + dir.string());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: crash_recovery_soak <rloopd-binary>\n");
    return 2;
  }
  const std::string rloopd = argv[1];
  CHECK(fs::exists(rloopd), "rloopd binary not found: " + rloopd);

  char tmpl[] = "/tmp/rloop_soak.XXXXXX";
  CHECK(::mkdtemp(tmpl) != nullptr, "mkdtemp failed");
  const fs::path work(tmpl);
  const fs::path ckpt_dir = work / "ckpt";
  fs::create_directories(ckpt_dir);

  // The daemon must detect under the same streaming settings the scenario
  // gates pin (scenarios::scenario_streaming_config), or the 1-minute
  // daemon-default hold-down would merge back-to-back loops on one prefix
  // and sink recall below 100%.
  const rloop::scenarios::ScenarioSpec spec =
      rloop::scenarios::canned_scenario(kScenario);
  const fs::path cfg_path = work / "soak.conf";
  {
    std::ofstream cfg(cfg_path);
    cfg << "min_replicas=" << spec.truth.min_crossings << "\n"
        << "alert_holddown_s=1\n"
        << "reorder_tolerance_ms=0\n"
        << "max_open_entries=0\n"
        << "checkpoint_interval_s=0\n";  // snapshot every epoch
  }

#if defined(RLOOP_FAILPOINTS)
  const bool have_failpoints = true;
#else
  const bool have_failpoints = false;
  std::fprintf(stderr,
               "crash_recovery_soak: failpoints compiled out; killing by "
               "parent timing instead of daemon.epoch=kill\n");
#endif

  const std::vector<std::string> common = {
      "--scenario",   kScenario, "--seed",   "0",
      "--policy",     "block",   "--config", cfg_path.string(),
      "--quiet"};

  // --- 1. uninterrupted reference run ---------------------------------------
  std::vector<std::string> ref_args = common;
  ref_args.insert(ref_args.end(),
                  {"--speed", "max", "--alerts-out", (work / "ref.txt").string()});
  const RunResult ref =
      run_rloopd(rloopd, ref_args, "", work / "ref.stderr");
  CHECK(ref.exited(0), "reference run failed: " + ref.stderr_out);
  const std::string ref_alerts = slurp(work / "ref.txt");
  CHECK(!ref_alerts.empty(), "reference run produced no alerts");

  // --- 2. three SIGKILLed incarnations --------------------------------------
  // maybe_checkpoint() runs before the daemon.epoch failpoint each epoch, so
  // kill@nth:K always leaves K fresh snapshots — every restart has newer
  // state than the last, and the loop makes forward progress.
  std::vector<std::string> crash_args = common;
  crash_args.insert(crash_args.end(),
                    {"--speed", have_failpoints ? "max" : "20",
                     "--alerts-out", (work / "alerts.txt").string(),
                     "--checkpoint-dir", ckpt_dir.string()});
  int kills = 0;
  const int nth[] = {2, 3, 4};
  for (int i = 0; i < 3; ++i) {
    const std::string spec_env =
        have_failpoints
            ? "daemon.epoch=kill@nth:" + std::to_string(nth[i])
            : "";
    const RunResult r = run_rloopd(
        rloopd, crash_args, spec_env,
        work / ("crash" + std::to_string(i) + ".stderr"),
        have_failpoints ? fs::path{} : ckpt_dir);
    if (r.killed()) {
      ++kills;
    } else {
      CHECK(r.exited(0), "crash incarnation neither killed nor clean: " +
                             r.stderr_out);
    }
    if (i > 0) {
      CHECK(r.stderr_out.find("restored checkpoint") != std::string::npos,
            "incarnation " + std::to_string(i) +
                " did not restore: " + r.stderr_out);
    }
  }
  CHECK(kills >= 3, "expected 3 SIGKILLed incarnations, got " +
                        std::to_string(kills));

  // --- 3. corrupt the newest checkpoint, then finish clean ------------------
  const fs::path victim = newest_checkpoint(ckpt_dir);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    const auto size = fs::file_size(victim);
    const std::streamoff off = size > 30 ? 30 : static_cast<std::streamoff>(
                                                    size - 1);
    f.seekg(off);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(off);
    f.write(&byte, 1);
  }
  std::vector<std::string> final_args = common;
  final_args.insert(final_args.end(),
                    {"--speed", "max",
                     "--alerts-out", (work / "alerts.txt").string(),
                     "--checkpoint-dir", ckpt_dir.string()});
  const RunResult fin =
      run_rloopd(rloopd, final_args, "", work / "final.stderr");
  CHECK(fin.exited(0), "final incarnation failed: " + fin.stderr_out);
  CHECK(fin.stderr_out.find("skipping checkpoint") != std::string::npos,
        "corrupt checkpoint was not detected/skipped: " + fin.stderr_out);

  // --- 4. exactly-once alerts + ground-truth recall -------------------------
  const std::string soak_alerts = slurp(work / "alerts.txt");
  if (soak_alerts != ref_alerts) {
    std::fprintf(stderr, "--- reference alerts ---\n%s", ref_alerts.c_str());
    std::fprintf(stderr, "--- crash-run alerts ---\n%s", soak_alerts.c_str());
    fail("crash+restart alert set differs from the uninterrupted run");
  }

  std::vector<rloop::core::LoopAlert> alerts;
  {
    std::istringstream in(soak_alerts);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) alerts.push_back(parse_alert_line(line));
    }
  }
  const auto run = rloop::scenarios::run_scenario(spec);
  const rloop::scenarios::ScenarioScore score =
      rloop::scenarios::score_streaming(*run, run->crossings, alerts);
  CHECK(score.detectable > 0, "scenario produced no detectable truth loops");
  CHECK(score.recall() == 1.0,
        "recall " + std::to_string(score.recall()) + " (" +
            std::to_string(score.detected) + "/" +
            std::to_string(score.detectable) + " detectable loops)");
  CHECK(score.precision() >= spec.truth.precision_floor_streaming,
        "precision " + std::to_string(score.precision()) + " below floor");

  std::printf(
      "crash_recovery_soak: PASS (%d kills, %zu alerts, recall %llu/%llu, "
      "corrupt checkpoint skipped)\n",
      kills, alerts.size(),
      static_cast<unsigned long long>(score.detected),
      static_cast<unsigned long long>(score.detectable));
  fs::remove_all(work);
  return 0;
}
