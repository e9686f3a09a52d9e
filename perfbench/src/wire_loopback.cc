// wire_loopback: one gprq_server process (in-memory, --evaluator mc, fixed
// thread count) serving the inmem_mc points to this process over GPRQ/1 on
// loopback, with the inmem_mc query generator, in the same closed loop as
// inmem_mc: one connection, the next query sent when the last answer is in.
// The gap to inmem_mc is the serving stack: framing, the socket, the event
// loop and the submitter queue.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "core/engine.h"
#include "index/str_bulk_load.h"
#include "mc/monte_carlo.h"
#include "net/client.h"
#include "net/protocol.h"
#include "oracle.h"
#include "workload/csv.h"
#include "workload/tiger_synthetic.h"
#include "workloads.h"

namespace perfbench {

namespace core = gprq::core;
namespace net = gprq::net;

namespace {

constexpr int kServerThreads = 2;
constexpr size_t kWindows = 10;
constexpr uint64_t kWarmupQueries = 64;
// Frames encoded and decoded by the codec probe of a traced run.
constexpr uint64_t kCodecQueries = 2000;

// The server child: started with its stdout on a pipe, killed with the
// benchmark if the benchmark dies first, stopped with SIGTERM.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Start(const std::vector<std::string>& argv) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = ::fdopen(fds[0], "r");
    return out_ != nullptr;
  }

  // Reads the readiness line; returns the port, or 0 if the server exited.
  uint16_t WaitReady() {
    char line[256];
    while (std::fgets(line, sizeof(line), out_) != nullptr) {
      const char* at = std::strstr(line, "GPRQ_SERVER READY port=");
      if (at != nullptr) {
        return static_cast<uint16_t>(std::atoi(at + std::strlen("GPRQ_SERVER READY port=")));
      }
    }
    return 0;
  }

  pid_t pid() const { return pid_; }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_ != nullptr) {
      std::fclose(out_);
      out_ = nullptr;
    }
  }

 private:
  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
};

// A counter, or one field of a histogram ("count", "sum", "p50", ...), read
// out of a STATS JSON export; 0 when absent.
double StatsJsonValue(const std::string& json, const std::string& name,
                      const char* field = nullptr) {
  const std::string key = "\"" + name + "\": ";
  size_t at = json.find(key);
  if (at == std::string::npos) return 0.0;
  at += key.size();
  if (field != nullptr) {
    const std::string sub = "\"" + std::string(field) + "\": ";
    const size_t close = json.find('}', at);
    at = json.find(sub, at);
    if (at == std::string::npos || at > close) return 0.0;
    at += sub.size();
  }
  return std::strtod(json.c_str() + at, nullptr);
}

double StatsDelta(const std::string& before, const std::string& after,
                  const char* name, const char* field = nullptr) {
  return StatsJsonValue(after, name, field) -
         StatsJsonValue(before, name, field);
}

}  // namespace

int RunWireLoopback(const Args& args, Report* report, RunResult* out) {
  const gprq::workload::Dataset dataset =
      gprq::workload::GenerateTigerSynthetic();
  const std::string csv = args.work_dir + "/points.csv";
  if (!gprq::workload::SaveCsv(dataset, csv).ok()) return 1;
  ServerProcess server;
  if (!server.Start({args.server_bin, "--data", csv, "--port", "0",
                     "--evaluator", "mc", "--samples",
                     std::to_string(kPaperSamples), "--threads",
                     std::to_string(kServerThreads)})) {
    std::fprintf(stderr, "cannot start %s\n", args.server_bin.c_str());
    return 1;
  }
  const uint16_t port = server.WaitReady();
  if (port == 0) {
    std::fprintf(stderr, "gprq_server did not become ready\n");
    return 1;
  }
  auto connected = net::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::Client> client = std::move(*connected);
  const QueryStream stream = PaperStream(&dataset.points, args.seed);
  const core::PrqOptions options;
  // Warm-up pays the server's lazy U-catalog build.
  for (uint64_t k = 0; k < kWarmupQueries; ++k) {
    auto r = client->Query(stream.Make(kWarmupBase + k), options);
    if (!r.ok() || !r->result.complete()) {
      std::fprintf(stderr, "warm-up query failed\n");
      return 1;
    }
  }
  out->setup_s = SecondsSinceStart();

  auto stats_before = client->Stats(net::StatsFormat::kJson);
  if (!stats_before.ok()) return 1;

  // Closed loop on one connection: the next query goes out when the last
  // answer is in, as inmem_mc submits.
  const std::vector<uint64_t> checked = CheckedIndices(args.seed, 1000, 16);
  std::vector<std::vector<uint32_t>> answers(checked.size());
  std::vector<bool> answered(checked.size(), false);
  std::vector<Completion> done;
  std::vector<double> rtt_ms, server_ms, outside_ms;
  uint64_t integrations = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  uint64_t next = 0;
  size_t next_checked = 0;
  Clock::time_point now = start;
  while (now < end) {
    const Clock::time_point sent = Clock::now();
    auto r = client->Query(stream.Make(next), options);
    now = Clock::now();
    ++out->attempted;
    if (!r.ok() || !r->result.complete()) {
      ++out->failed;
    } else {
      done.push_back({SecondsBetween(start, now),
                      SecondsBetween(sent, now) * 1e3});
      rtt_ms.push_back(r->wire_seconds * 1e3);
      server_ms.push_back(static_cast<double>(r->server_micros) * 1e-3);
      outside_ms.push_back(rtt_ms.back() - server_ms.back());
      integrations += r->integrations;
      if (next_checked < checked.size() && checked[next_checked] == next) {
        answers[next_checked] = std::move(r->result.ids);
        answered[next_checked++] = true;
      }
    }
    ++next;
  }
  const double elapsed = SecondsBetween(start, now);
  // Checked queries a short run did not reach, answered now.
  for (size_t c = 0; c < checked.size(); ++c) {
    if (answered[c]) continue;
    auto r = client->Query(stream.Make(checked[c]), options);
    if (!r.ok() || !r->result.complete()) continue;
    answers[c] = std::move(r->result.ids);
    answered[c] = true;
    integrations += r->integrations;
  }

  auto stats_after = client->Stats(net::StatsFormat::kJson);
  if (!stats_after.ok()) return 1;
  out->peak_rss_mb = PeakRssMb(server.pid());

  const WindowStats windows = SummariseWindows(done, args.seconds, kWindows);
  out->throughput_qps = windows.throughput;
  out->p50_ms = windows.p50_ms;
  out->p99_ms = windows.p99_ms;
  std::printf("wire_loopback: %llu queries in %.3f s on one connection\n",
              static_cast<unsigned long long>(out->attempted), elapsed);
  PrintWindows("closed loop", windows);

  if (args.trace) {
    LayerMetrics& layers = out->layers;
    const std::string& a = *stats_before;
    const std::string& b = *stats_after;
    layers.Set("net.client_rtt_ms_p50", Quantile(rtt_ms, 0.5));
    layers.Set("net.server_ms_p50", Quantile(server_ms, 0.5));
    layers.Set("net.outside_server_ms_p50", Quantile(outside_ms, 0.5));
    layers.Set("net.outside_server_ms_p99", Quantile(outside_ms, 0.99));
    const double served = StatsDelta(a, b, "gprq.net.queries");
    layers.Set("net.bytes_per_query",
               Ratio(StatsDelta(a, b, "gprq.net.bytes_in") +
                         StatsDelta(a, b, "gprq.net.bytes_out"),
                     served));
    // Server-side layers from the STATS export: counter deltas over the
    // timed phase; histogram quantiles over the server's lifetime (warm-up
    // included), interpolated from log2 buckets.
    const double queries = StatsDelta(a, b, "gprq.engine.queries");
    layers.Set("core.index_candidates_per_query",
               Ratio(StatsDelta(a, b, "gprq.engine.index_candidates"), queries));
    layers.Set("core.survivors_per_query",
               Ratio(StatsDelta(a, b, "gprq.engine.phase3_candidates"), queries));
    layers.Set("core.accepted_without_integration_per_query",
               Ratio(StatsDelta(a, b, "gprq.engine.accepted.bf_inner"), queries));
    layers.Set("core.prep_us_p50",
               StatsJsonValue(b, "gprq.engine.phase.prep_nanos", "p50") * 1e-3);
    layers.Set("index.phase1_us_p50",
               StatsJsonValue(b, "gprq.engine.phase.phase1_nanos", "p50") * 1e-3);
    layers.Set("core.phase2_us_p50",
               StatsJsonValue(b, "gprq.engine.phase.phase2_nanos", "p50") * 1e-3);
    layers.Set("mc.pool_build_us_p50",
               StatsJsonValue(b, "gprq.mc.pool_build_nanos", "p50") * 1e-3);
    layers.Set("mc.phase3_ms_p50",
               StatsJsonValue(b, "gprq.exec.phase3_nanos", "p50") * 1e-6);
    const double decisions = StatsDelta(a, b, "gprq.mc.decisions");
    const double samples = StatsDelta(a, b, "gprq.mc.samples_used");
    layers.Set("mc.samples_per_decision", Ratio(samples, decisions));
    layers.Set("mc.early_stop_ratio",
               Ratio(StatsDelta(a, b, "gprq.mc.early_stops"), decisions));
    layers.Set("mc.samples_per_s",
               Ratio(samples,
                     StatsDelta(a, b, "gprq.exec.task_nanos", "sum") * 1e-9));
    layers.Set("exec.queue_wait_us_p50",
               StatsJsonValue(b, "gprq.exec.queue_wait_nanos", "p50") * 1e-3);

    // Codec probe: the GPRQ/1 frames of real queries and answers, encoded
    // and decoded here, one query and one response per round.
    const Clock::time_point codec_start = Clock::now();
    size_t bytes = 0;
    for (uint64_t i = 0; i < kCodecQueries; ++i) {
      const std::string query_frame = net::EncodeQuery(
          net::QueryFrame::FromQuery(i + 1, stream.Make(i), options));
      auto decoded = net::DecodeQueryPayload(
          reinterpret_cast<const uint8_t*>(query_frame.data()) +
              net::kFrameHeaderBytes,
          query_frame.size() - net::kFrameHeaderBytes);
      net::ResponseFrame response;
      response.request_id = i + 1;
      response.ids = answers[i % answers.size()];
      const std::string response_frame = net::EncodeResponse(response);
      auto parsed = net::DecodeResponsePayload(
          reinterpret_cast<const uint8_t*>(response_frame.data()) +
              net::kFrameHeaderBytes,
          response_frame.size() - net::kFrameHeaderBytes,
          net::kDefaultMaxFrameBytes);
      if (!decoded.ok() || !parsed.ok()) return 1;
      bytes += query_frame.size() + response_frame.size();
    }
    layers.Set("net.codec_us_per_query",
               SecondsBetween(codec_start, Clock::now()) * 1e6 /
                   static_cast<double>(kCodecQueries));
    std::printf("codec probe: %.0f bytes per query/response pair\n",
                static_cast<double>(bytes) / kCodecQueries);
  }

  // ---- Checks.
  size_t errors = 0;
  auto fail = [&](const std::string& what) {
    report->Fail("wire_loopback: " + what);
    ++errors;
  };
  // Two totals by independent paths: Phase-3 integrations summed from the
  // RESPONSE frames against the server's own counter.
  const double counted = StatsDelta(*stats_before, *stats_after,
                                    "gprq.exec.integrations");
  if (counted != static_cast<double>(integrations)) {
    fail("RESPONSE frames report " + std::to_string(integrations) +
         " integrations, the server's gprq.exec.integrations grew by " +
         std::to_string(static_cast<uint64_t>(counted)));
  }
  // The same seeded queries in-process: set-identical ids, since the
  // server seeds evaluator k with 7 + k and pools come from evaluator 0.
  auto tree = gprq::index::StrBulkLoader::Load(dataset.dim, dataset.points);
  if (!tree.ok()) return 1;
  const core::PrqEngine engine(&*tree);
  uint64_t confident = 0;
  for (size_t c = 0; c < checked.size(); ++c) {
    const core::PrqQuery query = stream.Make(checked[c]);
    const std::string label = "query " + std::to_string(checked[c]);
    if (!answered[c]) {
      fail(label + " failed over the wire");
      continue;
    }
    gprq::mc::MonteCarloEvaluator evaluator(gprq::mc::MonteCarloOptions{
        .samples = kPaperSamples, .seed = 7});
    auto local = engine.Execute(query, options, &evaluator);
    std::string difference;
    if (!local.ok()) {
      fail(label + " failed in-process");
    } else if (!SameIds(answers[c], *local, &difference)) {
      fail(label + ": wire answer differs from in-process: " + difference);
    }
    OracleOptions oracle;
    oracle.engine_samples = kPaperSamples;
    oracle.seed = MixSeed(args.seed, 4, checked[c]);
    const OracleVerdict verdict = CheckAnswer(
        query, answers[c],
        ScanPositions(&dataset.points), oracle);
    for (const std::string& error : verdict.errors) fail(label + ": " + error);
    confident += verdict.confident_in + verdict.confident_out;
  }
  client.reset();
  server.Stop();
  if (errors == 0) {
    report->Pass("RESPONSE integrations == server counter (" +
                 std::to_string(integrations) + ")");
    report->Pass("wire == in-process and oracle agrees on " +
                 std::to_string(checked.size()) + " sampled answers (" +
                 std::to_string(confident) + " confident decisions)");
  }
  return 0;
}

}  // namespace perfbench
