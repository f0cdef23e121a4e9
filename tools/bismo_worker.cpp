// bismo_worker: serve one api::Session over TCP (see src/net/worker.hpp).
//
//   bismo_worker --port 7421 --threads 2 --name lane0
//   bismo_worker                # ephemeral port, printed on stdout
//
// A worker accepts jobs from net::Dispatcher clients (bismo_cli
// --workers host:port,...), streams their JobEvents back, and reports
// live Session::stats() in heartbeats.  SIGINT/SIGTERM shut down
// cleanly; in-flight jobs of disconnected clients are cancelled.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "api/job_spec.hpp"
#include "fft/kernels/kernel.hpp"
#include "net/worker.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --port N           TCP port on 127.0.0.1 (default: ephemeral)\n"
      "  --threads N        session parallel width (default 1; cluster\n"
      "                     deployments scale by worker count instead)\n"
      "  --lanes N          scheduler lanes (default: threads)\n"
      "  --heartbeat-ms N   max quiet time between frames (default 200)\n"
      "  --name S           worker name reported in the hello (default\n"
      "                     \"worker\")\n"
      "  --fft-backend B    FFT kernel backend: scalar | avx2 | auto\n"
      "  --verbose          connection lifecycle logging to stderr\n",
      argv0);
  std::exit(2);
}

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  bismo::net::WorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Numeric flags go through the checked api parsers: a malformed,
    // negative or out-of-range value is a usage error.
    auto count = [&]() { return bismo::api::parse_size(flag, next()); };
    try {
      if (flag == "--help" || flag == "-h") usage(argv[0]);
      else if (flag == "--port") options.port = static_cast<std::uint16_t>(
          bismo::api::parse_size(flag, next(), 65535));
      else if (flag == "--threads") options.threads = count();
      else if (flag == "--lanes") options.lanes = count();
      else if (flag == "--heartbeat-ms") options.heartbeat_seconds =
          bismo::api::parse_double(flag, next()) / 1000.0;
      else if (flag == "--name") options.name = next();
      else if (flag == "--fft-backend") {
        const std::string backend = next();
        if (!bismo::fft::set_backend(backend)) {
          std::fprintf(stderr, "unknown or unavailable FFT backend \"%s\"\n",
                       backend.c_str());
          return 2;
        }
      }
      else if (flag == "--verbose") options.verbose = true;
      else usage(argv[0]);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      usage(argv[0]);
    }
  }

  try {
    bismo::net::Worker worker(options);
    std::printf("bismo_worker listening on 127.0.0.1:%u (%s, width %zu, "
                "fft %s)\n",
                static_cast<unsigned>(worker.port()), options.name.c_str(),
                worker.session().parallel_width(), bismo::fft::backend_name());
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    worker.start();
    while (!g_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::fprintf(stderr, "bismo_worker: shutting down (%zu jobs served)\n",
                 worker.jobs_served());
    worker.stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
