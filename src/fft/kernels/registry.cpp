// Backend registry: runtime CPU detection, the BISMO_FFT_BACKEND override,
// and the atomic active-kernel pointer every transform call site reads.
#include "fft/kernels/kernel.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace bismo::fft {
namespace {

/// True when the running CPU can execute the AVX2 kernel (the kernel also
/// uses FMA; every AVX2-capable x86-64 part this project targets has it,
/// but check both to be exact).  Whether the kernel was *compiled in* is
/// `avx2_kernel() != nullptr`; this checks the machine.
bool cpu_has_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const FftKernel* resolve(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return &scalar_kernel();
  if (std::strcmp(name, "avx2") == 0) {
    return cpu_has_avx2() ? avx2_kernel() : nullptr;
  }
  return nullptr;
}

/// Best backend the machine supports: AVX2 first, scalar fallback.
const FftKernel* detect() {
  if (const FftKernel* k = resolve("avx2")) return k;
  return &scalar_kernel();
}

/// Startup selection: BISMO_FFT_BACKEND if set and usable (with a stderr
/// warning when it is not), otherwise CPU detection.
const FftKernel* initial_kernel() {
  const char* env = std::getenv("BISMO_FFT_BACKEND");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    if (const FftKernel* k = resolve(env)) return k;
    // bismo-lint: allow(no-io) one-shot startup warning for a bad env override
    std::fprintf(stderr,
                 "bismo: BISMO_FFT_BACKEND=%s is unknown or unavailable on "
                 "this CPU; using runtime detection\n",
                 env);
  }
  return detect();
}

std::atomic<const FftKernel*>& active_slot() {
  static std::atomic<const FftKernel*> slot{initial_kernel()};
  return slot;
}

}  // namespace

const FftKernel& active_kernel() {
  return *active_slot().load(std::memory_order_acquire);
}

const char* backend_name() { return active_kernel().name; }

std::vector<std::string> available_backends() {
  std::vector<std::string> out;
  if (resolve("avx2") != nullptr) out.emplace_back("avx2");
  out.emplace_back("scalar");
  return out;
}

bool set_backend(const std::string& name) {
  const FftKernel* k =
      name == "auto" ? detect() : resolve(name.c_str());
  if (k == nullptr) return false;
  active_slot().store(k, std::memory_order_release);
  return true;
}

}  // namespace bismo::fft
