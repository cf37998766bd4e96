/**
 * @file
 * A program-counter sampler to load with LD_PRELOAD.
 *
 * On load it arms setitimer(ITIMER_PROF) to send the process a
 * SIGPROF for every 1 ms of CPU time it uses (the kernel checks CPU
 * timers once per scheduler tick, so at HZ=250 a sample stands for
 * 4 ms), and the handler records the interrupted program counter
 * (REG_RIP, x86-64 Linux only) in a fixed buffer. At exit it maps each sample to its object file and
 * the offset within it (dladdr) and writes one line per distinct
 * location, "<count> <object> <hex offset>", to pcsample.<pid>.txt in
 * the working directory. tools/prof/profile.py builds it, runs
 * sdysta under it and resolves the offsets with addr2line.
 *
 * Needs no perf and no kernel setting: the timer and the signal act
 * on the sampled process only.
 */

#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <dlfcn.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>

#if !defined(__x86_64__) || !defined(__linux__)
#error "pcsample reads REG_RIP: x86-64 Linux only"
#endif

namespace {

/** 2^21 samples: over half an hour of CPU time at 1 ms. */
constexpr size_t kCapacity = size_t{1} << 21;
uintptr_t samples[kCapacity];
std::atomic<size_t> taken{0};

void
onProf(int, siginfo_t*, void* context)
{
    const auto* uc = static_cast<const ucontext_t*>(context);
    size_t slot = taken.fetch_add(1, std::memory_order_relaxed);
    if (slot < kCapacity)
        samples[slot] = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
}

__attribute__((constructor)) void
startSampling()
{
    struct sigaction sa = {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    struct itimerval every = {};
    every.it_interval.tv_usec = 1000;
    every.it_value.tv_usec = 1000;
    setitimer(ITIMER_PROF, &every, nullptr);
}

__attribute__((destructor)) void
writeSamples()
{
    struct itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    const size_t n = std::min(taken.load(), kCapacity);
    std::sort(samples, samples + n);

    char path[64];
    std::snprintf(path, sizeof path, "pcsample.%ld.txt",
                  static_cast<long>(getpid()));
    FILE* out = std::fopen(path, "w");
    if (out == nullptr)
        return;
    for (size_t i = 0; i < n;) {
        size_t j = i;
        while (j < n && samples[j] == samples[i])
            ++j;
        Dl_info info = {};
        const void* pc = reinterpret_cast<const void*>(samples[i]);
        if (dladdr(pc, &info) != 0 && info.dli_fname != nullptr &&
            info.dli_fname[0] != '\0') {
            std::fprintf(out, "%zu %s %#lx\n", j - i, info.dli_fname,
                         static_cast<unsigned long>(
                             samples[i] -
                             reinterpret_cast<uintptr_t>(info.dli_fbase)));
        } else {
            std::fprintf(out, "%zu ? %#lx\n", j - i,
                         static_cast<unsigned long>(samples[i]));
        }
        i = j;
    }
    std::fclose(out);
}

} // namespace
