/**
 * @file
 * Fuzz harness for the ScenarioSpec key=value grammar
 * (src/api/scenario.cc), including the `include =` machinery.
 *
 * The harness runs chdir'd into a throwaway sandbox populated with a
 * small set of include fixtures (a valid base file, a two-file cycle,
 * a too-deep chain), so inputs containing `include = base.scn` or
 * `include = loop_a.scn` exercise resolution, cycle detection, and
 * the depth cap without ever touching real files. Each parsed spec
 * also goes through validateScenario() and must serialize to a
 * byte-for-byte fixed point. fatal() is routed through FatalError
 * (see util/logging.hh), so a parse or validation *rejection* is a
 * graceful outcome; any other escape — panic(), a stray
 * std::exception, a signal — is a crash worth reporting.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/scenario.hh"
#include "util/logging.hh"

namespace {

void
writeFixture(const char* name, const char* text)
{
    std::FILE* f = std::fopen(name, "w");
    if (f == nullptr) {
        std::perror(name);
        std::abort();
    }
    std::fputs(text, f);
    std::fclose(f);
}

/** Build the include sandbox and chdir into it. */
void
setupSandbox()
{
    char tmpl[] = "/tmp/sdysta_fuzz_scn.XXXXXX";
    if (mkdtemp(tmpl) == nullptr || chdir(tmpl) != 0) {
        std::perror("fuzz_scenario sandbox");
        std::abort();
    }
    writeFixture("base.scn",
                 "name = fuzz-base\n"
                 "workload = attnn\n"
                 "requests = 8\n"
                 "seed = 1\n");
    writeFixture("loop_a.scn", "include = loop_b.scn\n");
    writeFixture("loop_b.scn", "include = loop_a.scn\n");
    // chain_00 -> chain_01 -> ... -> chain_20: trips the depth cap.
    for (int i = 0; i < 21; ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "chain_%02d.scn", i);
        char body[64];
        if (i < 20) {
            std::snprintf(body, sizeof body,
                          "include = chain_%02d.scn\n", i + 1);
        } else {
            std::snprintf(body, sizeof body, "name = deep\n");
        }
        writeFixture(name, body);
    }
}

} // namespace

extern "C" int
LLVMFuzzerInitialize(int* /*argc*/, char*** /*argv*/)
{
    setupSandbox();
    dysta::setFatalThrows(true);
    return 0;
}

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t* data, size_t size)
{
    if (size > (1u << 16))
        return 0;
    std::string text(reinterpret_cast<const char*>(data), size);
    bool parsed = false;
    dysta::ScenarioSpec spec;
    try {
        spec = dysta::parseScenario(text);
        parsed = true;
        dysta::validateScenario(spec);
    } catch (const dysta::FatalError&) {
        // Rejected input, at parse or at validation: the graceful
        // outcome.
    }
    if (parsed) {
        // A spec that parses must serialize to a fixed point: the
        // round trip is the --print-spec contract. A rejection or a
        // changed byte here is a real bug, so escalate it to a crash.
        std::string canonical;
        std::string again;
        try {
            canonical = dysta::serializeScenario(spec);
            again = dysta::serializeScenario(
                dysta::parseScenario(canonical));
        } catch (const dysta::FatalError& err) {
            dysta::panic(std::string("scenario round-trip broke: ") +
                         err.what());
        }
        if (again != canonical)
            dysta::panic("scenario round-trip is not a fixed point:\n" +
                         canonical + "---\n" + again);
    }
    return 0;
}
