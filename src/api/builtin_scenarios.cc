/**
 * @file
 * The built-in scenarios: scenarios/<name>.scn, embedded at build
 * time by CMakeLists.txt. Kept apart from scenario.cc so that a build
 * of src/ without the generated tables (perfbench/CMakeLists.txt)
 * still links: nothing there calls into this file.
 */

#include <cstddef>

#include "api/scenario.hh"
#include "util/logging.hh"

namespace dysta {

// Defined in the generated builtin_scenario_files.cc.
extern const std::size_t kBuiltinScenarioCount;
extern const char* const kBuiltinScenarioNames[];
extern const char* const kBuiltinScenarioTexts[];

namespace {

/** Embedded text of `name`, or nullptr. */
const char*
findBuiltin(const std::string& name)
{
    for (std::size_t i = 0; i < kBuiltinScenarioCount; ++i)
        if (name == kBuiltinScenarioNames[i])
            return kBuiltinScenarioTexts[i];
    return nullptr;
}

/** Include lookup over the embedded set: "<name>.scn" -> text. */
const char*
findBuiltinInclude(const std::string& file)
{
    size_t stem = file.size() > 4 ? file.size() - 4 : 0;
    return file.compare(stem, 4, ".scn") == 0
               ? findBuiltin(file.substr(0, stem))
               : nullptr;
}

} // namespace

std::vector<std::string>
builtinScenarioNames()
{
    return std::vector<std::string>(
        kBuiltinScenarioNames, kBuiltinScenarioNames + kBuiltinScenarioCount);
}

std::string
builtinScenarioText(const std::string& name)
{
    const char* text = findBuiltin(name);
    if (!text)
        fatal("builtinScenario: unknown scenario '" + name +
              "'; valid scenarios: " + joinComma(builtinScenarioNames()));
    return text;
}

ScenarioSpec
builtinScenario(const std::string& name)
{
    return parseScenario(builtinScenarioText(name), name + ".scn",
                         findBuiltinInclude);
}

} // namespace dysta
