// Fixture: R2 violations — hidden shared state in simulator code.
#include <cstdint>
#include <vector>

namespace rbv::sim {

std::vector<int> gRegistry; // namespace-scope mutable

static std::uint64_t gCalls = 0; // static mutable

constinit int gEpoch = 0; // constinit is not const

int
nextTag()
{
    static int counter = 0; // function-local static mutable
    ++gCalls;
    gRegistry.push_back(counter);
    return ++counter;
}

} // namespace rbv::sim
