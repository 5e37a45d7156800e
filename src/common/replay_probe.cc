#include "common/replay_probe.hh"

namespace killi::detail
{

constinit thread_local ReplayProbe *tlsReplayProbe = nullptr;
constinit thread_local const char *tlsRngStream = "?";

} // namespace killi::detail
