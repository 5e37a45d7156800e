/**
 * @file
 * Submit-frame validation and canonicalization, shared between the
 * daemon (src/serve/server.cc) and the fleet coordinator
 * (src/fleet): both must resolve a "submit" frame to the same
 * SweepOptions and — critically — the same canonical cache key, so
 * a shard computed by any worker is content-addressed identically
 * everywhere (SERVING.md, "Cache key").
 */

#ifndef KILLI_SERVE_SUBMIT_HH
#define KILLI_SERVE_SUBMIT_HH

#include <string>

#include "bench/sweep.hh"
#include "common/json.hh"

namespace killi::serve
{

/** A validated submit request. */
struct SubmitRequest
{
    SweepOptions sopt;
    int priority = 0;
    bool stream = true;
};

/**
 * Validate and resolve a submit frame. Strict like the Options CLI
 * layer — unknown keys, bad types, and out-of-range values are all
 * rejected — but via error returns, never fatal(): the daemon must
 * answer a bad request with an error frame and keep serving. Ranges
 * mirror declareSweepOptions(). Workload/scheme subsets are resolved
 * to explicit full lists so that "all by default" and "all by name"
 * canonicalize (and cache) identically.
 */
bool parseSubmit(const Json &req, SubmitRequest &out,
                 std::string &err);

/**
 * The canonical cache key: compact JSON of every result-affecting
 * knob (the bit-identity contract says jobs/priority/streaming do
 * not belong here) plus the build id, so results never survive a
 * rebuild. See SERVING.md, "Cache key".
 */
std::string canonicalKeyFor(const SweepOptions &sopt);

/** The resolved "options" member echoed in every result document. */
Json resolvedOptionsJson(const SweepOptions &sopt);

} // namespace killi::serve

#endif // KILLI_SERVE_SUBMIT_HH
