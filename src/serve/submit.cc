#include "serve/submit.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/build_info.hh"
#include "gpu/workload.hh"

namespace killi::serve
{

namespace
{

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string token;
    while (std::getline(ss, token, ','))
        if (!token.empty())
            out.push_back(token);
    return out;
}

/** Extract a numeric member constrained to [lo, hi]. */
bool
numberIn(const Json &value, const char *key, double lo, double hi,
         double &out, std::string &err)
{
    if (!value.isNumber()) {
        err = std::string("\"") + key + "\" must be a number";
        return false;
    }
    const double d = value.asDouble();
    if (!(d >= lo && d <= hi)) {
        std::ostringstream os;
        os << "\"" << key << "\" must be in [" << lo << ", " << hi
           << "]";
        err = os.str();
        return false;
    }
    out = d;
    return true;
}

/** Extract an integral member constrained to [lo, hi]. */
bool
intIn(const Json &value, const char *key, std::int64_t lo,
      std::int64_t hi, std::int64_t &out, std::string &err)
{
    if (!value.isNumber()) {
        err = std::string("\"") + key + "\" must be a number";
        return false;
    }
    const double d = value.asDouble();
    if (!(d >= double(lo)) || d != std::floor(d) || d > double(hi)) {
        std::ostringstream os;
        os << "\"" << key << "\" must be an integer in [" << lo << ", "
           << hi << "]";
        err = os.str();
        return false;
    }
    out = std::int64_t(d);
    return true;
}

/** Accept either a comma-separated string or an array of strings. */
bool
nameList(const Json &value, const char *key,
         std::vector<std::string> &out, std::string &err)
{
    if (value.kind() == Json::Kind::String) {
        out = splitList(value.asString());
        return true;
    }
    if (value.kind() == Json::Kind::Array) {
        out.clear();
        for (std::size_t i = 0; i < value.size(); ++i) {
            if (value.at(i).kind() != Json::Kind::String) {
                err = std::string("\"") + key +
                      "\" array members must be strings";
                return false;
            }
            out.push_back(value.at(i).asString());
        }
        return true;
    }
    err = std::string("\"") + key +
          "\" must be a comma-separated string or an array of "
          "strings";
    return false;
}

bool
validateNames(const std::vector<std::string> &got,
              const std::vector<std::string> &known, const char *what,
              std::string &err)
{
    for (const std::string &name : got) {
        if (std::find(known.begin(), known.end(), name) ==
            known.end()) {
            std::string all;
            for (const std::string &k : known)
                all += (all.empty() ? "" : ", ") + k;
            err = std::string("unknown ") + what + " '" + name +
                  "' (known: " + all + ")";
            return false;
        }
    }
    return true;
}

Json
stringArray(const std::vector<std::string> &names)
{
    Json arr = Json::array();
    for (const std::string &name : names)
        arr.push(Json::string(name));
    return arr;
}

} // namespace

bool
parseSubmit(const Json &req, SubmitRequest &out, std::string &err)
{
    out.sopt = SweepOptions{};
    out.sopt.warmupPasses = 2;
    constexpr std::int64_t kMaxU53 = std::int64_t(1) << 53;
    for (const auto &[key, value] : req.members()) {
        if (key == "type")
            continue;
        std::int64_t i = 0;
        if (key == "priority") {
            if (!intIn(value, "priority", -1000, 1000, i, err))
                return false;
            out.priority = int(i);
        } else if (key == "stream") {
            if (value.kind() != Json::Kind::Bool) {
                err = "\"stream\" must be a boolean";
                return false;
            }
            out.stream = value.asBool();
        } else if (key == "options") {
            if (value.kind() != Json::Kind::Object) {
                err = "\"options\" must be an object";
                return false;
            }
            for (const auto &[opt, v] : value.members()) {
                if (opt == "scale") {
                    if (!numberIn(v, "scale", 0.001, 1000.0,
                                  out.sopt.scale, err))
                        return false;
                } else if (opt == "warmup") {
                    if (!intIn(v, "warmup", 0, 16, i, err))
                        return false;
                    out.sopt.warmupPasses = unsigned(i);
                } else if (opt == "scenario") {
                    // Object or inline-JSON string; file paths are a
                    // client-side concern (kcli resolves them before
                    // submitting).
                    ScenarioSpec scenario;
                    std::string specErr;
                    if (v.kind() == Json::Kind::Object) {
                        if (!ScenarioSpec::tryFromJson(v, scenario,
                                                       &specErr)) {
                            err = specErr;
                            return false;
                        }
                    } else if (v.kind() == Json::Kind::String &&
                               !v.asString().empty() &&
                               v.asString().front() == '{') {
                        if (!ScenarioSpec::tryFromString(
                                v.asString(), scenario, &specErr)) {
                            err = specErr;
                            return false;
                        }
                    } else {
                        err = "\"scenario\" must be a scenario object "
                              "or an inline-JSON string (resolve file "
                              "paths client-side)";
                        return false;
                    }
                    out.sopt.setScenario(std::move(scenario));
                } else if (opt == "stats_interval") {
                    if (!intIn(v, "stats_interval", 0, kMaxU53, i,
                               err))
                        return false;
                    out.sopt.statsInterval = Cycle(i);
                } else if (opt == "retries") {
                    if (!intIn(v, "retries", 0, 10, i, err))
                        return false;
                    out.sopt.retries = unsigned(i);
                } else if (opt == "workloads") {
                    if (!nameList(v, "workloads",
                                  out.sopt.workloads, err))
                        return false;
                } else if (opt == "schemes") {
                    if (!nameList(v, "schemes", out.sopt.schemes,
                                  err))
                        return false;
                } else {
                    err = "unknown option \"" + opt + "\"";
                    return false;
                }
            }
        } else {
            err = "unknown submit member \"" + key + "\"";
            return false;
        }
    }

    // runEvaluationSweep() fatal()s on unknown names — validate
    // up-front so a typo comes back as an error frame instead of
    // taking the daemon down.
    if (!validateNames(out.sopt.workloads, workloadNames(),
                       "workload", err))
        return false;
    if (!validateNames(out.sopt.schemes, sweepSchemeNames(), "scheme",
                       err))
        return false;
    if (out.sopt.workloads.empty())
        out.sopt.workloads = workloadNames();
    if (out.sopt.schemes.empty())
        out.sopt.schemes = sweepSchemeNames();

    // Fixed server-side execution policy: one worker per job, no
    // file side effects (results travel on the wire, not to disk).
    out.sopt.jobs = 1;
    out.sopt.jsonPath.clear();
    out.sopt.trace.clear();
    out.sopt.timeseriesPath.clear();
    return true;
}

std::string
canonicalKeyFor(const SweepOptions &sopt)
{
    Json key = Json::object();
    key.set("experiment", Json::string("sweep"));
    key.set("scale", Json::number(sopt.scale));
    key.set("warmup", Json::number(std::uint64_t(sopt.warmupPasses)));
    key.set("voltage", Json::number(sopt.voltage));
    key.set("seed", Json::number(sopt.seed));
    key.set("stats_interval",
            Json::number(std::uint64_t(sopt.statsInterval)));
    key.set("scenario", sopt.scenario.toJson());
    key.set("workloads", stringArray(sopt.workloads));
    key.set("schemes", stringArray(sopt.schemes));
    key.set("build", Json::string(buildId()));
    return key.toString(0);
}

Json
resolvedOptionsJson(const SweepOptions &sopt)
{
    Json doc = Json::object();
    doc.set("scale", Json::number(sopt.scale));
    doc.set("warmup", Json::number(std::uint64_t(sopt.warmupPasses)));
    doc.set("voltage", Json::number(sopt.voltage));
    doc.set("seed", Json::number(sopt.seed));
    doc.set("stats_interval",
            Json::number(std::uint64_t(sopt.statsInterval)));
    doc.set("scenario", sopt.scenario.toJson());
    doc.set("workloads", stringArray(sopt.workloads));
    doc.set("schemes", stringArray(sopt.schemes));
    doc.set("build", Json::string(buildId()));
    return doc;
}

} // namespace killi::serve
