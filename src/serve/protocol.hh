/**
 * @file
 * Wire protocol of the experiment-serving daemon (kserved).
 *
 * Transport: a byte stream (Unix-domain or local TCP socket)
 * carrying length-prefixed JSON frames:
 *
 *     frame   := length payload
 *     length  := 4-byte big-endian unsigned payload byte count
 *     payload := one JSON object with a string "type" member
 *
 * Requests: submit, status, cancel, drain, stats, metrics, ping.
 * Replies:  submitted, progress, result, status_reply,
 *           cancel_reply, draining, stats_reply, metrics_reply,
 *           pong, error.
 *
 * See SERVING.md for the full grammar, member tables, and the
 * cache-key definition. The decoder is strict: an oversized length
 * prefix or a malformed JSON payload is a protocol error — the
 * server answers with an "error" frame and closes the connection
 * (a desynchronized length stream cannot be resynchronized), but
 * never exits; json_fuzz-style mutated frames are part of the test
 * suite.
 */

#ifndef KILLI_SERVE_PROTOCOL_HH
#define KILLI_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/json.hh"

namespace killi::serve
{

/** Frames larger than this are rejected as a protocol error; no
 *  legitimate request or result in this project comes close. */
constexpr std::uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/** Serialize @p doc as one wire frame (length prefix + compact
 *  JSON). */
std::string encodeFrame(const Json &doc);

/** Wrap already-serialized compact JSON @p payload in a frame —
 *  used to send cached result text byte-identical to the original
 *  serialization without a decode/re-encode round trip. */
std::string encodeFramePayload(const std::string &payload);

/**
 * Incremental frame decoder for one connection. feed() bytes as
 * they arrive, then call next() until it stops returning Frame.
 * Once it reports Error the stream is dead: every further call
 * returns Error with the same message.
 */
class FrameDecoder
{
  public:
    enum class Status
    {
        NeedMore, //!< no complete frame buffered yet
        Frame,    //!< one frame decoded into the out-parameter
        Error     //!< protocol violation; see error()
    };

    void feed(const void *data, std::size_t len);

    Status next(Json &out);

    const std::string &error() const { return err; }
    bool failed() const { return !err.empty(); }

    /** Bytes buffered but not yet consumed (diagnostics). */
    std::size_t pendingBytes() const { return buf.size(); }

  private:
    Status fail(std::string what);

    std::string buf;
    std::string err;
};

/** Build an {"type":"error"} reply. @p code is a stable
 *  machine-readable token (bad_request, draining, queue_full,
 *  not_found, protocol); @p message is human-readable detail. */
Json errorReply(const std::string &code, const std::string &message);

} // namespace killi::serve

#endif // KILLI_SERVE_PROTOCOL_HH
