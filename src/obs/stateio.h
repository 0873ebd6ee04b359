#ifndef YUKTA_OBS_STATEIO_H_
#define YUKTA_OBS_STATEIO_H_

/**
 * @file
 * Bit-exact state snapshot encoding for checkpoint/resume.
 *
 * A checkpoint is a flat, strictly ordered `key=value` text stream.
 * Every stateful component appends its fields through StateWriter and
 * reads them back through StateReader in the same order; a mismatch
 * (missing field, renamed key, version skew) fails loudly with the
 * offending key instead of silently desynchronizing the simulation.
 *
 * Doubles are encoded as their 16-hex-digit IEEE-754 bit pattern, so
 * a round trip is exact to the bit -- the property the fleet's
 * "run-to-T equals run-to-T/2 + restore" digest gate rests on.
 * Strings are percent-encoded (%, =, CR, LF), which is enough to
 * round-trip the stream representations of <random> engines and
 * distributions.
 *
 * This lives in obs (the dependency-free base layer) so every layer
 * from platform to fleet can serialize itself without new layer
 * edges.
 */

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace yukta::obs {

/** Appends typed key=value fields to one flat snapshot buffer. */
class StateWriter
{
  public:
    /** Writes an unsigned integer field. */
    void u64(std::string_view key, std::uint64_t v);

    /** Writes a signed integer field. */
    void i64(std::string_view key, long long v);

    /** Writes a boolean field (encoded 0/1). */
    void boolean(std::string_view key, bool v);

    /** Writes a double as its exact IEEE-754 bit pattern. */
    void f64(std::string_view key, double v);

    /** Writes a percent-encoded string field. */
    void str(std::string_view key, std::string_view v);

    /** Writes @p key.n then one f64 field per element. */
    void f64vec(std::string_view key, const std::vector<double>& v);

    /** Writes @p key.n then one i64 field per element. */
    void i64vec(std::string_view key, const std::vector<long long>& v);

    /** Writes @p key.n then one u64 field per element. */
    void u64vec(std::string_view key, const std::vector<std::uint64_t>& v);

    /**
     * Serializes a <random> engine or distribution through its stream
     * operator (libstdc++ round-trips both exactly).
     */
    template <typename T>
    void rng(std::string_view key, const T& engine)
    {
        std::ostringstream os;
        os << engine;
        str(key, os.str());
    }

    /**
     * @return the accumulated snapshot body, moved out: the writer is
     * left empty, so a multi-megabyte snapshot is never held twice.
     */
    std::string dump() { return std::exchange(buf_, {}); }

  private:
    std::string buf_;
};

/**
 * Strictly sequential reader over a StateWriter dump. Each accessor
 * consumes the next line and requires its key to match.
 * @throws std::runtime_error on key mismatch, malformed values, or
 * reading past the end.
 */
class StateReader
{
  public:
    /**
     * Takes @p body (a StateWriter dump) and indexes its lines as
     * ordered fields viewing into it.
     */
    explicit StateReader(std::string body);

    // The fields view into body_; a copy or move would leave them
    // pointing at the source (a short body lives in the SSO buffer).
    StateReader(const StateReader&) = delete;
    StateReader& operator=(const StateReader&) = delete;

    /** Reads the next field as an unsigned integer. */
    std::uint64_t u64(std::string_view key);

    /** Reads the next field as a signed integer. */
    long long i64(std::string_view key);

    /** Reads the next field as a boolean. */
    bool boolean(std::string_view key);

    /** Reads the next field as an exact double bit pattern. */
    double f64(std::string_view key);

    /** Reads the next field as a percent-decoded string. */
    std::string str(std::string_view key);

    /** Reads a f64vec written by StateWriter::f64vec. */
    std::vector<double> f64vec(std::string_view key);

    /** Reads an i64vec written by StateWriter::i64vec. */
    std::vector<long long> i64vec(std::string_view key);

    /** Reads a u64vec written by StateWriter::u64vec. */
    std::vector<std::uint64_t> u64vec(std::string_view key);

    /** Restores a <random> engine or distribution from its field. */
    template <typename T>
    void rng(std::string_view key, T& engine)
    {
        std::istringstream is(str(key));
        is >> engine;
        if (is.fail()) {
            failKey(key, "unparsable rng state");
        }
    }

    /** @return true when every field has been consumed. */
    bool atEnd() const { return next_ == fields_.size(); }

    /** @return fields consumed so far (diagnostics). */
    std::size_t consumed() const { return next_; }

  private:
    struct Field
    {
        std::string_view key;
        std::string_view value;
    };

    std::string body_;
    std::vector<Field> fields_;
    std::size_t next_ = 0;

    /** Consumes the next field; its key must be @p key. @return its value. */
    std::string_view take(std::string_view key);

    /** Reads a vector's `.n` field, bounded by the fields left. */
    std::uint64_t count(std::string_view key);

    /** Reads a vector's count, then each element through @p parse. */
    template <typename T>
    std::vector<T> vec(std::string_view key,
                       T (*parse)(std::string_view key,
                                  std::string_view value));

    [[noreturn]] void failKey(std::string_view key,
                              const std::string& why) const;
};

}  // namespace yukta::obs

#endif  // YUKTA_OBS_STATEIO_H_
