#include "obs/stateio.h"

#include <bit>
#include <charconv>
#include <stdexcept>
#include <system_error>

namespace yukta::obs {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

[[noreturn]] void failField(std::string_view key, const std::string& why)
{
    throw std::runtime_error("StateReader: reading '" + std::string(key) +
                             "': " + why);
}

/** Appends @p v in decimal. */
template <typename Int>
void putDecimal(std::string& out, Int v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

/** Appends the 16 lower-case hex digits of @p bits. */
void putHex16(std::string& out, std::uint64_t bits)
{
    char buf[16];
    for (int i = 15; i >= 0; --i) {
        buf[i] = kHexDigits[bits & 0xF];
        bits >>= 4;
    }
    out.append(buf, sizeof buf);
}

/** Appends @p raw with %, =, CR, and LF percent-encoded. */
void putPercentEncoded(std::string& out, std::string_view raw)
{
    for (char c : raw) {
        if (c == '%' || c == '=' || c == '\n' || c == '\r') {
            const auto byte = static_cast<unsigned char>(c);
            out += '%';
            out += kHexDigits[byte >> 4];
            out += kHexDigits[byte & 0xF];
        } else {
            out += c;
        }
    }
}

/** Appends `key=`. */
void putKey(std::string& out, std::string_view key)
{
    out.append(key);
    out += '=';
}

/** Appends `key.n=n`, then per element `key.i=` and @p put's value. */
template <typename T, typename Put>
void putVector(std::string& out, std::string_view key,
               const std::vector<T>& v, Put put)
{
    out.append(key);
    out.append(".n=");
    putDecimal(out, v.size());
    out += '\n';
    for (std::size_t i = 0; i < v.size(); ++i) {
        out.append(key);
        out += '.';
        putDecimal(out, i);
        out += '=';
        put(out, v[i]);
        out += '\n';
    }
}

int hexNibble(char c)
{
    if (c >= '0' && c <= '9') {
        return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
        return c - 'a' + 10;
    }
    if (c >= 'A' && c <= 'F') {
        return c - 'A' + 10;
    }
    return -1;
}

/** @return the percent-decoded form of @p enc. */
std::string percentDecode(std::string_view enc)
{
    std::string out;
    out.reserve(enc.size());
    for (std::size_t i = 0; i < enc.size(); ++i) {
        if (enc[i] != '%') {
            out += enc[i];
            continue;
        }
        if (i + 2 >= enc.size()) {
            throw std::runtime_error(
                "StateReader: truncated percent escape");
        }
        const int hi = hexNibble(enc[i + 1]);
        const int lo = hexNibble(enc[i + 2]);
        if (hi < 0 || lo < 0) {
            throw std::runtime_error(
                "StateReader: malformed percent escape");
        }
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
    }
    return out;
}

/**
 * Parses the whole of @p v as a decimal integer: no sign but an
 * optional leading '-' for signed types, no trailing characters, and
 * nothing out of @p Int's range.
 */
template <typename Int>
Int parseInteger(std::string_view key, std::string_view v)
{
    if (v.empty()) {
        failField(key, "empty value");
    }
    Int out = 0;
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (ec == std::errc::result_out_of_range) {
        failField(key, "out of range: '" + std::string(v) + "'");
    }
    if (ec != std::errc() || ptr != end) {
        failField(key, "non-digit in '" + std::string(v) + "'");
    }
    return out;
}

double parseF64(std::string_view key, std::string_view v)
{
    if (v.size() != 16) {
        failField(key, "expected 16 hex digits, got '" + std::string(v) +
                           "'");
    }
    std::uint64_t bits = 0;
    for (char c : v) {
        const int nib = hexNibble(c);
        if (nib < 0) {
            failField(key, "non-hex digit in '" + std::string(v) + "'");
        }
        bits = (bits << 4) | static_cast<std::uint64_t>(nib);
    }
    return std::bit_cast<double>(bits);
}

}  // namespace

void StateWriter::u64(std::string_view key, std::uint64_t v)
{
    putKey(buf_, key);
    putDecimal(buf_, v);
    buf_ += '\n';
}

void StateWriter::i64(std::string_view key, long long v)
{
    putKey(buf_, key);
    putDecimal(buf_, v);
    buf_ += '\n';
}

void StateWriter::boolean(std::string_view key, bool v)
{
    putKey(buf_, key);
    buf_ += v ? '1' : '0';
    buf_ += '\n';
}

void StateWriter::f64(std::string_view key, double v)
{
    putKey(buf_, key);
    putHex16(buf_, std::bit_cast<std::uint64_t>(v));
    buf_ += '\n';
}

void StateWriter::str(std::string_view key, std::string_view v)
{
    putKey(buf_, key);
    putPercentEncoded(buf_, v);
    buf_ += '\n';
}

void StateWriter::f64vec(std::string_view key,
                         const std::vector<double>& v)
{
    putVector(buf_, key, v, [](std::string& out, double x) {
        putHex16(out, std::bit_cast<std::uint64_t>(x));
    });
}

void StateWriter::i64vec(std::string_view key,
                         const std::vector<long long>& v)
{
    putVector(buf_, key, v,
              [](std::string& out, long long x) { putDecimal(out, x); });
}

void StateWriter::u64vec(std::string_view key,
                         const std::vector<std::uint64_t>& v)
{
    putVector(buf_, key, v,
              [](std::string& out, std::uint64_t x) { putDecimal(out, x); });
}

StateReader::StateReader(std::string body) : body_(std::move(body))
{
    const std::string_view text = body_;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos) {
            eol = text.size();
        }
        const std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty()) {
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
            throw std::runtime_error("StateReader: line without '=': '" +
                                     std::string(line) + "'");
        }
        fields_.push_back({line.substr(0, eq), line.substr(eq + 1)});
    }
}

std::string_view StateReader::take(std::string_view key)
{
    if (next_ >= fields_.size()) {
        failKey(key, "past end of snapshot");
    }
    const Field& field = fields_[next_];
    if (field.key != key) {
        failKey(key, "found '" + std::string(field.key) + "' instead");
    }
    ++next_;
    return field.value;
}

void StateReader::failKey(std::string_view key, const std::string& why) const
{
    failField(key, why);
}

std::uint64_t StateReader::u64(std::string_view key)
{
    return parseInteger<std::uint64_t>(key, take(key));
}

long long StateReader::i64(std::string_view key)
{
    return parseInteger<long long>(key, take(key));
}

bool StateReader::boolean(std::string_view key)
{
    const std::string_view v = take(key);
    if (v == "1") {
        return true;
    }
    if (v == "0") {
        return false;
    }
    failKey(key, "expected 0 or 1, got '" + std::string(v) + "'");
}

double StateReader::f64(std::string_view key)
{
    return parseF64(key, take(key));
}

std::string StateReader::str(std::string_view key)
{
    return percentDecode(take(key));
}

std::uint64_t StateReader::count(std::string_view key)
{
    const std::string count_key = std::string(key) + ".n";
    const std::uint64_t n = u64(count_key);
    if (n > fields_.size() - next_) {
        failKey(count_key, "count " + std::to_string(n) + " exceeds the " +
                               std::to_string(fields_.size() - next_) +
                               " fields left");
    }
    return n;
}

template <typename T>
std::vector<T> StateReader::vec(std::string_view key,
                                T (*parse)(std::string_view key,
                                           std::string_view value))
{
    const std::uint64_t n = count(key);
    std::vector<T> out;
    out.reserve(n);
    // One key buffer, its `key.` stem kept and the index rewritten.
    std::string element(key);
    element += '.';
    const std::size_t stem = element.size();
    for (std::uint64_t i = 0; i < n; ++i) {
        element.resize(stem);
        putDecimal(element, i);
        out.push_back(parse(element, take(element)));
    }
    return out;
}

std::vector<double> StateReader::f64vec(std::string_view key)
{
    return vec<double>(key, parseF64);
}

std::vector<long long> StateReader::i64vec(std::string_view key)
{
    return vec<long long>(key, parseInteger<long long>);
}

std::vector<std::uint64_t> StateReader::u64vec(std::string_view key)
{
    return vec<std::uint64_t>(key, parseInteger<std::uint64_t>);
}

}  // namespace yukta::obs
