// Observability layer: canonical number rendering, trace event
// serialization round trips, sink ordering/thread safety, the JSONL
// and Chrome writers, the metrics registry, and the first-divergence
// trace comparator the golden suite is built on, and the checkpoint
// writer's exact bytes and reader's bounds on hostile input.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/stateio.h"
#include "obs/trace.h"
#include "obs/trace_diff.h"

namespace yukta::obs {
namespace {

TEST(CanonicalNumber, RoundTripsDoublesExactly)
{
    const double values[] = {0.0,      -0.0,   1.0 / 3.0, 0.1,
                             6.25e-31, 2.0,    -17.125,   1e300,
                             5e-324,   M_PI,   123456789.123456789};
    for (double v : values) {
        const std::string s = canonicalNumber(v);
        // strtod, not std::stod: the latter throws on subnormals.
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(CanonicalNumber, NonFiniteRendersAsQuotedStrings)
{
    EXPECT_EQ(canonicalNumber(std::numeric_limits<double>::quiet_NaN()),
              "\"nan\"");
    EXPECT_EQ(canonicalNumber(std::numeric_limits<double>::infinity()),
              "\"inf\"");
    EXPECT_EQ(canonicalNumber(-std::numeric_limits<double>::infinity()),
              "\"-inf\"");
}

TEST(TraceEvent, BuildersPreserveInsertionOrder)
{
    TraceEvent ev(3, 1.5, "hw", "ssv");
    ev.num("a", 1.0).integer("b", -2).str("c", "x\"y").vec("d", {1.0, 2.5});
    ASSERT_EQ(ev.fields().size(), 4u);
    EXPECT_EQ(ev.fields()[0].first, "a");
    EXPECT_EQ(ev.fields()[1].first, "b");
    EXPECT_EQ(ev.fields()[2].first, "c");
    EXPECT_EQ(ev.fields()[3].first, "d");
    EXPECT_EQ(ev.tick(), 3);
    EXPECT_EQ(ev.time(), 1.5);
}

TEST(TraceEvent, JsonRoundTripIsByteIdentical)
{
    TraceEvent ev(7, 3.5, "supervisor", "transition");
    ev.str("from", "nominal")
        .str("to", "hold")
        .num("metric", 1.0 / 3.0)
        .vec("targets", {4.5, -0.25, 1e-17})
        .flags("sat", {0, 1, 0})
        .integer("n", 42);
    const std::string line = ev.toJsonLine();
    auto parsed = TraceEvent::fromJsonLine(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->toJsonLine(), line);
    EXPECT_EQ(parsed->tick(), 7);
    EXPECT_EQ(parsed->layer(), "supervisor");
    EXPECT_EQ(parsed->kind(), "transition");
    ASSERT_EQ(parsed->fields().size(), 6u);
    EXPECT_EQ(parsed->fields()[0].second, "\"nominal\"");
}

TEST(TraceEvent, MalformedLinesAreRejectedNotThrown)
{
    EXPECT_FALSE(TraceEvent::fromJsonLine("").has_value());
    EXPECT_FALSE(TraceEvent::fromJsonLine("not json").has_value());
    EXPECT_FALSE(TraceEvent::fromJsonLine("{\"tick\":1}").has_value());
    EXPECT_FALSE(
        TraceEvent::fromJsonLine("{\"tick\":1,\"time\":0,\"layer\":\"a\"")
            .has_value());
}

TEST(TraceSink, RecordsEventsAtTheCurrentTick)
{
    TraceSink sink("run-a");
    sink.beginTick(0, 0.0);
    sink.record(sink.makeEvent("hw", "ssv").num("u", 1.0));
    sink.beginTick(1, 0.5);
    sink.record(sink.makeEvent("os", "ssv").num("u", 2.0));
    ASSERT_EQ(sink.eventCount(), 2u);
    auto events = sink.events();
    EXPECT_EQ(events[0].tick(), 0);
    EXPECT_EQ(events[0].time(), 0.0);
    EXPECT_EQ(events[1].tick(), 1);
    EXPECT_EQ(events[1].time(), 0.5);
    sink.clear();
    EXPECT_EQ(sink.eventCount(), 0u);
}

TEST(TraceSink, JsonlWriterRoundTripsThroughTheReader)
{
    TraceSink sink("roundtrip");
    sink.beginTick(0, 0.0);
    sink.record(sink.makeEvent("hw", "ssv").vec("u", {1.0, 1.0 / 7.0}));
    sink.beginTick(1, 0.5);
    sink.record(sink.makeEvent("sys", "plant").num("temp", 55.25));

    std::ostringstream os;
    sink.writeJsonl(os);
    std::istringstream is(os.str());
    std::string run_id;
    auto events = readJsonlTrace(is, &run_id);
    ASSERT_TRUE(events.has_value());
    EXPECT_EQ(run_id, "roundtrip");
    ASSERT_EQ(events->size(), 2u);

    // Re-serializing the parsed events reproduces the file body.
    std::ostringstream os2;
    TraceSink copy("roundtrip");
    for (const TraceEvent& ev : *events) {
        copy.record(ev);
    }
    copy.writeJsonl(os2);
    EXPECT_EQ(os2.str(), os.str());
}

TEST(TraceSink, ChromeWriterEmitsValidSkeleton)
{
    TraceSink sink("chrome");
    sink.beginTick(0, 0.0);
    sink.record(sink.makeEvent("hw", "ssv").num("u", 1.0));
    sink.record(sink.makeEvent("os", "ssv").num("u", 2.0));
    std::ostringstream os;
    sink.writeChrome(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '\n');
}

TEST(TraceSink, ConcurrentRecordsAllArrive)
{
    TraceSink sink("mt");
    sink.beginTick(0, 0.0);
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
        threads.emplace_back([&sink] {
            for (int i = 0; i < 250; ++i) {
                sink.record(sink.makeEvent("hw", "x"));
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(sink.eventCount(), 1000u);
}

TEST(Metrics, CountersAndGauges)
{
    MetricsRegistry reg;
    reg.counter("a").add();
    reg.counter("a").add(4);
    reg.gauge("g").set(2.5);
    EXPECT_EQ(reg.counter("a").value(), 5);
    EXPECT_EQ(reg.gauge("g").value(), 2.5);
}

TEST(Metrics, HistogramBucketsObservations)
{
    MetricsRegistry reg;
    Histogram& h = reg.histogram("lat", {1.0, 10.0});
    h.observe(0.5);
    h.observe(5.0);
    h.observe(50.0);
    h.observe(0.25);
    EXPECT_EQ(h.count(), 4);
    EXPECT_EQ(h.sum(), 55.75);
    auto buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0], 2);
    EXPECT_EQ(buckets[1], 1);
    EXPECT_EQ(buckets[2], 1);
}

TEST(Metrics, SnapshotIsNameSortedAcrossKinds)
{
    MetricsRegistry reg;
    reg.gauge("zz").set(1.0);
    reg.counter("aa").add(3);
    reg.histogram("mm").observe(1.0);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "aa");
    EXPECT_EQ(snap[1].name, "mm");
    EXPECT_EQ(snap[2].name, "zz");
    EXPECT_EQ(snap[0].type, "counter");
    EXPECT_EQ(snap[0].value, 3.0);

    const std::string json = reg.snapshotJson();
    EXPECT_NE(json.find("\"aa\""), std::string::npos);
    EXPECT_LT(json.find("\"aa\""), json.find("\"zz\""));

    reg.clear();
    EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Profile, ScopeMacroCompilesInEveryConfiguration)
{
    // With YUKTA_TRACE=OFF this must compile to nothing; with it ON it
    // records into the global registry. Either way the macro must be
    // usable as a plain statement.
    YUKTA_PROFILE_SCOPE("obs_test_scope");
    SUCCEED();
}

TEST(TraceDiff, IdenticalTracesHaveNoDivergence)
{
    TraceSink a("x");
    a.beginTick(0, 0.0);
    a.record(a.makeEvent("hw", "ssv").num("u", 1.0));
    EXPECT_FALSE(diffTraces(a.events(), a.events()).has_value());
}

TEST(TraceDiff, FirstDivergingFieldIsReported)
{
    TraceSink a("x");
    a.beginTick(0, 0.0);
    a.record(a.makeEvent("hw", "ssv").num("u", 1.0).num("v", 2.0));
    a.beginTick(1, 0.5);
    a.record(a.makeEvent("hw", "ssv").num("u", 1.0).num("v", 2.0));

    TraceSink b("x");
    b.beginTick(0, 0.0);
    b.record(b.makeEvent("hw", "ssv").num("u", 1.0).num("v", 2.0));
    b.beginTick(1, 0.5);
    b.record(b.makeEvent("hw", "ssv").num("u", 1.0).num("v", 2.0 + 1e-12));

    auto d = diffTraces(a.events(), b.events());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->event_index, 1u);
    EXPECT_EQ(d->tick, 1);
    EXPECT_EQ(d->layer, "hw");
    EXPECT_EQ(d->kind, "ssv");
    EXPECT_EQ(d->field, "v");
    const std::string report = describeDivergence(*d);
    EXPECT_NE(report.find("tick 1"), std::string::npos);
    EXPECT_NE(report.find("'v'"), std::string::npos);
}

TEST(TraceDiff, LengthMismatchIsADivergence)
{
    TraceSink a("x");
    a.beginTick(0, 0.0);
    a.record(a.makeEvent("hw", "ssv"));
    a.record(a.makeEvent("os", "ssv"));
    TraceSink b("x");
    b.beginTick(0, 0.0);
    b.record(b.makeEvent("hw", "ssv"));
    auto d = diffTraces(a.events(), b.events());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->event_index, 1u);
    EXPECT_EQ(d->field, "(event-count)");
}

TEST(TraceDiff, StreamsDiffLikeEventVectors)
{
    TraceSink a("x");
    a.beginTick(0, 0.0);
    a.record(a.makeEvent("hw", "ssv").num("u", 0.5));
    std::ostringstream oa;
    a.writeJsonl(oa);

    std::istringstream sa(oa.str());
    std::istringstream sb(oa.str());
    EXPECT_FALSE(diffJsonlStreams(sa, sb).has_value());

    TraceSink c("x");
    c.beginTick(0, 0.0);
    c.record(c.makeEvent("hw", "ssv").num("u", 0.75));
    std::ostringstream oc;
    c.writeJsonl(oc);
    std::istringstream sa2(oa.str());
    std::istringstream sc(oc.str());
    auto d = diffJsonlStreams(sa2, sc);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->field, "u");
}

TEST(StateReader, VectorsRoundTrip)
{
    StateWriter w;
    w.f64vec("f", {0.5, -2.0});
    w.i64vec("i", {-3, 7, 11});
    w.u64vec("u", {});
    StateReader r(w.dump());
    EXPECT_EQ(r.f64vec("f"), (std::vector<double>{0.5, -2.0}));
    EXPECT_EQ(r.i64vec("i"), (std::vector<long long>{-3, 7, 11}));
    EXPECT_TRUE(r.u64vec("u").empty());
    EXPECT_TRUE(r.atEnd());
}

TEST(StateReader, HostileVectorCountsThrowRuntimeError)
{
    // Counts that used to reach reserve(): 2^62 threw std::length_error
    // and 2^40 std::bad_alloc. Neither is the documented error type.
    for (const char* n : {"4611686018427387904", "1099511627776", "2"}) {
        const std::string body = std::string("v.n=") + n + "\nv.0=1\n";
        StateReader f(body);
        EXPECT_THROW(f.f64vec("v"), std::runtime_error) << n;
        StateReader i(body);
        EXPECT_THROW(i.i64vec("v"), std::runtime_error) << n;
        StateReader u(body);
        EXPECT_THROW(u.u64vec("v"), std::runtime_error) << n;
    }
}

TEST(StateWriter, DumpIsPinnedForEdgeValues)
{
    // The checkpoint format is these bytes: a change here breaks every
    // checkpoint on disk, so it needs a kCheckpointVersion bump.
    StateWriter w;
    w.f64("neg_zero", -0.0);
    w.f64("qnan", std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefULL}));
    w.f64("pinf", std::numeric_limits<double>::infinity());
    w.f64("ninf", -std::numeric_limits<double>::infinity());
    w.f64("subnormal", std::numeric_limits<double>::denorm_min());
    w.u64("umax", std::numeric_limits<std::uint64_t>::max());
    w.i64("imin", std::numeric_limits<long long>::min());
    w.boolean("yes", true);
    w.boolean("no", false);
    w.f64vec("fv", {});
    w.i64vec("iv", {});
    w.u64vec("uv", {});
    w.f64vec("f", {1.0, -2.5});
    w.i64vec("i", {-1, 0, 12});
    w.u64vec("u", {7});
    w.str("s", "a=b%c\nd\re f");
    w.str("empty", "");
    const std::string body = w.dump();
    EXPECT_EQ(body,
              "neg_zero=8000000000000000\n"
              "qnan=7ff80000deadbeef\n"
              "pinf=7ff0000000000000\n"
              "ninf=fff0000000000000\n"
              "subnormal=0000000000000001\n"
              "umax=18446744073709551615\n"
              "imin=-9223372036854775808\n"
              "yes=1\n"
              "no=0\n"
              "fv.n=0\n"
              "iv.n=0\n"
              "uv.n=0\n"
              "f.n=2\n"
              "f.0=3ff0000000000000\n"
              "f.1=c004000000000000\n"
              "i.n=3\n"
              "i.0=-1\n"
              "i.1=0\n"
              "i.2=12\n"
              "u.n=1\n"
              "u.0=7\n"
              "s=a%3db%25c%0ad%0de f\n"
              "empty=\n");
    // dump() hands the buffer over.
    EXPECT_TRUE(w.dump().empty());

    StateReader r(body);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64("neg_zero")),
              0x8000000000000000ULL);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64("qnan")),
              0x7ff80000deadbeefULL);
    EXPECT_EQ(r.f64("pinf"), std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.f64("ninf"), -std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.f64("subnormal"),
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(r.u64("umax"), std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(r.i64("imin"), std::numeric_limits<long long>::min());
    EXPECT_TRUE(r.boolean("yes"));
    EXPECT_FALSE(r.boolean("no"));
    EXPECT_TRUE(r.f64vec("fv").empty());
    EXPECT_TRUE(r.i64vec("iv").empty());
    EXPECT_TRUE(r.u64vec("uv").empty());
    EXPECT_EQ(r.f64vec("f"), (std::vector<double>{1.0, -2.5}));
    EXPECT_EQ(r.i64vec("i"), (std::vector<long long>{-1, 0, 12}));
    EXPECT_EQ(r.u64vec("u"), (std::vector<std::uint64_t>{7}));
    EXPECT_EQ(r.str("s"), "a=b%c\nd\re f");
    EXPECT_EQ(r.str("empty"), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(StateReader, IntegersOutOfRangeOrMalformedThrowRuntimeError)
{
    const auto i64 = [](const std::string& v) {
        StateReader r("k=" + v + "\n");
        return r.i64("k");
    };
    const auto u64 = [](const std::string& v) {
        StateReader r("k=" + v + "\n");
        return r.u64("k");
    };
    // The extremes still parse.
    EXPECT_EQ(i64("-9223372036854775808"),
              std::numeric_limits<long long>::min());
    EXPECT_EQ(i64("9223372036854775807"),
              std::numeric_limits<long long>::max());
    EXPECT_EQ(u64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(i64("-0"), 0);
    // One past either end, and a 20-digit overflow, used to wrap.
    for (const char* v : {"99999999999999999999", "9223372036854775808",
                          "-9223372036854775809", "-", "", "12x", "+1",
                          " 1", "1-"}) {
        EXPECT_THROW(i64(v), std::runtime_error) << v;
    }
    for (const char* v : {"18446744073709551616", "99999999999999999999",
                          "-1", "-", "", "0x1", "+1"}) {
        EXPECT_THROW(u64(v), std::runtime_error) << v;
    }
    try {
        u64("18446744073709551616");
        FAIL() << "overflow accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "StateReader: reading 'k': out of range: "
                               "'18446744073709551616'");
    }
    // Vector elements take the same path.
    StateReader r("v.n=1\nv.0=18446744073709551616\n");
    EXPECT_THROW(r.u64vec("v"), std::runtime_error);
}

TEST(StateReader, ElementKeysMustMatchExactly)
{
    for (const char* body : {"v.n=1\nv.00=1\n", "v.n=1\nv.1=1\n",
                             "v.n=1\nw.0=1\n", "v.n=1\nv0=1\n",
                             "v.n=1\nvx0=1\n", "v.n=1\nv.0.0=1\n"}) {
        StateReader r(body);
        EXPECT_THROW(r.i64vec("v"), std::runtime_error) << body;
    }
    StateReader r("v.n=1\nv.0=1\n");
    try {
        r.i64vec("x");
        FAIL() << "mismatched key accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(),
                     "StateReader: reading 'x.n': found 'v.n' instead");
    }
}

}  // namespace
}  // namespace yukta::obs
