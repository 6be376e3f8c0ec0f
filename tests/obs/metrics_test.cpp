#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hpp"

namespace tinysdr::obs {
namespace {

TEST(Metrics, NullSinkByDefault) { EXPECT_EQ(metrics(), nullptr); }

TEST(Metrics, SessionInstallsAndRestores) {
  Registry r;
  {
    MetricsSession session{r};
    EXPECT_EQ(metrics(), &r);
    metrics()->counter("hits").add();
  }
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_DOUBLE_EQ(r.counters().at("hits").value(), 1.0);
}

TEST(Metrics, CounterAndGauge) {
  Registry r;
  r.counter("n").add();
  r.counter("n").add(2.5);
  r.gauge("level").set(7.0);
  r.gauge("level").set(3.0);  // last write wins
  EXPECT_DOUBLE_EQ(r.counters().at("n").value(), 3.5);
  EXPECT_DOUBLE_EQ(r.gauges().at("level").value(), 3.0);
}

TEST(Histogram, LinearBucketPlacement) {
  Histogram h{HistogramSpec::linear(0.0, 10.0, 10)};
  h.observe(0.5);   // bucket 0
  h.observe(5.5);   // bucket 5
  h.observe(9.99);  // bucket 9
  h.observe(-1.0);  // underflow
  h.observe(10.0);  // hi is exclusive -> overflow
  h.observe(25.0);  // overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(5), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(5), 6.0);
}

TEST(Histogram, GeometricBucketPlacement) {
  // 6 equal-ratio buckets spanning [1, 64): edges at powers of 2.
  Histogram h{HistogramSpec::log_scale(1.0, 64.0, 6)};
  h.observe(1.5);   // [1, 2)
  h.observe(3.0);   // [2, 4)
  h.observe(33.0);  // [32, 64)
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(5), 1u);
  EXPECT_NEAR(h.bucket_lower(5), 32.0, 1e-9);
  EXPECT_NEAR(h.bucket_upper(5), 64.0, 1e-9);
}

TEST(Histogram, QuantileInterpolation) {
  Histogram h{HistogramSpec::linear(0.0, 100.0, 100)};
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i) + 0.5);
  // Uniform fill: quantiles track the value range linearly, within a
  // bucket's width.
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);  // clamps to observed min
}

TEST(Histogram, QuantileEmptyAndDegenerate) {
  Histogram empty{HistogramSpec::linear(0.0, 1.0, 4)};
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  Histogram h{HistogramSpec::linear(0.0, 1.0, 4)};
  h.observe(10.0);  // single overflow sample
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
}

TEST(Registry, HistogramSpecAppliesOnFirstCreationOnly) {
  Registry r;
  auto& h1 = r.histogram("lat", HistogramSpec::linear(0.0, 10.0, 5));
  auto& h2 = r.histogram("lat", HistogramSpec::linear(0.0, 99.0, 7));
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.spec().buckets, 5u);
  EXPECT_DOUBLE_EQ(h2.spec().hi, 10.0);
}

TEST(Snapshot, JsonRoundTripsExactly) {
  Registry r;
  r.counter("a.count").add(3.0);
  r.counter("weird").add(0.1);  // classic binary-unrepresentable decimal
  r.gauge("g").set(-1e-9);
  auto& h = r.histogram("h.log", HistogramSpec::log_scale(0.01, 1e7, 12));
  h.observe(0.5);
  h.observe(123.456);
  h.observe(1e9);    // overflow
  h.observe(0.001);  // underflow
  auto& lin = r.histogram("h.lin", HistogramSpec::linear(-5.0, 5.0, 4));
  lin.observe(0.0);

  MetricsSnapshot snap = r.snapshot();
  std::string json = snap.json();
  auto doc = JsonValue::parse(json);
  ASSERT_TRUE(doc.has_value());
  // Exported numbers parse back to the identical doubles.
  EXPECT_EQ(doc->find("counters")->number_or("weird", 0.0), 0.1);
  EXPECT_EQ(doc->find("gauges")->number_or("g", 0.0), -1e-9);
  const JsonValue* hist = doc->find("histograms")->find("h.log");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->number_or("sum", 0.0), snap.histograms.at("h.log").sum);
  EXPECT_EQ(hist->number_or("underflow", 0.0), 1.0);
  EXPECT_EQ(hist->number_or("overflow", 0.0), 1.0);
  // And a second export is byte-identical (deterministic export).
  EXPECT_EQ(r.snapshot().json(), json);
}

TEST(Snapshot, SnapshotIsStableAcrossIdenticalSequences) {
  auto build = [] {
    Registry r;
    r.counter("x").add(2.0);
    r.histogram("y", HistogramSpec::linear(0.0, 1.0, 4)).observe(0.3);
    return r.snapshot();
  };
  EXPECT_EQ(build(), build());
  EXPECT_EQ(build().json(), build().json());
}

TEST(Json, NumberFormattingRoundTrips) {
  for (double v : {0.0, 1.0, -3.5, 0.1, 1e-9, 1e15, 12345.6789,
                   2.2250738585072014e-308}) {
    std::string s = json_number(v);
    auto parsed = JsonValue::parse(s);
    ASSERT_TRUE(parsed.has_value()) << s;
    EXPECT_EQ(parsed->number, v) << s;
  }
  // Integral doubles print without an exponent or decimal point.
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
}

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  auto parsed = JsonValue::parse(json_quote("tab\there"));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->text, "tab\there");
}

TEST(Json, ParserHandlesNestedStructures) {
  auto doc = JsonValue::parse(
      R"({"a":[1,2,{"b":true,"c":null}],"d":"xA"})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_DOUBLE_EQ(a->items[1].number, 2.0);
  EXPECT_TRUE(a->items[2].find("b")->boolean);
  EXPECT_EQ(doc->find("d")->text, "xA");
  EXPECT_FALSE(JsonValue::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,2] trailing").has_value());
}

TEST(Json, ParserBoundsNestingDepth) {
  auto nested = [](int depth, char open, char close) {
    return std::string(static_cast<std::size_t>(depth), open) +
           std::string(static_cast<std::size_t>(depth), close);
  };
  const int limit = JsonValue::kMaxDepth;
  EXPECT_TRUE(JsonValue::parse(nested(limit, '[', ']')).has_value());
  EXPECT_FALSE(JsonValue::parse(nested(limit + 1, '[', ']')).has_value());
  // Arrays and objects count alike.
  auto mixed = [](int depth) {
    std::string open, close;
    for (int i = 0; i < depth; ++i) {
      open += (i % 2 == 0) ? "{\"a\":" : "[";
      close.insert(close.begin(), (i % 2 == 0) ? '}' : ']');
    }
    return open + "1" + close;
  };
  EXPECT_TRUE(JsonValue::parse(mixed(limit)).has_value());
  EXPECT_FALSE(JsonValue::parse(mixed(limit + 1)).has_value());
  // Deep enough to overflow the stack of an unbounded recursive parser:
  // rejected cleanly, unterminated or not.
  EXPECT_FALSE(JsonValue::parse(std::string(100000, '[')).has_value());
  EXPECT_FALSE(JsonValue::parse(nested(100000, '[', ']')).has_value());
}

TEST(Json, IntegerInAcceptsOnlyExactIntegersInRange) {
  // tinysdr_submit reads the server's job id through this rule, so an id
  // of 2.5 or 1e300 is refused rather than cast to a wrong or undefined
  // integer.
  auto id_of = [](const std::string& reply) {
    auto doc = JsonValue::parse(reply);
    return doc->integer_in("id", 1, JsonValue::kMaxExactInteger);
  };
  EXPECT_EQ(id_of(R"({"id":7})"), 7.0);
  EXPECT_EQ(id_of(R"({"id":9007199254740992})"), JsonValue::kMaxExactInteger);
  EXPECT_EQ(id_of(R"({"id":1e3})"), 1000.0);
  for (const char* bad :
       {R"({"id":2.5})", R"({"id":1e300})", R"({"id":0})", R"({"id":-1})",
        R"({"id":9007199254740994})", R"({"id":"7"})", R"({"id":null})",
        R"({"ok":true})", R"([7])"})
    EXPECT_FALSE(id_of(bad).has_value()) << bad;
}

}  // namespace
}  // namespace tinysdr::obs
