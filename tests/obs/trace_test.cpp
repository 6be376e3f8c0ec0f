#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace tinysdr::obs {
namespace {

TEST(Tracer, NullSinkByDefault) {
  EXPECT_EQ(tracer(), nullptr);
  // TraceSpan against the null sink is a no-op, not a crash.
  TraceSpan span{"test", "noop"};
  span.arg("x", 1.0);
}

TEST(Tracer, SessionInstallsAndRestores) {
  Tracer a, b;
  EXPECT_EQ(tracer(), nullptr);
  {
    TraceSession sa{a};
    EXPECT_EQ(tracer(), &a);
    {
      TraceSession sb{b};
      EXPECT_EQ(tracer(), &b);
    }
    EXPECT_EQ(tracer(), &a);
  }
  EXPECT_EQ(tracer(), nullptr);
}

TEST(Tracer, ClockArithmetic) {
  Tracer t;
  EXPECT_DOUBLE_EQ(t.now().value(), 0.0);
  t.set_time(Seconds{1.5});
  EXPECT_DOUBLE_EQ(t.now().value(), 1.5);
  t.shift_base(Seconds{2.0});
  // Base moved, relative clock restarted.
  EXPECT_DOUBLE_EQ(t.now().value(), 2.0);
  t.set_time(Seconds{0.25});
  EXPECT_DOUBLE_EQ(t.now().value(), 2.25);
}

TEST(Tracer, RecordsEventsWithSimTimestamps) {
  Tracer t;
  TraceSession session{t};
  t.set_time(Seconds{0.001});
  t.instant("cat", "first");
  t.set_time(Seconds{0.002});
  t.counter("cat", "level", 42.0);
  auto events = t.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 1000.0);
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_DOUBLE_EQ(events[1].ts_us, 2000.0);
  EXPECT_EQ(events[1].phase, 'C');
}

TEST(Tracer, RingDropsOldest) {
  Tracer t{4};
  TraceSession session{t};
  for (int i = 0; i < 7; ++i)
    t.instant("cat", "e" + std::to_string(i));
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.dropped(), 3u);
  auto events = t.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest three were overwritten; survivors are in order.
  EXPECT_EQ(events[0].name, "e3");
  EXPECT_EQ(events[3].name, "e6");
}

TEST(Tracer, SpanEmitsCompleteEventWithArgs) {
  Tracer t;
  TraceSession session{t};
  t.set_time(Seconds{1.0});
  {
    TraceSpan span{"cat", "work"};
    span.arg("items", 3.0);
    span.arg("mode", std::string{"fast"});
    t.set_time(Seconds{3.0});
  }
  auto events = t.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_DOUBLE_EQ(events[0].ts_us, 1e6);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 2e6);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].key, "items");
  EXPECT_DOUBLE_EQ(events[0].args[0].number, 3.0);
  EXPECT_EQ(events[0].args[1].text, "fast");
}

TEST(Tracer, CountCategory) {
  Tracer t;
  TraceSession session{t};
  t.instant("a", "x");
  t.instant("b", "y");
  t.instant("a", "z");
  EXPECT_EQ(t.count_category("a"), 2u);
  EXPECT_EQ(t.count_category("b"), 1u);
  EXPECT_EQ(t.count_category("c"), 0u);
}

TEST(Tracer, ChromeJsonIsValidAndDeterministic) {
  auto build = [] {
    Tracer t{8};
    TraceSession session{t};
    t.name_track(0, "main");
    t.set_time(Seconds{0.5});
    t.instant("ota", "go", {TraceArg::str("why", "be\"cause\n")});
    t.counter("power", "mj", 0.1);
    t.complete("ota", "span", Seconds{0.5}, Seconds{0.125});
    return t.chrome_json();
  };
  std::string a = build();
  std::string b = build();
  EXPECT_EQ(a, b);  // byte-identical across identical runs

  auto doc = JsonValue::parse(a);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 1 thread_name metadata record + 3 events.
  EXPECT_EQ(events->items.size(), 4u);
  EXPECT_EQ(events->items[0].find("ph")->text, "M");
  EXPECT_EQ(events->items[1].find("cat")->text, "ota");
}

TEST(Tracer, UntracedRunRecordsNothing) {
  Tracer t;
  // No session installed: direct calls still work (the tracer API is
  // usable standalone), but instrumented code guarded on tracer() != null
  // never reaches it. Verify the guard path by checking the global stays
  // null and a span built against it records nothing.
  ASSERT_EQ(tracer(), nullptr);
  { TraceSpan span{"cat", "ghost"}; }
  EXPECT_EQ(t.size(), 0u);
}

}  // namespace
}  // namespace tinysdr::obs
