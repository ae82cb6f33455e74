// BENCH_*.json artifacts are parsed by CI and later sessions; this keeps
// the hand-rolled emitter honest — full string escaping and no non-finite
// number ever reaching a document.
#include "util/bench_json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace webwave {
namespace {

TEST(BenchJson, RendersFlatRecords) {
  BenchJson json("demo");
  json.BeginRun();
  json.Add("nodes", 1000);
  json.Add("ms", 1.5);
  json.BeginRun();
  json.Add("label", std::string("second"));
  const std::string doc = json.Render();
  EXPECT_NE(doc.find("\"bench\": \"demo\""), std::string::npos);
  EXPECT_NE(doc.find("\"nodes\": 1000"), std::string::npos);
  EXPECT_NE(doc.find("\"ms\": 1.5"), std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"second\""), std::string::npos);
}

TEST(BenchJson, NonFiniteDoublesBecomeNull) {
  BenchJson json("nan");
  json.BeginRun();
  json.Add("a", std::numeric_limits<double>::quiet_NaN());
  json.Add("b", std::numeric_limits<double>::infinity());
  json.Add("c", -std::numeric_limits<double>::infinity());
  json.Add("d", 2.0);
  const std::string doc = json.Render();
  EXPECT_NE(doc.find("\"a\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"b\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"c\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"d\": 2"), std::string::npos);
  // Nothing a JSON parser chokes on may leak through.
  EXPECT_EQ(doc.find("nan,"), std::string::npos);
  EXPECT_EQ(doc.find("inf"), std::string::npos);
}

TEST(BenchJson, EscapesStrings) {
  BenchJson json("esc");
  json.BeginRun();
  json.Add("s", std::string("a\"b\\c\nd\te\rf\bg\fh"));
  json.Add("ctl", std::string("x\x01y"));
  const std::string doc = json.Render();
  EXPECT_NE(doc.find("a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh"), std::string::npos);
  EXPECT_NE(doc.find("x\\u0001y"), std::string::npos);
  // No raw control byte survives (the document's own newlines are the only
  // bytes below 0x20).
  for (const char c : doc)
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
}

TEST(BenchJson, DoublesRoundTrip) {
  const double value = 0.1234567890123456789;
  BenchJson json("rt");
  json.BeginRun();
  json.Add("v", value);
  const std::string doc = json.Render();
  const std::size_t at = doc.find("\"v\": ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::stod(doc.substr(at + 5)), value);
}

TEST(BenchJson, AddWithoutBeginRunStartsARecord) {
  BenchJson json("implicit");
  json.Add("k", 1);
  EXPECT_NE(json.Render().find("\"k\": 1"), std::string::npos);
}

}  // namespace
}  // namespace webwave
