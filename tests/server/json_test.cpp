#include "support/json.hpp"

#include <gtest/gtest.h>

namespace llhsc::support {
namespace {

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json::null().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::boolean(false).dump(), "false");
  EXPECT_EQ(Json::integer(-42).dump(), "-42");
  EXPECT_EQ(Json::unsigned_integer(9223372036854775807ull).dump(),
            "9223372036854775807");
  // Documented saturation: the wire never carries a wrapped-negative count.
  EXPECT_EQ(Json::unsigned_integer(18446744073709551615ull).dump(),
            "9223372036854775807");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json o = Json::object();
  o.set("zeta", Json::integer(1));
  o.set("alpha", Json::integer(2));
  EXPECT_EQ(o.dump(), "{\"zeta\":1,\"alpha\":2}");
}

TEST(Json, EscapesControlBytesAndQuotes) {
  Json s = Json::string("a\"b\\c\nd\te\x01");
  auto parsed = Json::parse(s.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\"b\\c\nd\te\x01");
}

TEST(Json, ParsesNestedStructures) {
  auto v = Json::parse(
      R"({"id": 7, "params": {"files": ["a.dts", "b.dts"], "deep": true}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->is_object());
  EXPECT_EQ(v->at("id").as_int(), 7);
  const Json& files = v->at("params").at("files");
  ASSERT_EQ(files.items().size(), 2u);
  EXPECT_EQ(files.items()[1].as_string(), "b.dts");
  EXPECT_TRUE(v->at("params").at("deep").as_bool());
}

TEST(Json, LargeUnsignedSurvivesParse) {
  // The full int64 range round-trips exactly (counters live well below it).
  auto v = Json::parse("{\"n\": 9223372036854775807, \"m\": -42}");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->at("n").as_uint(), 9223372036854775807ull);
  // Negative values never masquerade as huge unsigned counters.
  EXPECT_EQ(v->at("m").as_uint(/*fallback=*/7), 7u);
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_FALSE(Json::parse("{} extra").has_value());
  EXPECT_FALSE(Json::parse("{\"a\": 1} {\"b\": 2}").has_value());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
}

TEST(Json, AbsentFieldIsNullAndDefaults) {
  auto v = Json::parse("{\"present\": 3}");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->at("absent").is_null());
  EXPECT_EQ(v->at("absent").as_uint(9), 9u);
  EXPECT_TRUE(v->at("absent").as_bool(true));
  EXPECT_FALSE(v->has("absent"));
  EXPECT_TRUE(v->has("present"));
}

TEST(Json, FieldsExposesObjectEntries) {
  auto v = Json::parse("{\"a.dtsi\": \"x\", \"b.dtsi\": \"y\"}");
  ASSERT_TRUE(v.has_value());
  const auto& fields = v->fields();
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].first, "a.dtsi");
  EXPECT_EQ(fields[1].second.as_string(), "y");
}

TEST(Json, DumpParseRoundTripIsStable) {
  Json o = Json::object();
  o.set("report", Json::string("vm1.dts:3:5: error: boom\n"));
  Json arr = Json::array();
  arr.push(Json::integer(1));
  arr.push(Json::null());
  arr.push(Json::number(1.5));
  o.set("list", std::move(arr));
  auto round = Json::parse(o.dump());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->dump(), o.dump());
}

}  // namespace
}  // namespace llhsc::support
