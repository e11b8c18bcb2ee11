// The dependency-free JSON emitter (cli/json.hpp); the parser's tests sit
// with the wire protocol in test_serve.
#include "cli/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace dsf {
namespace {

TEST(JsonWriterTest, NestsAndSeparates) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject();
  json.Key("a");
  json.Int(1);
  json.Key("b");
  json.BeginArray();
  json.Int(2);
  json.String("x");
  json.Bool(true);
  json.Null();
  json.BeginObject();
  json.Key("c");
  json.Double(1.5);
  json.EndObject();
  json.EndArray();
  json.EndObject();
  EXPECT_TRUE(json.Done());
  EXPECT_EQ(out.str(), R"({"a":1,"b":[2,"x",true,null,{"c":1.5}]})");
}

TEST(JsonWriterTest, EscapesStrings) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject();
  json.Key("quote\"back\\slash");
  json.String("line\nbreak\ttab\x01");
  json.EndObject();
  EXPECT_EQ(out.str(),
            "{\"quote\\\"back\\\\slash\":\"line\\nbreak\\ttab\\u0001\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginArray();
  json.Double(std::numeric_limits<double>::quiet_NaN());
  json.Double(std::numeric_limits<double>::infinity());
  json.Double(0.25);
  json.EndArray();
  EXPECT_EQ(out.str(), "[null,null,0.25]");
}

}  // namespace
}  // namespace dsf
