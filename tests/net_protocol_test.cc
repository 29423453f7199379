// Unit tests of the wire-protocol stack below the server: strict JSON
// (parse/serialize round trips, %.17g bit-exactness), length-prefixed
// framing (incremental decode, fragmentation), and the protocol message
// builders/parsers round-tripping through each other.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/json.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "object/uncertain_object.h"

namespace osd {
namespace net {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &v, &error)) << text << ": " << error;
  return v;
}

TEST(JsonTest, ParsesScalarsAndContainers) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_TRUE(MustParse("true").AsBool());
  EXPECT_FALSE(MustParse("false").AsBool());
  EXPECT_DOUBLE_EQ(MustParse("-12.5e2").AsNumber(), -1250.0);
  EXPECT_EQ(MustParse("\"a\\nb\"").AsString(), "a\nb");
  const JsonValue arr = MustParse("[1, [2, 3], {\"x\": 4}]");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.Items().size(), 3u);
  EXPECT_EQ(arr.Items()[1].Items()[1].AsNumber(), 3.0);
  const JsonValue* x = arr.Items()[2].Find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->AsNumber(), 4.0);
}

TEST(JsonTest, JsonNumberRoundTripsBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           1.0 / 3.0,
                           -2.718281828459045,
                           1e-308,
                           5e-324,  // smallest denormal
                           1.7976931348623157e308,
                           123456789.123456789};
  for (const double v : values) {
    const std::string text = JsonNumber(v);
    const JsonValue parsed = MustParse(text);
    ASSERT_TRUE(parsed.is_number()) << text;
    const double back = parsed.AsNumber();
    EXPECT_EQ(std::memcmp(&v, &back, sizeof(double)), 0)
        << v << " -> " << text << " -> " << back;
  }
}

TEST(JsonTest, RejectsNonFiniteAndOverflowingNumbers) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("NaN", &v));
  EXPECT_FALSE(ParseJson("Infinity", &v));
  EXPECT_FALSE(ParseJson("-Infinity", &v));
  EXPECT_FALSE(ParseJson("1e999", &v));  // overflows to inf
  EXPECT_FALSE(ParseJson("{\"deadline_ms\": 1e999}", &v));
  // The serializer backstop renders non-finite as null, never "nan".
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("", &v));
  EXPECT_FALSE(ParseJson("{", &v));
  EXPECT_FALSE(ParseJson("{} trailing", &v));
  EXPECT_FALSE(ParseJson("{\"a\":1,}", &v));      // trailing comma
  EXPECT_FALSE(ParseJson("{'a':1}", &v));         // single quotes
  EXPECT_FALSE(ParseJson("{a:1}", &v));           // unquoted key
  EXPECT_FALSE(ParseJson("{\"a\":1,\"a\":2}", &v));  // duplicate key
  EXPECT_FALSE(ParseJson("[1 2]", &v));
  EXPECT_FALSE(ParseJson("01", &v));  // leading zero
  EXPECT_FALSE(ParseJson("+1", &v));
}

TEST(JsonTest, RejectsDepthBombsFast) {
  std::string bomb(100'000, '[');
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson(bomb, &v, &error));
  EXPECT_NE(error.find("depth"), std::string::npos) << error;
}

TEST(JsonTest, RejectsBadUtf8AndLoneSurrogates) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("\"\xC0\xAF\"", &v));      // overlong encoding
  EXPECT_FALSE(ParseJson("\"\xFF\"", &v));          // invalid byte
  EXPECT_FALSE(ParseJson("\"\xE2\x82\"", &v));      // truncated sequence
  EXPECT_FALSE(ParseJson("\"\\uD800\"", &v));       // lone high surrogate
  EXPECT_FALSE(ParseJson("\"\\uDC00\"", &v));       // lone low surrogate
  EXPECT_TRUE(ParseJson("\"\\uD83D\\uDE00\"", &v));  // valid pair
  EXPECT_TRUE(ParseJson("\"\xE2\x82\xAC\"", &v));    // valid raw UTF-8
  EXPECT_FALSE(IsValidUtf8("\x80"));
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
}

TEST(JsonTest, EscapesStringsOnOutput) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  const JsonValue v = MustParse(out);
  EXPECT_EQ(v.AsString(), "a\"b\\c\nd\te\x01");
}

TEST(WireTest, FramesRoundTripAcrossFragmentedFeeds) {
  const std::string payloads[] = {"{}", "{\"type\":\"hello\"}",
                                  std::string(1000, 'x')};
  std::string stream;
  for (const std::string& p : payloads) {
    const std::string frame = EncodeFrame(p);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + p.size());
    stream += frame;
  }
  // Feed one byte at a time: framing must reassemble exactly.
  FrameDecoder decoder;
  std::vector<std::string> decoded;
  for (const char c : stream) {
    ASSERT_TRUE(decoder.Feed(&c, 1));
    std::string payload;
    while (decoder.Next(&payload)) decoded.push_back(payload);
  }
  ASSERT_EQ(decoded.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(decoded[i], payloads[i]);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireTest, DecodesMultipleFramesFromOneFeed) {
  const std::string stream = EncodeFrame("{\"a\":1}") + EncodeFrame("{\"b\":2}");
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(stream.data(), stream.size()));
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "{\"a\":1}");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "{\"b\":2}");
  EXPECT_FALSE(decoder.Next(&payload));
}

TEST(WireTest, OversizedEncodeIsRefused) {
  EXPECT_TRUE(EncodeFrame(std::string(kMaxFrameBytes + 1, 'x')).empty());
  EXPECT_TRUE(EncodeFrame("").empty());  // zero-length frames are invalid
  EXPECT_FALSE(EncodeFrame(std::string(kMaxFrameBytes, 'x')).empty());
}

TEST(ProtocolTest, HelloRoundTrips) {
  const JsonValue msg = MustParse(BuildHelloMessage("mobile-app_1"));
  EXPECT_EQ(MessageType(msg), "hello");
  HelloRequest req;
  std::string error;
  ASSERT_TRUE(ParseHello(msg, &req, &error)) << error;
  EXPECT_EQ(req.version, kProtocolVersion);
  EXPECT_EQ(req.tenant, "mobile-app_1");
}

TEST(ProtocolTest, SubmitRoundTripsInlineQueryBitExactly) {
  // An inline query with awkward coordinates: the %.17g serialization must
  // survive the parse bit-for-bit.
  std::vector<double> coords;
  std::vector<double> weights;
  for (int i = 0; i < 5; ++i) {
    coords.push_back(0.1 * (i + 1));
    coords.push_back(1.0 / (3 + i));
    weights.push_back(1.0 + 0.125 * i);
  }
  const UncertainObject query =
      UncertainObject::FromWeighted(-1, 2, coords, weights);

  SubmitParams params;
  params.id = 42;
  params.query = &query;
  params.op = "fsd";
  params.k = 3;
  params.metric = "l1";
  params.filters = "lg";
  params.deadline_ms = 250.5;
  params.accept_degraded = true;
  params.retries = 2;
  params.mem_budget_bytes = 1 << 20;
  params.stream = false;
  params.trace = true;

  const JsonValue msg = MustParse(BuildSubmitMessage(params));
  EXPECT_EQ(MessageType(msg), "submit");
  SubmitRequest req;
  std::string error;
  ASSERT_TRUE(ParseSubmit(msg, &req, &error)) << error;
  EXPECT_EQ(req.id, 42);
  ASSERT_TRUE(req.inline_query);
  EXPECT_EQ(req.options.op, Operator::kFSd);
  EXPECT_EQ(req.options.k, 3);
  EXPECT_EQ(req.options.metric, Metric::kL1);
  EXPECT_TRUE(req.options.degraded_superset);
  EXPECT_NEAR(req.deadline_seconds, 0.2505, 1e-12);
  EXPECT_EQ(req.retries, 2);
  EXPECT_EQ(req.mem_budget_bytes, 1 << 20);
  EXPECT_FALSE(req.stream);
  EXPECT_TRUE(req.trace);

  ASSERT_EQ(req.query.num_instances(), query.num_instances());
  ASSERT_EQ(req.query.dim(), query.dim());
  for (int i = 0; i < query.num_instances(); ++i) {
    // Coordinates travel untransformed and must survive bit-for-bit.
    // Probabilities are re-derived by weight normalization on the far
    // side, so they are only ulp-close (the normalizer divides by a sum
    // that is itself rounded).
    EXPECT_NEAR(req.query.Prob(i), query.Prob(i), 1e-15) << i;
    for (int d = 0; d < query.dim(); ++d) {
      const double c_in = query.Instance(i)[d];
      const double c_out = req.query.Instance(i)[d];
      EXPECT_EQ(std::memcmp(&c_in, &c_out, sizeof(double)), 0)
          << "instance " << i << " dim " << d;
    }
  }
}

TEST(ProtocolTest, SubmitByObjectIdRoundTrips) {
  SubmitParams params;
  params.id = 7;
  params.object_id = 123;
  const JsonValue msg = MustParse(BuildSubmitMessage(params));
  SubmitRequest req;
  std::string error;
  ASSERT_TRUE(ParseSubmit(msg, &req, &error)) << error;
  EXPECT_FALSE(req.inline_query);
  EXPECT_EQ(req.object_id, 123);
  // Self-exclusion is NOT resolved at parse time: exclude_id is a
  // per-snapshot index, which the engine resolves against the snapshot it
  // pins for the query (object_id is a fold-stable external id).
  EXPECT_EQ(req.options.exclude_id, -1);
  EXPECT_TRUE(req.stream);
}

TEST(ProtocolTest, SubmitParsesEveryFilterPresetAndAlias) {
  // The Fig. 16 names with an L keep parsing, as the presets they equal
  // now that no operator has a level-by-level stage.
  auto parse = [](const char* name, SubmitRequest* req, std::string* error) {
    SubmitParams params;
    params.object_id = 1;
    params.filters = name;
    return ParseSubmit(MustParse(BuildSubmitMessage(params)), req, error);
  };
  const struct {
    const char* name;
    FilterConfig expected;
  } kCases[] = {
      {"all", FilterConfig::All()}, {"bf", FilterConfig::BruteForce()},
      {"p", FilterConfig::P()},     {"g", FilterConfig::G()},
      {"gp", FilterConfig::GP()},   {"l", FilterConfig::BruteForce()},
      {"lp", FilterConfig::P()},    {"lg", FilterConfig::G()},
      {"lgp", FilterConfig::GP()},
  };
  for (const auto& c : kCases) {
    SubmitRequest req;
    std::string error;
    ASSERT_TRUE(parse(c.name, &req, &error)) << c.name << ": " << error;
    EXPECT_EQ(req.options.filters, c.expected) << c.name;
  }
  SubmitRequest req;
  std::string error;
  EXPECT_FALSE(parse("lgpx", &req, &error));
  EXPECT_EQ(error, "submit.filters must be one of all|bf|p|g|gp|l|lp|lg|lgp");
}

TEST(ProtocolTest, ObjectIdsWiderThanIntAreRejectedNotTruncated) {
  // Regression (review): ids land in int fields; 2^32 used to truncate to
  // 0 and silently address a different object. The bound is INT_MAX.
  {
    const JsonValue msg = MustParse(
        R"({"type":"submit","id":1,"query":{"object_id":4294967296}})");
    SubmitRequest req;
    std::string error;
    EXPECT_FALSE(ParseSubmit(msg, &req, &error));
    EXPECT_NE(error.find("object_id"), std::string::npos) << error;
  }
  {
    const JsonValue msg = MustParse(
        R"({"type":"submit","id":1,"query":{"object_id":2147483647}})");
    SubmitRequest req;
    std::string error;
    EXPECT_TRUE(ParseSubmit(msg, &req, &error)) << error;
    EXPECT_EQ(req.object_id, 2147483647);
  }
}

TEST(ProtocolTest, CancelRoundTrips) {
  const JsonValue msg = MustParse(BuildCancelMessage(9));
  EXPECT_EQ(MessageType(msg), "cancel");
  CancelRequest req;
  std::string error;
  ASSERT_TRUE(ParseCancel(msg, &req, &error)) << error;
  EXPECT_EQ(req.id, 9);
}

TEST(ProtocolTest, TenantNamesAreLockedDown) {
  EXPECT_TRUE(ValidTenantName("default"));
  EXPECT_TRUE(ValidTenantName("mobile-app_1"));
  EXPECT_FALSE(ValidTenantName(""));
  EXPECT_FALSE(ValidTenantName(std::string(65, 'a')));
  EXPECT_TRUE(ValidTenantName(std::string(64, 'a')));
  // Prometheus label / JSON injection attempts.
  EXPECT_FALSE(ValidTenantName("a\"b"));
  EXPECT_FALSE(ValidTenantName("a{b}"));
  EXPECT_FALSE(ValidTenantName("a b"));
  EXPECT_FALSE(ValidTenantName("a\nb"));
}

TEST(ProtocolTest, ErrorAndEventBuildersEmitValidJson) {
  const JsonValue err =
      MustParse(BuildErrorMessage(3, kErrBadRequest, "bad \"quote\""));
  EXPECT_EQ(MessageType(err), "error");
  EXPECT_EQ(err.Find("code")->AsString(), "bad_request");
  EXPECT_EQ(err.Find("message")->AsString(), "bad \"quote\"");

  const JsonValue cand = MustParse(BuildCandidateMessage(3, 17, 2, 99, 0.25));
  EXPECT_EQ(MessageType(cand), "candidate");
  EXPECT_EQ(cand.Find("seq")->AsNumber(), 17.0);
  EXPECT_EQ(cand.Find("attempt")->AsNumber(), 2.0);
  EXPECT_EQ(cand.Find("object_id")->AsNumber(), 99.0);
  EXPECT_DOUBLE_EQ(cand.Find("elapsed_ms")->AsNumber(), 250.0);

  EXPECT_EQ(MessageType(MustParse(BuildHelloOkMessage(10, 2, 0, "t"))),
            "hello_ok");
  EXPECT_EQ(MessageType(MustParse(BuildCancelOkMessage(3, true))),
            "cancel_ok");
  EXPECT_EQ(MessageType(MustParse(BuildDrainOkMessage(4))), "drain_ok");
  EXPECT_EQ(MessageType(MustParse(BuildMetricsOkMessage("# HELP x\n"))),
            "metrics_ok");
}

TEST(ProtocolTest, MutateRoundTripsThroughParseAndBuilders) {
  std::vector<MutateOp> ops(3);
  ops[0] = {"insert", 9001, {{1.0, 2.0, 0.5}, {3.0, 4.0, 1.5}}};
  ops[1] = {"update", 9001, {{5.0, 6.0, 1.0}}};
  ops[2] = {"delete", 7, {}};
  const JsonValue msg = MustParse(BuildMutateMessage(4, ops));
  EXPECT_EQ(MessageType(msg), "mutate");

  MutateRequest req;
  std::string error;
  ASSERT_TRUE(ParseMutate(msg, &req, &error)) << error;
  EXPECT_EQ(req.id, 4);
  ASSERT_EQ(req.ops.size(), 3u);
  EXPECT_EQ(req.ops[0].kind, Mutation::Kind::kInsert);
  EXPECT_EQ(req.ops[0].id, 9001);
  ASSERT_NE(req.ops[0].object, nullptr);
  EXPECT_EQ(req.ops[0].object->id(), 9001);
  EXPECT_EQ(req.ops[0].object->dim(), 2);
  EXPECT_EQ(req.ops[0].object->num_instances(), 2);
  EXPECT_DOUBLE_EQ(req.ops[0].object->Prob(0), 0.25);  // weights 0.5 / 1.5
  EXPECT_EQ(req.ops[1].kind, Mutation::Kind::kUpdate);
  EXPECT_EQ(req.ops[2].kind, Mutation::Kind::kDelete);
  EXPECT_EQ(req.ops[2].id, 7);
  EXPECT_EQ(req.ops[2].object, nullptr);

  const JsonValue ok = MustParse(BuildMutateOkMessage(4, 17, 3, 42));
  EXPECT_EQ(MessageType(ok), "mutate_ok");
  EXPECT_EQ(ok.Find("id")->AsNumber(), 4.0);
  EXPECT_EQ(ok.Find("epoch")->AsNumber(), 17.0);
  EXPECT_EQ(ok.Find("applied")->AsNumber(), 3.0);
  ASSERT_NE(ok.Find("seq"), nullptr);
  EXPECT_EQ(ok.Find("seq")->AsNumber(), 42.0);
}

TEST(ProtocolTest, MutateRejectsHostileFramesWithPreciseErrors) {
  // Every entry must parse as JSON (the framing layer already vetted
  // that) and then fail ParseMutate with an error — never an abort. The
  // 10-wide and 33-wide rows pin the dim regression: the submit path once
  // accepted dims up to 32 on the wire while Point::kMaxDim is 8, so a
  // row in the 9..32 gap aborted the server inside the object
  // constructor.
  const char* kHostile[] = {
      R"({"type":"mutate"})",
      R"({"type":"mutate","id":-1,"ops":[{"action":"delete","object_id":1}]})",
      R"({"type":"mutate","id":1})",
      R"({"type":"mutate","id":1,"ops":{}})",
      R"({"type":"mutate","id":1,"ops":[]})",
      R"({"type":"mutate","id":1,"ops":[42]})",
      R"({"type":"mutate","id":1,"surprise":0,"ops":[{"action":"delete","object_id":1}]})",
      R"({"type":"mutate","id":1,"ops":[{"object_id":1}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"upsert","object_id":1}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"delete"}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"delete","object_id":-3}]})",
      // 2^32: wider than int — must be rejected, not truncated to id 0.
      R"({"type":"mutate","id":1,"ops":[{"action":"delete","object_id":4294967296}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"delete","object_id":1,"instances":[[1,2,1]]}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1,"instances":7}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1,"instances":[]}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1,"instances":[7]}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1,"instances":[[1.0]]}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1,"instances":[[1.0,"x",1.0]]}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1,"instances":[[1.0,2.0,0.0]]}]})",
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1,"instances":[[1.0,2.0,1.0],[1.0,2.0,3.0,1.0]]}]})",
      // dim 9: one past Point::kMaxDim.
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1,"instances":[[1,2,3,4,5,6,7,8,9,1]]}]})",
      // dim 32: the top of the old wire gap.
      R"({"type":"mutate","id":1,"ops":[{"action":"insert","object_id":1,"instances":[[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,1]]}]})",
  };
  for (const char* text : kHostile) {
    SCOPED_TRACE(text);
    const JsonValue msg = MustParse(text);
    MutateRequest req;
    std::string error;
    EXPECT_FALSE(ParseMutate(msg, &req, &error));
    EXPECT_FALSE(error.empty());
  }

  // One over the protocol-wide ops cap.
  std::string big = R"({"type":"mutate","id":1,"ops":[)";
  for (int i = 0; i <= kMaxMutationOps; ++i) {
    if (i > 0) big += ',';
    big += R"({"action":"delete","object_id":)" + std::to_string(i) + "}";
  }
  big += "]}";
  MutateRequest req;
  std::string error;
  EXPECT_FALSE(ParseMutate(MustParse(big), &req, &error));
  EXPECT_NE(error.find("cap"), std::string::npos) << error;
}

}  // namespace
}  // namespace net
}  // namespace osd
