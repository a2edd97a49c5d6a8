#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace dear {
namespace {

TEST(TraceTest, EmptyRecorderEmitsEmptyArray) {
  TraceRecorder rec;
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.ToJson(), "[\n]\n");
}

TEST(TraceTest, RecordsCompleteEvents) {
  TraceRecorder rec;
  rec.Record({"ff_0", "compute", 0, 0, Microseconds(10), Microseconds(5)});
  ASSERT_EQ(rec.size(), 1u);
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"name\":\"ff_0\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5.000"), std::string::npos);
}

TEST(TraceTest, EscapesSpecialCharacters) {
  TraceRecorder rec;
  rec.Record({"a\"b\\c\nd", "cat", 0, 0, 0, 0});
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(TraceTest, EscapesControlCharactersAsUnicode) {
  // Hostile names (tabs, carriage returns, bells, NULs embedded via
  // std::string) must not produce invalid JSON.
  TraceRecorder rec;
  rec.Record({std::string("t\ta\rb\bc\fd\x01" "e\x1f") + std::string(1, '\0'),
              "c\x02" "t", 0, 0, 0, 0});
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("t\\ta\\rb\\bc\\fd\\u0001e\\u001f\\u0000"),
            std::string::npos);
  EXPECT_NE(json.find("c\\u0002t"), std::string::npos);
  // No raw control character may survive into the serialized output.
  for (char c : json)
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control char " << static_cast<int>(c);
}

TEST(TraceTest, WriteFileRoundTrips) {
  TraceRecorder rec;
  rec.Record({"x", "y", 1, 2, Microseconds(3), Microseconds(4)});
  const std::string path = ::testing::TempDir() + "/trace_test.json";
  ASSERT_TRUE(rec.WriteFile(path));
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, rec.ToJson());
  std::remove(path.c_str());
}

TEST(TraceTest, WriteFileFailsOnBadPath) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.WriteFile("/nonexistent_dir_zzz/trace.json"));
}

TEST(TraceTest, MetadataEventsNameProcessesAndThreads) {
  TraceRecorder rec;
  rec.SetProcessName(0, "rank 0");
  rec.SetThreadName(0, 1, "comm");
  rec.Record({"step", "compute", 0, 1, Microseconds(1), Microseconds(2)});
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"rank 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"comm\"}"), std::string::npos);
  // Metadata must precede the slices so viewers name lanes up front.
  EXPECT_LT(json.find("process_name"), json.find("\"step\""));
}

TEST(TraceTest, MetadataOnlyTraceIsValidJson) {
  // Regression: metadata with zero events must not leave a trailing comma.
  TraceRecorder rec;
  rec.SetProcessName(3, "rank 3");
  const std::string json = rec.ToJson();
  EXPECT_EQ(json.find(",\n]"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"rank 3\""), std::string::npos);
}

TEST(TraceTest, FlowEventsEmitBindAndCompanionPair) {
  TraceRecorder rec;
  TraceEvent send{"send", "messages", 0, 1, Microseconds(1), Microseconds(1)};
  send.flow_id = 0x2A;
  send.flow_out = true;
  TraceEvent recv{"recv", "messages", 1, 1, Microseconds(5), Microseconds(1)};
  recv.flow_id = 0x2A;
  recv.flow_in = true;
  rec.Record(send);
  rec.Record(recv);
  const std::string json = rec.ToJson();
  // The slices carry the binding; the companion "s"/"f" pair draws the
  // arrow. All three spellings of the ID must agree.
  EXPECT_NE(json.find("\"bind_id\":\"0x2a\""), std::string::npos);
  EXPECT_NE(json.find("\"flow_out\":true"), std::string::npos);
  EXPECT_NE(json.find("\"flow_in\":true"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x2a\""), std::string::npos);
}

TEST(TraceTest, EventsWithoutFlowIdsEmitNoFlowKeys) {
  TraceRecorder rec;
  rec.Record({"plain", "cat", 0, 0, 0, 0});
  const std::string json = rec.ToJson();
  EXPECT_EQ(json.find("bind_id"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST(SimTimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(Microseconds(1.0), 1000);
  EXPECT_EQ(Milliseconds(1.0), 1000000);
  EXPECT_EQ(Seconds(1.0), 1000000000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(4.5)), 4.5);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(7.25)), 7.25);
}

TEST(SimTimeTest, RoundsToNearestNanosecond) {
  EXPECT_EQ(Nanoseconds(1.4), 1);
  EXPECT_EQ(Nanoseconds(1.6), 2);
  EXPECT_EQ(Nanoseconds(-1.6), -2);
}

}  // namespace
}  // namespace dear
