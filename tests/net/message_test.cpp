#include "net/message.hpp"

#include <gtest/gtest.h>

namespace dam::net {
namespace {

Message sample_event() {
  Message msg;
  msg.kind = MsgKind::kEvent;
  msg.from = ProcessId{3};
  msg.to = ProcessId{9};
  msg.sent_at = 42;
  msg.topic = TopicId{2};
  msg.event = EventId{ProcessId{3}, 17};
  msg.intergroup = true;
  return msg;
}

TEST(MessageCodec, EventPayloadRoundTrip) {
  Message msg = sample_event();
  msg.payload = {0x00, 0x01, 0xFE, 0xFF, 0x42};
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, msg.payload);
  EXPECT_EQ(*decoded, msg);
  EXPECT_EQ(encoded_size(msg), encode(msg).size());
}

TEST(MessageCodec, EmptyPayloadRoundTrip) {
  const Message msg = sample_event();
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(MessageCodec, TruncatedPayloadRejected) {
  Message msg = sample_event();
  msg.payload.assign(32, 0xAB);
  auto bytes = encode(msg);
  bytes.resize(bytes.size() - 5);  // cut into the payload
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(MessageCodec, EventRoundTrip) {
  const Message original = sample_event();
  const auto bytes = encode(original);
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(MessageCodec, ReqContactRoundTrip) {
  Message msg;
  msg.kind = MsgKind::kReqContact;
  msg.from = ProcessId{1};
  msg.to = ProcessId{2};
  msg.sent_at = 5;
  msg.origin = ProcessId{1};
  msg.request_id = 7;
  msg.ttl = 3;
  msg.init_msg = {TopicId{4}, TopicId{2}, TopicId{0}};
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(MessageCodec, AnsContactRoundTrip) {
  Message msg;
  msg.kind = MsgKind::kAnsContact;
  msg.from = ProcessId{8};
  msg.to = ProcessId{1};
  msg.answer_topic = TopicId{4};
  msg.processes = {ProcessId{8}, ProcessId{12}, ProcessId{30}};
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(MessageCodec, NewProcessAskRoundTrip) {
  Message msg;
  msg.kind = MsgKind::kNewProcessAsk;
  msg.from = ProcessId{5};
  msg.to = ProcessId{6};
  msg.sent_at = 100;
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(MessageCodec, MembershipWithPiggybackRoundTrip) {
  Message msg;
  msg.kind = MsgKind::kMembership;
  msg.from = ProcessId{2};
  msg.to = ProcessId{3};
  msg.answer_topic = TopicId{6};
  msg.processes = {ProcessId{1}, ProcessId{4}};
  msg.piggyback_topic = TopicId{5};
  msg.piggyback_super_table = {ProcessId{40}, ProcessId{41}};
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(MessageCodec, MembershipWithoutPiggybackRoundTrip) {
  Message msg;
  msg.kind = MsgKind::kMembership;
  msg.from = ProcessId{2};
  msg.to = ProcessId{3};
  msg.answer_topic = TopicId{6};
  msg.processes = {ProcessId{1}};
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->piggyback_topic.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(MessageCodec, EmptyListsRoundTrip) {
  Message msg;
  msg.kind = MsgKind::kReqContact;
  msg.init_msg = {};
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->init_msg.empty());
}

TEST(MessageCodec, EncodedSizeMatchesActual) {
  for (const Message& msg : {sample_event(), [] {
         Message m;
         m.kind = MsgKind::kMembership;
         m.processes = {ProcessId{1}, ProcessId{2}, ProcessId{3}};
         m.piggyback_topic = TopicId{1};
         m.piggyback_super_table = {ProcessId{9}};
         return m;
       }()}) {
    EXPECT_EQ(encoded_size(msg), encode(msg).size());
  }
}

TEST(MessageCodec, RejectsTruncatedInput) {
  const auto bytes = encode(sample_event());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_FALSE(decode(prefix).has_value()) << "prefix length " << cut;
  }
}

TEST(MessageCodec, RejectsTrailingGarbage) {
  auto bytes = encode(sample_event());
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(MessageCodec, RejectsBadKind) {
  auto bytes = encode(sample_event());
  bytes[0] = 0;
  EXPECT_FALSE(decode(bytes).has_value());
  bytes[0] = 77;
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(MessageCodec, RejectsOversizedLengthField) {
  // Craft a REQCONTACT whose topic-list length claims more than remains.
  Message msg;
  msg.kind = MsgKind::kReqContact;
  msg.init_msg = {TopicId{1}};
  auto bytes = encode(msg);
  // Length field of init_msg sits after kind(1)+from(4)+to(4)+sent_at(8)
  // +origin(4)+request_id(4)+ttl(4) = byte 29.
  bytes[29] = 0xFF;
  bytes[30] = 0xFF;
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(EventId, OrderingAndHash) {
  const EventId a{ProcessId{1}, 5};
  const EventId b{ProcessId{1}, 5};
  const EventId c{ProcessId{1}, 6};
  const EventId d{ProcessId{2}, 0};
  EXPECT_EQ(a, b);
  EXPECT_LT(a, c);
  EXPECT_LT(c, d);
  EXPECT_EQ(std::hash<EventId>{}(a), std::hash<EventId>{}(b));
  EXPECT_NE(std::hash<EventId>{}(a), std::hash<EventId>{}(c));
}

TEST(Describe, EventMessage) {
  Message msg = sample_event();
  msg.payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(describe(msg), "EVENT 3->9 topic=2 event=3#17 inter payload=5B");
}

TEST(Describe, ReqContact) {
  Message msg;
  msg.kind = MsgKind::kReqContact;
  msg.from = ProcessId{1};
  msg.to = ProcessId{2};
  msg.origin = ProcessId{1};
  msg.request_id = 4;
  msg.ttl = 3;
  msg.init_msg = {TopicId{7}, TopicId{0}};
  EXPECT_EQ(describe(msg), "REQCONTACT 1->2 origin=1 req=4 ttl=3 topics=[7,0]");
}

TEST(Describe, MembershipWithDigestAndPiggyback) {
  Message msg;
  msg.kind = MsgKind::kMembership;
  msg.from = ProcessId{5};
  msg.to = ProcessId{6};
  msg.answer_topic = TopicId{2};
  msg.processes = {ProcessId{1}, ProcessId{2}, ProcessId{3}};
  msg.piggyback_topic = TopicId{1};
  msg.piggyback_super_table = {ProcessId{9}};
  msg.event_ids = {EventId{ProcessId{5}, 0}, EventId{ProcessId{5}, 1}};
  EXPECT_EQ(describe(msg),
            "MEMBERSHIP 5->6 topic=2 view=3 super(1)=1 digest=2");
}

TEST(Describe, EventRequest) {
  Message msg;
  msg.kind = MsgKind::kEventRequest;
  msg.from = ProcessId{7};
  msg.to = ProcessId{8};
  msg.event_ids = {EventId{ProcessId{1}, 2}};
  EXPECT_EQ(describe(msg), "EVENTREQ 7->8 wanted=1");
}

TEST(MessageCodec, EventRequestRoundTrip) {
  Message msg;
  msg.kind = MsgKind::kEventRequest;
  msg.from = ProcessId{7};
  msg.to = ProcessId{8};
  msg.event_ids = {EventId{ProcessId{1}, 2}, EventId{ProcessId{3}, 4}};
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
  EXPECT_EQ(encoded_size(msg), encode(msg).size());
}

TEST(MessageCodec, MembershipDigestRoundTrip) {
  Message msg;
  msg.kind = MsgKind::kMembership;
  msg.from = ProcessId{2};
  msg.to = ProcessId{3};
  msg.answer_topic = TopicId{6};
  msg.processes = {ProcessId{1}};
  msg.event_ids = {EventId{ProcessId{2}, 11}, EventId{ProcessId{4}, 0}};
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
  EXPECT_EQ(encoded_size(msg), encode(msg).size());
}

TEST(MsgKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(MsgKind::kEvent), "EVENT");
  EXPECT_STREQ(to_string(MsgKind::kReqContact), "REQCONTACT");
  EXPECT_STREQ(to_string(MsgKind::kAnsContact), "ANSCONTACT");
  EXPECT_STREQ(to_string(MsgKind::kNewProcessAsk), "NEWPROCESS?");
  EXPECT_STREQ(to_string(MsgKind::kNewProcessGive), "NEWPROCESS!");
  EXPECT_STREQ(to_string(MsgKind::kMembership), "MEMBERSHIP");
  EXPECT_STREQ(to_string(MsgKind::kEventRequest), "EVENTREQ");
}

TEST(MessageReset, RestoresEveryDefaultAndKeepsCapacity) {
  Message msg;
  msg.kind = MsgKind::kMembership;
  msg.from = ProcessId{1};
  msg.to = ProcessId{2};
  msg.sent_at = 9;
  msg.topic = TopicId{3};
  msg.event = EventId{ProcessId{4}, 5};
  msg.intergroup = true;
  msg.payload = {1, 2, 3};
  msg.origin = ProcessId{6};
  msg.request_id = 7;
  msg.init_msg = {TopicId{1}, TopicId{2}};
  msg.ttl = 8;
  msg.answer_topic = TopicId{9};
  msg.processes = {ProcessId{1}, ProcessId{2}};
  msg.piggyback_topic = TopicId{4};
  msg.piggyback_super_table = {ProcessId{3}};
  msg.event_ids = {EventId{ProcessId{2}, 11}};
  msg.reset();
  // operator== compares every field, so a field reset() forgets fails here.
  EXPECT_EQ(msg, Message{});
  EXPECT_GE(msg.payload.capacity(), 3u);
  EXPECT_GE(msg.processes.capacity(), 2u);
}

}  // namespace
}  // namespace dam::net
