#include "onoff/message_bus.h"

#include <gtest/gtest.h>

#include "sim/scheduler.h"
#include "sim/transport.h"

namespace onoff::core {
namespace {

Address Addr(uint8_t tag) {
  std::array<uint8_t, 20> raw{};
  raw[19] = tag;
  return Address(raw);
}

TEST(MessageBusTest, SendReceive) {
  MessageBus bus;
  bus.Send({Addr(1), Addr(2), "topic", BytesOf("hello")});
  EXPECT_EQ(bus.PendingFor(Addr(2)), 1u);
  auto msg = bus.Receive(Addr(2), "topic");
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->from, Addr(1));
  EXPECT_EQ(msg->payload, BytesOf("hello"));
  EXPECT_EQ(bus.PendingFor(Addr(2)), 0u);
  EXPECT_FALSE(bus.Receive(Addr(2), "topic").ok());
}

TEST(MessageBusTest, TopicsAreIndependent) {
  MessageBus bus;
  bus.Send({Addr(1), Addr(2), "a", BytesOf("A")});
  bus.Send({Addr(1), Addr(2), "b", BytesOf("B")});
  auto b = bus.Receive(Addr(2), "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->payload, BytesOf("B"));
  auto a = bus.Receive(Addr(2), "a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->payload, BytesOf("A"));
}

TEST(MessageBusTest, FifoPerTopic) {
  MessageBus bus;
  bus.Send({Addr(1), Addr(2), "t", BytesOf("first")});
  bus.Send({Addr(1), Addr(2), "t", BytesOf("second")});
  EXPECT_EQ(bus.Receive(Addr(2), "t")->payload, BytesOf("first"));
  EXPECT_EQ(bus.Receive(Addr(2), "t")->payload, BytesOf("second"));
}

TEST(MessageBusTest, BroadcastSkipsSender) {
  MessageBus bus;
  bus.Broadcast(Addr(1), {Addr(1), Addr(2), Addr(3)}, "t", BytesOf("x"));
  EXPECT_EQ(bus.PendingFor(Addr(1)), 0u);
  EXPECT_EQ(bus.PendingFor(Addr(2)), 1u);
  EXPECT_EQ(bus.PendingFor(Addr(3)), 1u);
  EXPECT_EQ(bus.messages_sent(), 2u);
  EXPECT_EQ(bus.bytes_sent(), 2u);
}

TEST(MessageBusTest, DropHook) {
  MessageBus bus;
  bus.set_drop_hook([](const Message& m) { return m.to == Addr(2); });
  bus.Send({Addr(1), Addr(2), "t", BytesOf("lost")});
  bus.Send({Addr(1), Addr(3), "t", BytesOf("kept")});
  EXPECT_EQ(bus.PendingFor(Addr(2)), 0u);
  EXPECT_EQ(bus.PendingFor(Addr(3)), 1u);
  // Dropped messages still count as sent (sender-side accounting).
  EXPECT_EQ(bus.messages_sent(), 2u);
  EXPECT_EQ(bus.messages_dropped(), 1u);
  EXPECT_EQ(bus.bytes_dropped(), BytesOf("lost").size());
}

TEST(MessageBusTest, TamperHook) {
  MessageBus bus;
  bus.set_tamper_hook([](Message& m) { m.payload = BytesOf("evil"); });
  bus.Send({Addr(1), Addr(2), "t", BytesOf("good")});
  EXPECT_EQ(bus.Receive(Addr(2), "t")->payload, BytesOf("evil"));
  EXPECT_EQ(bus.messages_tampered(), 1u);
  EXPECT_EQ(bus.messages_dropped(), 0u);
}

TEST(MessageBusTest, AccountingStartsAtZero) {
  MessageBus bus;
  EXPECT_EQ(bus.messages_dropped(), 0u);
  EXPECT_EQ(bus.bytes_dropped(), 0u);
  EXPECT_EQ(bus.messages_tampered(), 0u);
}

TEST(MessageBusTest, TransportDefersDelivery) {
  sim::Scheduler sched;
  sim::SimTransport transport(&sched, 1);
  sim::LinkConfig cfg;
  cfg.latency_ms = 30;
  transport.SetDefaultLink(cfg);
  MessageBus bus;
  bus.SetTransport(&transport);
  bus.Send({Addr(1), Addr(2), "t", BytesOf("later")});
  EXPECT_EQ(bus.PendingFor(Addr(2)), 0u);  // still on the wire
  sched.RunAll();
  EXPECT_EQ(sched.NowMs(), 30u);
  EXPECT_EQ(bus.PendingFor(Addr(2)), 1u);
  EXPECT_EQ(bus.Receive(Addr(2), "t")->payload, BytesOf("later"));
}

TEST(MessageBusTest, TransportSendTimeRejectionCountsAsDropped) {
  sim::Scheduler sched;
  sim::SimTransport transport(&sched, 1);
  sim::LinkConfig cfg;
  cfg.loss = 1.0;
  transport.SetDefaultLink(cfg);
  MessageBus bus;
  bus.SetTransport(&transport);
  bus.Send({Addr(1), Addr(2), "t", BytesOf("gone")});
  sched.RunAll();
  EXPECT_EQ(bus.PendingFor(Addr(2)), 0u);
  EXPECT_EQ(bus.messages_sent(), 1u);
  EXPECT_EQ(bus.messages_dropped(), 1u);
  EXPECT_EQ(bus.bytes_dropped(), BytesOf("gone").size());
}

}  // namespace
}  // namespace onoff::core
