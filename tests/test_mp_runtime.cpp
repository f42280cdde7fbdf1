#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "mp/cart.hpp"
#include "mp/comm.hpp"
#include "mp/indexed.hpp"
#include "mp/world.hpp"

namespace hdem::mp {
namespace {

TEST(Mailbox, FifoPerSourceAndTag) {
  Mailbox box;
  for (int i = 0; i < 5; ++i) {
    RawMessage m;
    m.src = 1;
    m.tag = 7;
    m.payload.assign(1, static_cast<std::byte>(i));
    box.push(std::move(m));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(static_cast<int>(box.pop(1, 7).payload[0]), i);
  }
}

TEST(Mailbox, MatchesBySourceAndTag) {
  Mailbox box;
  RawMessage a{1, 5, {static_cast<std::byte>(0xaa)}};
  RawMessage b{2, 5, {static_cast<std::byte>(0xbb)}};
  RawMessage c{1, 6, {static_cast<std::byte>(0xcc)}};
  box.push(std::move(a));
  box.push(std::move(b));
  box.push(std::move(c));
  EXPECT_EQ(box.pop(1, 6).payload[0], static_cast<std::byte>(0xcc));
  EXPECT_EQ(box.pop(2, 5).payload[0], static_cast<std::byte>(0xbb));
  EXPECT_EQ(box.pop(1, 5).payload[0], static_cast<std::byte>(0xaa));
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Run, RanksSeeCorrectIdentity) {
  std::vector<int> ranks(6, -1);
  run(6, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 6);
    ranks[static_cast<std::size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 6; ++r) EXPECT_EQ(ranks[static_cast<std::size_t>(r)], r);
}

TEST(Run, PropagatesExceptions) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 1) throw std::runtime_error("boom");
                     // rank 0 does not block on anything
                   }),
               std::runtime_error);
}

TEST(PointToPoint, TypedRoundTrip) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data = {1.5, -2.5, 3.0};
      comm.send<double>(1, 42, data);
    } else {
      const auto got = comm.recv<double>(0, 42);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[1], -2.5);
    }
  });
}

TEST(PointToPoint, EmptyMessage) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, std::vector<int>{});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 1).empty());
    }
  });
}

TEST(PointToPoint, EmptyMessageIrecv) {
  // An empty payload into an empty (null) buffer completes with 0 bytes.
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, std::vector<int>{});
    } else {
      std::vector<int> buf;
      Request req = comm.irecv<int>(0, 1, buf);
      comm.wait(req);
      EXPECT_TRUE(req.done());
      EXPECT_EQ(req.bytes(), 0u);
    }
  });
}

TEST(PointToPoint, SendRecvRingDoesNotDeadlock) {
  constexpr int kRanks = 5;
  run(kRanks, [](Comm& comm) {
    const int next = (comm.rank() + 1) % kRanks;
    const int prev = (comm.rank() + kRanks - 1) % kRanks;
    const std::vector<int> mine = {comm.rank()};
    const auto got = comm.sendrecv<int>(next, 9, mine, prev, 9);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], prev);
  });
}

TEST(PointToPoint, RecvIntoSpan) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 3, std::vector<int>{7, 8});
    } else {
      std::vector<int> buf(10, 0);
      const std::size_t n = comm.recv_into<int>(0, 3, buf);
      EXPECT_EQ(n, 2u);
      EXPECT_EQ(buf[1], 8);
    }
  });
}

TEST(Collectives, AllreduceSumMinMax) {
  run(4, [](Comm& comm) {
    const double v = comm.rank() + 1.0;  // 1..4
    EXPECT_DOUBLE_EQ(comm.allreduce(v, Op::kSum), 10.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(v, Op::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(v, Op::kMax), 4.0);
  });
}

TEST(Collectives, AllreduceSingleRank) {
  run(1, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce(3.5, Op::kSum), 3.5);
  });
}

TEST(Collectives, AllreduceIsDeterministic) {
  // Summation is in rank order at the root: all ranks must see exactly the
  // same bits.
  std::vector<double> results(3);
  run(3, [&](Comm& comm) {
    const double v = 0.1 * (comm.rank() + 1);
    results[static_cast<std::size_t>(comm.rank())] = comm.allreduce(v, Op::kSum);
  });
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

TEST(Collectives, Allgatherv) {
  run(3, [](Comm& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1,
                          comm.rank());
    const auto all = comm.allgatherv<int>(mine);
    ASSERT_EQ(all.size(), 6u);  // 1 + 2 + 3
    EXPECT_EQ(all[0], 0);
    EXPECT_EQ(all[1], 1);
    EXPECT_EQ(all[3], 2);
  });
}

TEST(Collectives, GathervRootOnly) {
  run(3, [](Comm& comm) {
    const std::vector<int> mine = {comm.rank() * 10};
    const auto all = comm.gatherv<int>(mine, 1);
    if (comm.rank() == 1) {
      ASSERT_EQ(all.size(), 3u);
      EXPECT_EQ(all[2], 20);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Collectives, Bcast) {
  run(4, [](Comm& comm) {
    std::vector<int> data;
    if (comm.rank() == 2) data = {5, 6, 7};
    data = comm.bcast(std::move(data), 2);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[2], 7);
  });
}

TEST(Collectives, Barrier) {
  std::atomic<int> phase1{0};
  run(4, [&](Comm& comm) {
    phase1++;
    comm.barrier();
    EXPECT_EQ(phase1.load(), 4);
  });
}

TEST(Collectives, AlltoallPersonalised) {
  constexpr int kRanks = 4;
  run(kRanks, [](Comm& comm) {
    std::vector<std::vector<std::byte>> send(kRanks);
    for (int d = 0; d < kRanks; ++d) {
      send[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(comm.rank() + 1),
          static_cast<std::byte>(10 * comm.rank() + d));
    }
    const auto got = comm.alltoall(std::move(send));
    for (int s = 0; s < kRanks; ++s) {
      const auto& buf = got[static_cast<std::size_t>(s)];
      ASSERT_EQ(buf.size(), static_cast<std::size_t>(s + 1));
      EXPECT_EQ(buf[0], static_cast<std::byte>(10 * s + comm.rank()));
    }
  });
}

TEST(PointToPoint, SelfSendDelivers) {
  run(2, [](Comm& comm) {
    const std::vector<int> mine = {comm.rank() * 7};
    comm.send<int>(comm.rank(), 5, mine);
    const auto got = comm.recv<int>(comm.rank(), 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], comm.rank() * 7);
  });
}

TEST(PointToPoint, RejectsOutOfRangeRank) {
  run(2, [](Comm& comm) {
    EXPECT_THROW(comm.send<int>(5, 0, std::vector<int>{1}),
                 std::out_of_range);
    EXPECT_THROW(comm.recv<int>(-1, 0), std::out_of_range);
  });
}

TEST(Counters, TrafficAccounting) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, 0, std::vector<double>(10, 1.0));
      EXPECT_EQ(comm.counters().msgs_sent, 1u);
      EXPECT_EQ(comm.counters().bytes_sent, 80u);
      EXPECT_EQ(comm.bytes_to()[1], 80u);
      EXPECT_EQ(comm.msgs_to()[1], 1u);
    } else {
      comm.recv<double>(0, 0);
      EXPECT_EQ(comm.counters().msgs_sent, 0u);
    }
  });
}

TEST(Stress, ManyInterleavedMessages) {
  constexpr int kRanks = 6;
  run(kRanks, [](Comm& comm) {
    // Everyone sends 50 tagged messages to everyone else, then receives
    // them in an unrelated order.
    for (int round = 0; round < 50; ++round) {
      for (int dst = 0; dst < kRanks; ++dst) {
        if (dst == comm.rank()) continue;
        const std::vector<int> payload = {comm.rank(), dst, round};
        comm.send<int>(dst, round, payload);
      }
    }
    for (int round = 49; round >= 0; --round) {
      for (int src = kRanks - 1; src >= 0; --src) {
        if (src == comm.rank()) continue;
        const auto got = comm.recv<int>(src, round);
        ASSERT_EQ(got.size(), 3u);
        EXPECT_EQ(got[0], src);
        EXPECT_EQ(got[1], comm.rank());
        EXPECT_EQ(got[2], round);
      }
    }
  });
}

// ---- nonblocking point to point ---------------------------------------------

TEST(Nonblocking, IsendCompletesImmediately) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> data = {1, 2, 3};
      Request req = comm.isend<int>(1, 4, data);
      EXPECT_TRUE(req.done());
      EXPECT_FALSE(req.active());
      comm.wait(req);  // no-op on a completed request
    } else {
      EXPECT_EQ(comm.recv<int>(0, 4).size(), 3u);
    }
  });
}

TEST(Nonblocking, InactiveRequestIsComplete) {
  run(1, [](Comm& comm) {
    Request req;
    EXPECT_FALSE(req.active());
    EXPECT_TRUE(comm.test(req));
    comm.wait(req);  // must not block
    std::vector<Request> reqs(3);
    EXPECT_EQ(comm.wait_any(reqs), Comm::kNoRequest);
  });
}

TEST(Nonblocking, IrecvRoundTrip) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, 2, std::vector<double>{2.5, -7.0});
    } else {
      std::vector<double> buf(2, 0.0);
      Request req = comm.irecv<double>(0, 2, buf);
      comm.wait(req);
      EXPECT_EQ(req.bytes(), 2 * sizeof(double));
      EXPECT_DOUBLE_EQ(buf[0], 2.5);
      EXPECT_DOUBLE_EQ(buf[1], -7.0);
    }
  });
}

TEST(Nonblocking, IsendInterleavesFifoWithBlockingSend) {
  // Mixed isend / send traffic on one (src, tag) channel must arrive in
  // send-call order, and mixed irecv / recv must drain it in match order
  // (nonblocking calls share the blocking calls' channels).
  run(2, [](Comm& comm) {
    constexpr int kMsgs = 8;
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        const std::vector<int> payload = {i};
        if (i % 2 == 0) {
          comm.isend<int>(1, 3, payload);
        } else {
          comm.send<int>(1, 3, payload);
        }
      }
    } else {
      std::vector<std::vector<int>> bufs(kMsgs, std::vector<int>(1, -1));
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        if (i % 3 == 0) {
          // Blocking receive: must match the next message in FIFO order
          // even with nonblocking receives posted around it.
          bufs[static_cast<std::size_t>(i)][0] = comm.recv<int>(0, 3).at(0);
        } else {
          reqs.push_back(comm.irecv<int>(
              0, 3, std::span<int>(bufs[static_cast<std::size_t>(i)])));
        }
      }
      comm.wait_all(reqs);
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(bufs[static_cast<std::size_t>(i)][0], i) << "message " << i;
      }
    }
  });
}

TEST(Nonblocking, PostedOrderMatching) {
  // Two receives posted on the same channel complete in posting order, no
  // matter which one waits first (the MPI posted-receive rule).
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 0, std::vector<int>{100});
      comm.send<int>(1, 0, std::vector<int>{200});
    } else {
      std::vector<int> first(1, -1), second(1, -1);
      Request r1 = comm.irecv<int>(0, 0, first);
      Request r2 = comm.irecv<int>(0, 0, second);
      comm.wait(r2);  // out-of-order wait must not steal r1's message
      comm.wait(r1);
      EXPECT_EQ(first[0], 100);
      EXPECT_EQ(second[0], 200);
    }
  });
}

TEST(Nonblocking, WaitAnyDrainsEveryRequestExactlyOnce) {
  constexpr int kRanks = 5;
  run(kRanks, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Receives posted in source order; sources send in reverse order, so
      // completion order is driven by arrival, not index.
      std::vector<std::vector<int>> bufs(
          kRanks - 1, std::vector<int>(1, -1));
      std::vector<Request> reqs;
      for (int src = 1; src < kRanks; ++src) {
        reqs.push_back(comm.irecv<int>(
            src, 0, std::span<int>(bufs[static_cast<std::size_t>(src - 1)])));
      }
      std::vector<int> seen(kRanks - 1, 0);
      for (int i = 0; i < kRanks - 1; ++i) {
        const std::size_t idx = comm.wait_any(reqs);
        ASSERT_NE(idx, Comm::kNoRequest);
        ASSERT_LT(idx, reqs.size());
        EXPECT_TRUE(reqs[idx].done());
        ++seen[idx];
        EXPECT_EQ(bufs[idx][0], static_cast<int>(idx) + 1);
      }
      for (int i = 0; i < kRanks - 1; ++i) EXPECT_EQ(seen[i], 1);
      EXPECT_EQ(comm.wait_any(reqs), Comm::kNoRequest);
    } else {
      // Stagger sends in reverse rank order via rank-chained messages.
      if (comm.rank() < kRanks - 1) comm.recv<int>(comm.rank() + 1, 9);
      comm.send<int>(0, 0, std::vector<int>{comm.rank()});
      if (comm.rank() > 1) comm.send<int>(comm.rank() - 1, 9,
                                          std::vector<int>{1});
    }
  });
}

TEST(Nonblocking, TestObservesArrival) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> buf(1, -1);
      Request req = comm.irecv<int>(1, 0, buf);
      // Rank 1 has not reached the barrier, so nothing can have arrived.
      EXPECT_FALSE(comm.test(req));
      comm.barrier();
      comm.wait(req);
      EXPECT_EQ(buf[0], 77);
      EXPECT_TRUE(comm.test(req));
    } else {
      comm.barrier();
      comm.send<int>(0, 0, std::vector<int>{77});
    }
  });
}

TEST(Nonblocking, OverlapAccountingSplitsBytes) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, 0, std::vector<double>(5, 1.0));
      comm.barrier();
    } else {
      // The message is in the mailbox before the receive is posted, so the
      // wait finds it complete: all bytes count as overlapped.
      comm.barrier();
      std::vector<double> buf(5, 0.0);
      Request req = comm.irecv<double>(0, 0, buf);
      comm.wait(req);
      const Counters& c = comm.counters();
      EXPECT_EQ(c.irecvs_posted, 1u);
      EXPECT_EQ(c.bytes_overlapped, 40u);
      EXPECT_EQ(c.bytes_exposed, 0u);
      EXPECT_EQ(c.waits_blocked, 0u);
    }
  });
}

TEST(Nonblocking, AccountingCoversEveryReceivedByte) {
  // Whether a given wait turns out overlapped or exposed depends on thread
  // timing, but the two buckets must always partition the received bytes.
  run(2, [](Comm& comm) {
    constexpr int kMsgs = 20;
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        comm.isend<int>(1, i, std::vector<int>{i, i});
      }
    } else {
      std::vector<std::vector<int>> bufs(kMsgs, std::vector<int>(2, 0));
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        reqs.push_back(comm.irecv<int>(
            0, i, std::span<int>(bufs[static_cast<std::size_t>(i)])));
      }
      comm.wait_all(reqs);
      const Counters& c = comm.counters();
      EXPECT_EQ(c.irecvs_posted, static_cast<std::uint64_t>(kMsgs));
      EXPECT_EQ(c.bytes_overlapped + c.bytes_exposed,
                static_cast<std::uint64_t>(kMsgs) * 2 * sizeof(int));
    }
  });
}

TEST(Nonblocking, OversizedPayloadThrows) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 0, std::vector<int>{1, 2, 3});
      comm.barrier();
    } else {
      std::vector<int> buf(2, 0);  // too small for 3 ints
      comm.barrier();
      Request req = comm.irecv<int>(0, 0, buf);
      EXPECT_THROW(comm.wait(req), std::length_error);
    }
  });
}

TEST(Nonblocking, NoPendingMessagesAfterDrain) {
  run(3, [](Comm& comm) {
    const int next = (comm.rank() + 1) % 3;
    const int prev = (comm.rank() + 2) % 3;
    std::vector<int> buf(1, -1);
    Request req = comm.irecv<int>(prev, 0, buf);
    comm.isend<int>(next, 0, std::vector<int>{comm.rank()});
    comm.wait(req);
    EXPECT_EQ(buf[0], prev);
    comm.barrier();  // every rank done receiving before the leak check
    EXPECT_EQ(comm.pending(), 0u);
  });
}

TEST(Mailbox, PendingCountsUnclaimedTickets) {
  Mailbox box;
  auto ticket = box.post(0, 1);
  EXPECT_EQ(box.pending(), 0u);  // a posted receive is not a pending message
  RawMessage m;
  m.src = 0;
  m.tag = 1;
  m.payload.assign(4, std::byte{0});
  box.push(std::move(m));
  EXPECT_TRUE(box.ready(*ticket));
  EXPECT_EQ(box.pending(), 1u);  // fulfilled but unclaimed
  box.claim(*ticket);
  EXPECT_EQ(box.pending(), 0u);
}

// ---- Cartesian topology -----------------------------------------------------

TEST(Cart, RankCoordRoundTrip) {
  CartTopology<2> cart({3, 4}, {true, true});
  EXPECT_EQ(cart.nranks(), 12);
  for (int r = 0; r < 12; ++r) {
    EXPECT_EQ(cart.rank_of(cart.coords_of(r)), r);
  }
}

TEST(Cart, ShiftPeriodicWraps) {
  CartTopology<1> cart({4}, {true});
  EXPECT_EQ(cart.shift(0, 0, -1), 3);
  EXPECT_EQ(cart.shift(3, 0, +1), 0);
  EXPECT_EQ(cart.shift(1, 0, +2), 3);
}

TEST(Cart, ShiftNonPeriodicEdge) {
  CartTopology<1> cart({4}, {false});
  EXPECT_EQ(cart.shift(0, 0, -1), -1);
  EXPECT_EQ(cart.shift(3, 0, +1), -1);
  EXPECT_EQ(cart.shift(1, 0, +1), 2);
}

TEST(Cart, RowMajorLastDimensionFastest) {
  CartTopology<2> cart({2, 3}, {false, false});
  EXPECT_EQ(cart.rank_of({0, 0}), 0);
  EXPECT_EQ(cart.rank_of({0, 2}), 2);
  EXPECT_EQ(cart.rank_of({1, 0}), 3);
}

TEST(BalancedDims, Properties) {
  for (int n : {1, 2, 3, 4, 6, 8, 12, 16, 24, 36, 64, 17}) {
    const auto d2 = balanced_dims<2>(n);
    EXPECT_EQ(d2[0] * d2[1], n);
    EXPECT_GE(d2[0], d2[1]);
    const auto d3 = balanced_dims<3>(n);
    EXPECT_EQ(d3[0] * d3[1] * d3[2], n);
  }
  EXPECT_EQ((balanced_dims<2>(16)), (std::array<int, 2>{4, 4}));
  EXPECT_EQ((balanced_dims<3>(8)), (std::array<int, 3>{2, 2, 2}));
}

// ---- Indexed datatype ---------------------------------------------------------

TEST(IndexedType, PackGathers) {
  IndexedType t({3, 0, 2});
  const std::vector<double> base = {10.0, 11.0, 12.0, 13.0};
  const auto packed = t.pack(std::span<const double>(base));
  ASSERT_EQ(packed.size(), 3u);
  EXPECT_EQ(packed[0], 13.0);
  EXPECT_EQ(packed[1], 10.0);
  EXPECT_EQ(packed[2], 12.0);
}

TEST(IndexedType, UnpackScattersInverse) {
  IndexedType t({3, 0, 2});
  std::vector<double> base = {0.0, 0.0, 0.0, 0.0};
  const std::vector<double> in = {13.0, 10.0, 12.0};
  t.unpack(std::span<const double>(in), std::span<double>(base));
  EXPECT_EQ(base[3], 13.0);
  EXPECT_EQ(base[0], 10.0);
  EXPECT_EQ(base[2], 12.0);
  EXPECT_EQ(base[1], 0.0);
}

TEST(IndexedType, EmptyAndAdd) {
  IndexedType t;
  EXPECT_TRUE(t.empty());
  t.add(5);
  t.add(1);
  EXPECT_EQ(t.count(), 2u);
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(IndexedType, ReusableAcrossIterations) {
  // The same template must gather fresh values each time (the paper reuses
  // its MPI types for many iterations).
  IndexedType t({1, 2});
  std::vector<double> base = {0.0, 1.0, 2.0};
  auto p1 = t.pack(std::span<const double>(base));
  base[1] = 100.0;
  auto p2 = t.pack(std::span<const double>(base));
  EXPECT_EQ(p1[0], 1.0);
  EXPECT_EQ(p2[0], 100.0);
}

}  // namespace
}  // namespace hdem::mp
