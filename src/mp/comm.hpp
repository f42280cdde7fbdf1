// Message-passing substrate, part 2: the per-rank communicator.
//
// Mirrors the slice of MPI the paper's code uses: point-to-point send /
// recv / sendrecv with tags, nonblocking isend / irecv with test / wait /
// wait_any / wait_all, barrier, reductions, broadcast, gather, and an
// all-to-all used by particle migration.  All payloads are trivially
// copyable element arrays.  Every send is tallied per destination rank, so
// the performance model can split traffic into intra-node and inter-node
// portions for any rank-to-node mapping.
//
// Nonblocking receives carry accounting the cost model needs: a receive
// whose message has already arrived when its wait runs counts its bytes as
// *overlapped* (the transfer hid behind compute), while a wait that has to
// block counts them as *exposed* and records the nanoseconds spent
// blocked.  Sends are buffered, so isend completes immediately.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "core/counters.hpp"
#include "mp/world.hpp"

namespace hdem::mp {

enum class Op : std::uint8_t { kSum, kMin, kMax };

// Internal tags (user tags must be >= 0).
inline constexpr int kTagGather = -1;
inline constexpr int kTagBcast = -2;
inline constexpr int kTagAlltoall = -3;

// Handle for a nonblocking operation.  Default-constructed requests are
// inactive; test/wait on them succeed immediately.  A receive request
// completes exactly once — its payload is copied into the caller's buffer
// by the test/wait that first observes the message.
class Request {
 public:
  Request() = default;

  bool active() const { return kind_ != Kind::kNone && !done_; }
  bool done() const { return done_; }
  // Payload size delivered by a completed receive (bytes).
  std::size_t bytes() const { return bytes_; }

 private:
  friend class Comm;
  enum class Kind : std::uint8_t { kNone, kSend, kRecv };

  Kind kind_ = Kind::kNone;
  bool done_ = false;
  int peer_ = -1;
  int tag_ = 0;
  std::shared_ptr<RecvTicket> ticket_;  // receive only
  std::byte* out_ = nullptr;            // receive destination
  std::size_t capacity_ = 0;            // bytes available at out_
  std::size_t bytes_ = 0;               // bytes delivered on completion
};

class Comm {
 public:
  Comm(World& world, int rank) : world_(&world), rank_(rank) {
    bytes_to_.assign(static_cast<std::size_t>(world.size()), 0);
    msgs_to_.assign(static_cast<std::size_t>(world.size()), 0);
  }

  int rank() const { return rank_; }
  int size() const { return world_->size(); }

  // ---- point to point ----------------------------------------------------
  void send_bytes(int dst, int tag, std::span<const std::byte> data);
  RawMessage recv_msg(int src, int tag);

  template <class T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag,
               {reinterpret_cast<const std::byte*>(data.data()),
                data.size_bytes()});
  }

  template <class T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    RawMessage m = recv_msg(src, tag);
    std::vector<T> out(m.payload.size() / sizeof(T));
    // An empty payload may come with null data pointers, which memcpy
    // must not see even for a zero size.
    if (!out.empty()) {
      std::memcpy(out.data(), m.payload.data(), out.size() * sizeof(T));
    }
    world_->recycle_buffer(std::move(m.payload));
    return out;
  }

  // Receive into caller storage; returns the element count (must fit).
  template <class T>
  std::size_t recv_into(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    RawMessage m = recv_msg(src, tag);
    const std::size_t n = m.payload.size() / sizeof(T);
    if (n != 0) std::memcpy(out.data(), m.payload.data(), n * sizeof(T));
    world_->recycle_buffer(std::move(m.payload));
    return n;
  }

  // Matched exchange: buffered send, then receive (deadlock-free because
  // sends are buffered, like the paper's series of matched sendrecvs).
  template <class T>
  std::vector<T> sendrecv(int dst, int send_tag, std::span<const T> data,
                          int src, int recv_tag) {
    send(dst, send_tag, data);
    return recv<T>(src, recv_tag);
  }

  // ---- nonblocking point to point ----------------------------------------
  // Returned by wait_any when no active request remains.
  static constexpr std::size_t kNoRequest =
      std::numeric_limits<std::size_t>::max();

  // Buffered send: the payload is copied out before returning, so the
  // request completes immediately (MPI eager mode).
  Request isend_bytes(int dst, int tag, std::span<const std::byte> data);

  template <class T>
  Request isend(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    return isend_bytes(dst, tag,
                       {reinterpret_cast<const std::byte*>(data.data()),
                        data.size_bytes()});
  }

  // Post a receive into caller storage.  The payload is copied into `out`
  // by the test/wait that completes the request; `out` must stay valid
  // until then.  Matching shares the blocking calls' (src, tag) channels
  // and posting order, so isend / irecv interleave FIFO with send / recv.
  Request irecv_bytes(int src, int tag, std::span<std::byte> out);

  template <class T>
  Request irecv(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return irecv_bytes(src, tag,
                       {reinterpret_cast<std::byte*>(out.data()),
                        out.size_bytes()});
  }

  // True once the request is complete; never blocks.  Completing a receive
  // here (message already arrived) counts its bytes as overlapped.
  bool test(Request& req);

  // Block until the request completes.  A wait that finds the message
  // already delivered tallies bytes_overlapped; one that has to block
  // tallies bytes_exposed plus the nanoseconds spent blocked.
  void wait(Request& req);

  // Block until some active request in `reqs` completes; returns its
  // index, or kNoRequest if none is active.  Completed requests are
  // skipped, so draining a batch by repeated wait_any visits every request
  // exactly once (no starvation: arrival order, not index order, decides).
  std::size_t wait_any(std::span<Request> reqs);

  // Complete every request in `reqs`.
  void wait_all(std::span<Request> reqs);

  // ---- collectives ---------------------------------------------------------
  void barrier();

  template <class T>
  T allreduce(T value, Op op) {
    static_assert(std::is_arithmetic_v<T>);
    ++counters_.collectives;
    if (size() == 1) return value;
    // Gather to rank 0 (deterministic rank order), reduce, broadcast.
    if (rank_ == 0) {
      T acc = value;
      for (int r = 1; r < size(); ++r) {
        const T v = recv<T>(r, kTagGather).at(0);
        acc = combine(acc, v, op);
      }
      for (int r = 1; r < size(); ++r) {
        send<T>(r, kTagBcast, std::span<const T>(&acc, 1));
      }
      return acc;
    }
    send<T>(0, kTagGather, std::span<const T>(&value, 1));
    return recv<T>(0, kTagBcast).at(0);
  }

  // Concatenation of every rank's contribution, in rank order, delivered
  // to every rank.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> mine) {
    ++counters_.collectives;
    std::vector<T> all;
    if (rank_ == 0) {
      all.assign(mine.begin(), mine.end());
      for (int r = 1; r < size(); ++r) {
        const auto part = recv<T>(r, kTagGather);
        all.insert(all.end(), part.begin(), part.end());
      }
      for (int r = 1; r < size(); ++r) {
        send<T>(r, kTagBcast, std::span<const T>(all));
      }
    } else {
      send(0, kTagGather, mine);
      all = recv<T>(0, kTagBcast);
    }
    return all;
  }

  // Concatenation of every rank's contribution at the root only; other
  // ranks get an empty vector.
  template <class T>
  std::vector<T> gatherv(std::span<const T> mine, int root) {
    ++counters_.collectives;
    std::vector<T> all;
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        if (r == rank_) {
          all.insert(all.end(), mine.begin(), mine.end());
        } else {
          const auto part = recv<T>(r, kTagGather);
          all.insert(all.end(), part.begin(), part.end());
        }
      }
    } else {
      send(root, kTagGather, mine);
    }
    return all;
  }

  template <class T>
  std::vector<T> bcast(std::vector<T> data, int root) {
    ++counters_.collectives;
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        if (r != rank_) send<T>(r, kTagBcast, std::span<const T>(data));
      }
      return data;
    }
    return recv<T>(root, kTagBcast);
  }

  // Personalised all-to-all of byte buffers (send[r] goes to rank r);
  // returns the buffers received from each rank.  Used by migration.
  std::vector<std::vector<std::byte>> alltoall(
      std::vector<std::vector<std::byte>> send);

  // ---- shared windows -------------------------------------------------------
  // The world's shared halo windows (zero-copy intra-node halo path).
  WindowRegistry& windows() { return world_->windows(); }

  // ---- accounting -----------------------------------------------------------
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  const std::vector<std::uint64_t>& bytes_to() const { return bytes_to_; }
  const std::vector<std::uint64_t>& msgs_to() const { return msgs_to_; }
  // Messages delivered to this rank but not yet received (leak checks).
  std::size_t pending() const { return world_->mailbox(rank_).pending(); }

 private:
  template <class T>
  static T combine(T a, T b, Op op) {
    switch (op) {
      case Op::kSum: return a + b;
      case Op::kMin: return b < a ? b : a;
      case Op::kMax: return b > a ? b : a;
    }
    return a;
  }

  // Copy a fulfilled ticket's message into the request's buffer.
  void deliver(Request& req, RawMessage msg);

  World* world_;
  int rank_;
  Counters counters_;
  std::vector<std::uint64_t> bytes_to_;
  std::vector<std::uint64_t> msgs_to_;
};

// Spawn `nranks` threads each running body(comm) over a fresh World.
// Propagates the first exception thrown by any rank.  Per-rank traffic
// tallies can be harvested by the body itself (e.g. copied out under the
// caller's synchronisation).
void run(int nranks, const std::function<void(Comm&)>& body);

}  // namespace hdem::mp
