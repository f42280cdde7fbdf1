#include "mp/comm.hpp"

#include <exception>
#include <stdexcept>
#include <thread>

namespace hdem::mp {

void Comm::send_bytes(int dst, int tag, std::span<const std::byte> data) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("Comm::send_bytes: dst");
  RawMessage m;
  m.src = rank_;
  m.tag = tag;
  // Pooled payload: assign() reuses the recycled vector's capacity, so
  // steady-state halo swaps copy without touching the allocator.
  m.payload = world_->acquire_buffer();
  m.payload.assign(data.begin(), data.end());
  ++counters_.msgs_sent;
  counters_.bytes_sent += data.size();
  ++msgs_to_[static_cast<std::size_t>(dst)];
  bytes_to_[static_cast<std::size_t>(dst)] += data.size();
  world_->mailbox(dst).push(std::move(m));
}

RawMessage Comm::recv_msg(int src, int tag) {
  if (src < 0 || src >= size()) throw std::out_of_range("Comm::recv_msg: src");
  return world_->mailbox(rank_).pop(src, tag);
}

Request Comm::isend_bytes(int dst, int tag, std::span<const std::byte> data) {
  send_bytes(dst, tag, data);  // buffered: complete on return
  Request req;
  req.kind_ = Request::Kind::kSend;
  req.done_ = true;
  req.peer_ = dst;
  req.tag_ = tag;
  req.bytes_ = data.size();
  return req;
}

Request Comm::irecv_bytes(int src, int tag, std::span<std::byte> out) {
  if (src < 0 || src >= size()) throw std::out_of_range("Comm::irecv_bytes: src");
  Request req;
  req.kind_ = Request::Kind::kRecv;
  req.peer_ = src;
  req.tag_ = tag;
  req.ticket_ = world_->mailbox(rank_).post(src, tag);
  req.out_ = out.data();
  req.capacity_ = out.size();
  ++counters_.irecvs_posted;
  return req;
}

void Comm::deliver(Request& req, RawMessage msg) {
  if (msg.payload.size() > req.capacity_) {
    throw std::length_error("Comm: irecv buffer too small for message");
  }
  // Skip the copy for an empty payload: both pointers may be null.
  if (!msg.payload.empty()) {
    std::memcpy(req.out_, msg.payload.data(), msg.payload.size());
  }
  req.bytes_ = msg.payload.size();
  req.done_ = true;
  req.ticket_.reset();
  world_->recycle_buffer(std::move(msg.payload));
}

bool Comm::test(Request& req) {
  if (req.done_ || req.kind_ != Request::Kind::kRecv) return true;
  Mailbox& box = world_->mailbox(rank_);
  if (!box.ready(*req.ticket_)) return false;
  deliver(req, box.claim(*req.ticket_));
  counters_.bytes_overlapped += req.bytes_;
  return true;
}

void Comm::wait(Request& req) {
  if (req.done_ || req.kind_ != Request::Kind::kRecv) return;
  Mailbox& box = world_->mailbox(rank_);
  if (box.ready(*req.ticket_)) {
    deliver(req, box.claim(*req.ticket_));
    counters_.bytes_overlapped += req.bytes_;
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  RawMessage msg = box.claim(*req.ticket_);
  const auto t1 = std::chrono::steady_clock::now();
  deliver(req, std::move(msg));
  ++counters_.waits_blocked;
  counters_.bytes_exposed += req.bytes_;
  counters_.exposed_wait_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

std::size_t Comm::wait_any(std::span<Request> reqs) {
  // Only receives can be active (buffered sends complete at isend).  Fast
  // path: a receive whose message already arrived counts as overlapped.
  std::vector<std::shared_ptr<RecvTicket>> tickets(reqs.size());
  bool any_active = false;
  Mailbox& box = world_->mailbox(rank_);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Request& r = reqs[i];
    if (!r.active()) continue;
    if (!box.ready(*r.ticket_)) {
      tickets[i] = r.ticket_;
      any_active = true;
      continue;
    }
    deliver(r, box.claim(*r.ticket_));
    counters_.bytes_overlapped += r.bytes_;
    return i;
  }
  if (!any_active) return kNoRequest;
  // All remaining receives are still in flight: block until one arrives.
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t idx = box.claim_any(tickets);
  const auto t1 = std::chrono::steady_clock::now();
  Request& r = reqs[idx];
  deliver(r, box.claim(*r.ticket_));
  ++counters_.waits_blocked;
  counters_.bytes_exposed += r.bytes_;
  counters_.exposed_wait_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return idx;
}

void Comm::wait_all(std::span<Request> reqs) {
  for (Request& r : reqs) wait(r);
}

void Comm::barrier() {
  ++counters_.collectives;
  world_->barrier();
}

std::vector<std::vector<std::byte>> Comm::alltoall(
    std::vector<std::vector<std::byte>> send) {
  if (static_cast<int>(send.size()) != size()) {
    throw std::invalid_argument("Comm::alltoall: need one buffer per rank");
  }
  ++counters_.collectives;
  std::vector<std::vector<std::byte>> recv_bufs(
      static_cast<std::size_t>(size()));
  // Buffered sends first (cannot block), own contribution moved directly.
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) {
      recv_bufs[static_cast<std::size_t>(r)] =
          std::move(send[static_cast<std::size_t>(r)]);
    } else {
      send_bytes(r, kTagAlltoall, send[static_cast<std::size_t>(r)]);
    }
  }
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    recv_bufs[static_cast<std::size_t>(r)] =
        recv_msg(r, kTagAlltoall).payload;
  }
  return recv_bufs;
}

void run(int nranks, const std::function<void(Comm&)>& body) {
  World world(nranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Comm comm(world, r);
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace hdem::mp
