#include "src/ring/client.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/ring_buffer.h"

namespace ring {
namespace {
constexpr uint64_t kHeaderBytes = 64;
// Admin requests travel to the leader as fixed-size messages.
constexpr uint64_t kAdminBytes = 192;
}  // namespace

RingClient::RingClient(RingRuntime* runtime, uint32_t index)
    : rt_(runtime),
      node_(runtime->client_node(index)),
      config_(runtime->membership().ConfigView(0)),
      rng_(runtime->options().seed * 0x9e3779b97f4a7c15ULL + node_) {}

net::NodeId RingClient::CoordinatorFor(uint64_t hash) const {
  return config_.CoordinatorOfShard(ShardOfHash(hash, config_.num_shards()));
}

uint64_t RingClient::NewRequest() {
  if (next_req_ - floor_ == window_.size()) {
    GrowRing(window_, floor_, next_req_, 64);
  }
  return next_req_++;
}

RingClient::Outstanding* RingClient::Find(uint64_t req_id) {
  if (req_id < floor_ || req_id >= next_req_) {
    return nullptr;
  }
  Outstanding* o = &window_[req_id & (window_.size() - 1)];
  return o->done ? nullptr : o;
}

void RingClient::RefreshConfig() {
  config_ = rt_->membership().ConfigView(rt_->leader_node());
}

template <typename Cb, typename... Args>
void RingClient::Complete(uint64_t req_id, bool ok, Args&&... args) {
  Outstanding* o = Find(req_id);
  if (o == nullptr) {
    return;  // duplicate reply (multicast raced with the original)
  }
  o->done = true;
  // Taken out of the slot: the callback may issue requests that reuse it.
  Cb cb = std::get<Cb>(std::move(o->cb));
  const sim::SimTime start = o->start;
  const obs::OpKind kind = o->spec.kind;
  const MemgestId memgest =
      kind == obs::OpKind::kPut || kind == obs::OpKind::kMove
          ? o->spec.memgest
          : obs::kNoMemgest;
  o->spec.value.reset();
  --in_flight_;
  while (floor_ < next_req_ && window_[floor_ & (window_.size() - 1)].done) {
    ++floor_;
  }
  ++completed_;
  const sim::SimTime end = rt_->simulator().now();
  latencies_.Add(static_cast<double>(end - start) / 1000.0);
  obs::Hub& hub = rt_->simulator().hub();
  hub.tracer().Record(obs::OpKindName(kind), obs::Category::kOp, node_,
                      OpId(req_id), start, end);
  hub.metrics().Inc("client.ops", 1, node_, memgest, kind);
  hub.metrics().Observe("client.op_latency_ns", end - start, node_, memgest,
                        kind);
  // Ok/error split feeds the windowed SLIs (goodput and error rate).
  hub.metrics().Inc(ok ? obs::kSliOpsOk : obs::kSliOpErrors, 1, node_,
                    memgest, kind);
  if (!ok) {
    hub.recorder().Record(obs::RecKind::kClient, "op_failed", node_,
                          OpId(req_id), memgest);
  }
  cb(std::forward<Args>(args)...);
}

void RingClient::Launch(uint64_t req_id) {
  const auto& p = rt_->simulator().params();
  Outstanding* o = Find(req_id);
  o->start = rt_->simulator().now();
  if (p.client_retry_budget_ns > 0) {
    o->deadline = o->start + p.client_retry_budget_ns;
  }
  ++in_flight_;
  launched_ = req_id + 1;
  Send(o->spec, req_id, false);
  if (o->spec.kind == obs::OpKind::kGet && HedgesEnabled()) {
    ArmTimer(o->start + p.client_hedge_delay_ns);
  }
  ArmTimer(o->start + p.client_retry_timeout_ns);
}

bool RingClient::HedgesEnabled() const {
  const auto& p = rt_->simulator().params();
  return p.client_hedge_delay_ns > 0 &&
         p.client_hedge_delay_ns < p.client_retry_timeout_ns;
}

void RingClient::ArmTimer(sim::SimTime t) {
  if (timer_at_ <= t) {
    return;
  }
  // An armed later timer goes stale: its generation no longer matches.
  timer_at_ = t;
  rt_->simulator().At(t, [this, gen = ++timer_gen_] {
    if (gen == timer_gen_) {
      OnTimer();
    }
  });
}

sim::SimTime RingClient::NextFirstRetry() {
  retry_cursor_ = std::max(retry_cursor_, floor_);
  for (; retry_cursor_ < launched_; ++retry_cursor_) {
    if (const Outstanding* o = Find(retry_cursor_); o != nullptr) {
      return o->start + rt_->simulator().params().client_retry_timeout_ns;
    }
  }
  return kNever;
}

sim::SimTime RingClient::NextHedge() {
  if (!HedgesEnabled()) {
    return kNever;
  }
  hedge_cursor_ = std::max(hedge_cursor_, floor_);
  for (; hedge_cursor_ < launched_; ++hedge_cursor_) {
    const Outstanding* o = Find(hedge_cursor_);
    if (o != nullptr && o->spec.kind == obs::OpKind::kGet) {
      return o->start + rt_->simulator().params().client_hedge_delay_ns;
    }
  }
  return kNever;
}

sim::SimTime RingClient::NextRearm() {
  while (!rearms_.empty() && Find(rearms_.front().req_id) == nullptr) {
    std::pop_heap(rearms_.begin(), rearms_.end(), Rearm::Later);
    rearms_.pop_back();
  }
  return rearms_.empty() ? kNever : rearms_.front().deadline;
}

void RingClient::OnTimer() {
  timer_at_ = kNever;
  const sim::SimTime now = rt_->simulator().now();
  for (;;) {
    const sim::SimTime rearm = NextRearm();
    const sim::SimTime first = NextFirstRetry();
    const sim::SimTime hedge = NextHedge();
    const sim::SimTime next = std::min({rearm, first, hedge});
    if (next > now) {
      ArmTimer(next);  // a no-op for kNever
      return;
    }
    // Equal deadlines run re-arms, then first retries, then hedges: the
    // order in which they were set.
    if (rearm == next) {
      const uint64_t req_id = rearms_.front().req_id;
      std::pop_heap(rearms_.begin(), rearms_.end(), Rearm::Later);
      rearms_.pop_back();
      CheckTimeout(req_id);
    } else if (first == next) {
      CheckTimeout(retry_cursor_++);
    } else {
      Hedge(hedge_cursor_++);
    }
  }
}

void RingClient::Hedge(uint64_t req_id) {
  Outstanding* o = Find(req_id);
  if (o->retries > 0 || !rt_->fabric().alive(node_)) {
    return;
  }
  // Multicast without waiting for the retry timeout. The request stays
  // outstanding; whichever reply lands first wins and the duplicate is
  // dropped by Complete.
  ++hedges_;
  rt_->simulator().hub().metrics().Inc("client.hedges", 1, node_);
  rt_->simulator().hub().recorder().Record(obs::RecKind::kClient, "hedge",
                                           node_, OpId(req_id));
  Resend(o->spec, req_id);
}

void RingClient::Resend(const OpSpec& spec, uint64_t req_id) {
  const auto& p = rt_->simulator().params();
  cpu().Execute(
      p.client_base_ns + rt_->membership().num_members() * p.client_post_ns,
      [this, spec, req_id] { Send(spec, req_id, true); });
}

template <auto kHandle, typename Req>
void RingClient::Post(const OpSpec& spec, bool broadcast, Req r) {
  if (!broadcast) {
    auto* peer = rt_->server(CoordinatorFor(spec.key_hash));
    rt_->fabric().Send(node_, peer->id(), spec.bytes,
                       [peer, r = std::move(r)]() mutable {
                         (peer->*kHandle)(std::move(r));
                       });
    return;
  }
  for (net::NodeId n = 0; n < rt_->membership().num_members(); ++n) {
    if (config_.failed[n] || !rt_->fabric().alive(n)) {
      continue;
    }
    auto* peer = rt_->server(n);
    rt_->fabric().Send(node_, n, spec.bytes,
                       [peer, r] { (peer->*kHandle)(r); });
  }
}

void RingClient::Send(const OpSpec& spec, uint64_t req_id, bool broadcast) {
  if (spec.kind == obs::OpKind::kAdmin) {
    RefreshConfig();
    AdminRequest r;
    r.op = spec.admin_op;
    r.desc = spec.desc;
    r.id = spec.memgest;
    r.client = node_;
    if (spec.admin_op == AdminRequest::Op::kGetMemgestDescriptor) {
      r.descriptor_reply = [this, req_id](Result<MemgestDescriptor> res) {
        const bool ok = res.ok();
        Complete<DescriptorCallback>(req_id, ok, std::move(res));
      };
    } else {
      r.reply = [this, req_id](Result<MemgestId> res) {
        const bool ok = res.ok();
        Complete<AdminCallback>(req_id, ok, std::move(res));
      };
    }
    auto* peer = rt_->server(config_.leader);
    rt_->fabric().Send(node_, config_.leader, spec.bytes,
                       [peer, r] { peer->HandleAdmin(r); });
    return;
  }
  obs::ScopedOp scope(rt_->simulator().hub(), OpId(req_id));
  switch (spec.kind) {
    case obs::OpKind::kPut: {
      PutRequest r;
      r.key = spec.key;
      r.key_hash = spec.key_hash;
      r.value = spec.value;
      r.memgest = spec.memgest;
      r.client = node_;
      r.req_id = req_id;
      r.floor = floor_;
      r.op_id = OpId(req_id);
      r.retry = broadcast;
      r.reply = [this, req_id](Status s, Version v) {
        const bool ok = s.ok();
        Complete<PutCallback>(req_id, ok, std::move(s), v);
      };
      Post<&RingServer::HandlePut>(spec, broadcast, std::move(r));
      return;
    }
    case obs::OpKind::kGet: {
      GetRequest r;
      r.key = spec.key;
      r.key_hash = spec.key_hash;
      r.client = node_;
      r.req_id = req_id;
      r.op_id = OpId(req_id);
      r.retry = broadcast;
      r.mode = spec.mode;
      r.reply = [this, req_id](GetResult res) {
        const bool ok = res.status.ok();
        Complete<GetCallback>(req_id, ok, std::move(res));
      };
      Post<&RingServer::HandleGet>(spec, broadcast, std::move(r));
      return;
    }
    case obs::OpKind::kMove: {
      MoveRequest r;
      r.key = spec.key;
      r.key_hash = spec.key_hash;
      r.dst = spec.memgest;
      r.client = node_;
      r.req_id = req_id;
      r.floor = floor_;
      r.op_id = OpId(req_id);
      r.retry = broadcast;
      r.reply = [this, req_id](Status s, Version v) {
        const bool ok = s.ok();
        Complete<PutCallback>(req_id, ok, std::move(s), v);
      };
      Post<&RingServer::HandleMove>(spec, broadcast, std::move(r));
      return;
    }
    case obs::OpKind::kDelete: {
      DeleteRequest r;
      r.key = spec.key;
      r.key_hash = spec.key_hash;
      r.client = node_;
      r.req_id = req_id;
      r.floor = floor_;
      r.op_id = OpId(req_id);
      r.retry = broadcast;
      r.reply = [this, req_id](Status s) {
        const bool ok = s.ok();
        Complete<StatusCallback>(req_id, ok, std::move(s));
      };
      Post<&RingServer::HandleDelete>(spec, broadcast, std::move(r));
      return;
    }
    case obs::OpKind::kNone:
    case obs::OpKind::kAdmin:  // sent above
    case obs::OpKind::kRecovery:
      return;
  }
}

uint64_t RingClient::NextRetryWait(Outstanding* o) {
  const auto& p = rt_->simulator().params();
  const uint64_t base = p.client_retry_timeout_ns;
  if (o->prev_wait == 0) {
    // First re-arm stays flat: a single clean retry keeps the same timing
    // as the pre-backoff client (and the fault-free benchmarks).
    o->prev_wait = base;
    return base;
  }
  // Decorrelated jitter: uniform in [base, 3 * prev), clipped to the cap.
  const uint64_t span =
      o->prev_wait * 3 > base ? o->prev_wait * 3 - base : 1;
  uint64_t wait = base + rng_.NextBelow(span);
  if (wait > p.client_backoff_cap_ns) {
    wait = p.client_backoff_cap_ns;
  }
  o->prev_wait = wait;
  return wait;
}

void RingClient::CheckTimeout(uint64_t req_id) {
  Outstanding* o = Find(req_id);
  if (!rt_->fabric().alive(node_)) {
    return;  // a dead client's requests never time out
  }
  const auto& p = rt_->simulator().params();
  const sim::SimTime now = rt_->simulator().now();
  if (++o->retries > p.client_max_retries ||
      (o->deadline != 0 && now >= o->deadline)) {
    // Budget exhausted: surface unavailability instead of retrying forever.
    ++timeouts_;
    rt_->simulator().hub().metrics().Inc("client.unavailable", 1, node_);
    rt_->simulator().hub().recorder().Record(obs::RecKind::kClient,
                                             "retry_budget_exhausted", node_,
                                             OpId(req_id), o->retries);
    Fail(req_id);
    return;
  }
  // Re-learn the configuration and multicast: only the responsible node
  // will answer (§5.5).
  rt_->simulator().hub().recorder().Record(obs::RecKind::kClient,
                                           "client_retry", node_,
                                           OpId(req_id), o->retries);
  RefreshConfig();
  Resend(o->spec, req_id);
  rearms_.push_back({now + NextRetryWait(o), req_id});
  std::push_heap(rearms_.begin(), rearms_.end(), Rearm::Later);
}

void RingClient::Fail(uint64_t req_id) {
  const OpSpec& spec = Find(req_id)->spec;
  switch (spec.kind) {
    case obs::OpKind::kPut:
      Complete<PutCallback>(req_id, false,
                            UnavailableError("put retry budget exhausted"),
                            Version{0});
      return;
    case obs::OpKind::kGet:
      Complete<GetCallback>(
          req_id, false,
          GetResult{UnavailableError("get retry budget exhausted"), 0,
                    nullptr});
      return;
    case obs::OpKind::kMove:
      Complete<PutCallback>(req_id, false,
                            UnavailableError("move retry budget exhausted"),
                            Version{0});
      return;
    case obs::OpKind::kDelete:
      Complete<StatusCallback>(
          req_id, false, UnavailableError("delete retry budget exhausted"));
      return;
    case obs::OpKind::kNone:
    case obs::OpKind::kAdmin:
    case obs::OpKind::kRecovery:
      break;
  }
  switch (spec.admin_op) {
    case AdminRequest::Op::kCreateMemgest:
      Complete<AdminCallback>(
          req_id, false,
          Result<MemgestId>(TimeoutError("createMemgest timed out")));
      return;
    case AdminRequest::Op::kDeleteMemgest:
      Complete<AdminCallback>(
          req_id, false,
          Result<MemgestId>(TimeoutError("deleteMemgest timed out")));
      return;
    case AdminRequest::Op::kSetDefaultMemgest:
      Complete<AdminCallback>(
          req_id, false,
          Result<MemgestId>(TimeoutError("setDefaultMemgest timed out")));
      return;
    case AdminRequest::Op::kGetMemgestDescriptor:
      Complete<DescriptorCallback>(
          req_id, false,
          Result<MemgestDescriptor>(
              TimeoutError("getMemgestDescriptor timed out")));
      return;
  }
}

template <typename Cb>
void RingClient::Issue(OpSpec spec, Cb cb, uint64_t issue_cost_ns) {
  const uint64_t req_id = NewRequest();
  window_[req_id & (window_.size() - 1)] =
      Outstanding{.spec = std::move(spec), .cb = std::move(cb)};
  cpu().Execute(issue_cost_ns, [this, req_id] { Launch(req_id); });
}

void RingClient::Put(const Key& key, std::shared_ptr<Buffer> value,
                     MemgestId memgest, PutCallback cb) {
  const auto& p = rt_->simulator().params();
  const uint32_t len = value ? static_cast<uint32_t>(value->size()) : 0;
  NotifyObserver(key, obs::OpKind::kPut, memgest, len);
  Issue({.kind = obs::OpKind::kPut,
         .key = key,
         .key_hash = HashKey(key),
         .value = std::move(value),
         .memgest = memgest,
         .bytes = kHeaderBytes + key.size() + len},
        std::move(cb),
        p.client_base_ns + p.client_post_ns +
            static_cast<uint64_t>(p.client_put_byte_ns * len));
}

void RingClient::Get(const Key& key, ReadMode mode, GetCallback cb) {
  const auto& p = rt_->simulator().params();
  NotifyObserver(key, obs::OpKind::kGet, kDefaultMemgest, 0);
  Issue({.kind = obs::OpKind::kGet,
         .key = key,
         .key_hash = HashKey(key),
         .mode = mode,
         .bytes = kHeaderBytes + key.size()},
        std::move(cb), p.client_base_ns + p.client_post_ns);
}

void RingClient::Move(const Key& key, MemgestId dst, PutCallback cb) {
  const auto& p = rt_->simulator().params();
  NotifyObserver(key, obs::OpKind::kMove, dst, 0);
  Issue({.kind = obs::OpKind::kMove,
         .key = key,
         .key_hash = HashKey(key),
         .memgest = dst,
         .bytes = kHeaderBytes + key.size()},
        std::move(cb), p.client_base_ns + p.client_post_ns);
}

void RingClient::Delete(const Key& key, StatusCallback cb) {
  const auto& p = rt_->simulator().params();
  NotifyObserver(key, obs::OpKind::kDelete, kDefaultMemgest, 0);
  Issue({.kind = obs::OpKind::kDelete,
         .key = key,
         .key_hash = HashKey(key),
         .bytes = kHeaderBytes + key.size()},
        std::move(cb), p.client_base_ns + p.client_post_ns);
}

void RingClient::CreateMemgest(const MemgestDescriptor& desc,
                               AdminCallback cb) {
  const auto& p = rt_->simulator().params();
  Issue({.kind = obs::OpKind::kAdmin,
         .admin_op = AdminRequest::Op::kCreateMemgest,
         .bytes = kAdminBytes,
         .desc = desc},
        std::move(cb), p.client_base_ns + p.client_post_ns);
}

void RingClient::DeleteMemgest(MemgestId id, AdminCallback cb) {
  const auto& p = rt_->simulator().params();
  Issue({.kind = obs::OpKind::kAdmin,
         .admin_op = AdminRequest::Op::kDeleteMemgest,
         .memgest = id,
         .bytes = kAdminBytes},
        std::move(cb), p.client_base_ns + p.client_post_ns);
}

void RingClient::SetDefaultMemgest(MemgestId id, AdminCallback cb) {
  const auto& p = rt_->simulator().params();
  Issue({.kind = obs::OpKind::kAdmin,
         .admin_op = AdminRequest::Op::kSetDefaultMemgest,
         .memgest = id,
         .bytes = kAdminBytes},
        std::move(cb), p.client_base_ns + p.client_post_ns);
}

void RingClient::GetMemgestDescriptor(MemgestId id, DescriptorCallback cb) {
  const auto& p = rt_->simulator().params();
  Issue({.kind = obs::OpKind::kAdmin,
         .admin_op = AdminRequest::Op::kGetMemgestDescriptor,
         .memgest = id,
         .bytes = kAdminBytes},
        std::move(cb), p.client_base_ns + p.client_post_ns);
}

}  // namespace ring
