// RingClient: the client-side library (paper §5 API).
//
// Clients map keys to coordinators with `h(key) mod s` and talk to them
// directly over the fabric. When a request times out (coordinator failure),
// the client re-sends it to every KVS node — the paper's multicast — and
// only the responsible node answers (§5.5). The key is hashed once per
// operation; every request carries the hash and the client's floor (its
// lowest incomplete req_id, see server.h).
#ifndef RING_SRC_RING_CLIENT_H_
#define RING_SRC_RING_CLIENT_H_

#include <functional>
#include <memory>
#include <variant>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/ring/runtime.h"
#include "src/ring/server.h"

namespace ring {

class RingClient {
 public:
  // `index` selects one of the runtime's client endpoints.
  RingClient(RingRuntime* runtime, uint32_t index);

  net::NodeId node() const { return node_; }

  using PutCallback = std::function<void(Status, Version)>;
  using GetCallback = std::function<void(GetResult)>;
  using StatusCallback = std::function<void(Status)>;
  using AdminCallback = std::function<void(Result<MemgestId>)>;
  using DescriptorCallback = std::function<void(Result<MemgestDescriptor>)>;

  // Control-plane tap on the op issue path: (key, op, memgest, value bytes).
  // `memgest` is the put/move target (kDefaultMemgest when not applicable)
  // and `bytes` the value size (0 when unknown). Observers run at issue time
  // in zero simulated time and must not call back into the client.
  using AccessObserver =
      std::function<void(const Key&, obs::OpKind, MemgestId, uint64_t)>;
  void set_access_observer(AccessObserver observer) {
    access_observer_ = std::move(observer);
  }

  // put(key, object[, memgestID]) — paper §5.
  void Put(const Key& key, std::shared_ptr<Buffer> value,
           MemgestId memgest, PutCallback cb);
  void Put(const Key& key, std::shared_ptr<Buffer> value, PutCallback cb) {
    Put(key, std::move(value), kDefaultMemgest, std::move(cb));
  }
  void Get(const Key& key, GetCallback cb) {
    Get(key, ReadMode::kStrong, std::move(cb));
  }
  // §16: kNonBlocking gets serve the newest committed version instead of
  // waiting out a concurrent commit or an in-flight reconfiguration.
  void Get(const Key& key, ReadMode mode, GetCallback cb);
  void Move(const Key& key, MemgestId dst, PutCallback cb);
  void Delete(const Key& key, StatusCallback cb);

  // Storage scheme management (leader-processed).
  void CreateMemgest(const MemgestDescriptor& desc, AdminCallback cb);
  void DeleteMemgest(MemgestId id, AdminCallback cb);
  void SetDefaultMemgest(MemgestId id, AdminCallback cb);
  void GetMemgestDescriptor(MemgestId id, DescriptorCallback cb);

  // ---- statistics ----
  uint64_t completed() const { return completed_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t hedges() const { return hedges_; }
  // Requests in flight (issued, not yet answered).
  size_t outstanding() const { return in_flight_; }
  // Re-reads the cluster configuration (normally done lazily on retry;
  // benches call it after a controlled failover so measurements exclude the
  // stale-routing discovery timeout).
  void RefreshConfigNow() { RefreshConfig(); }
  // Per-operation latencies in microseconds, measured NIC-to-NIC (request
  // posted -> reply delivered), matching the paper's measurement point.
  Samples& latencies() { return latencies_; }
  void ResetStats() {
    completed_ = 0;
    timeouts_ = 0;
    latencies_.Clear();
  }

 private:
  // What a request sends. Filled once at issue; the first send, every
  // retry and every hedge build the request message from it.
  struct OpSpec {
    obs::OpKind kind = obs::OpKind::kPut;  // kPut .. kAdmin
    AdminRequest::Op admin_op = AdminRequest::Op::kCreateMemgest;
    Key key = {};
    uint64_t key_hash = 0;
    std::shared_ptr<Buffer> value = {};   // kPut
    MemgestId memgest = kDefaultMemgest;  // put target, move dst, admin id
    ReadMode mode = ReadMode::kStrong;    // kGet
    uint64_t bytes = 0;                   // request size on the wire
    MemgestDescriptor desc = {};          // kCreateMemgest
  };
  struct Outstanding {
    bool done = false;
    uint32_t retries = 0;
    // Absolute give-up time (0: bounded by the retry count only).
    sim::SimTime deadline = 0;
    // Previous backoff wait; seeds the decorrelated-jitter draw.
    uint64_t prev_wait = 0;
    // When the request was first posted (latency is measured from here).
    sim::SimTime start = 0;
    OpSpec spec;
    // The user's callback, held once; Complete takes it out.
    std::variant<PutCallback, GetCallback, StatusCallback, AdminCallback,
                 DescriptorCallback>
        cb;
  };

  sim::CpuWorker& cpu() { return rt_->fabric().cpu(node_); }
  // Coordinator of the key with HashKey `hash` under the client's config.
  net::NodeId CoordinatorFor(uint64_t hash) const;
  void RefreshConfig();
  // Assigns the next req_id, growing the window when it is full.
  uint64_t NewRequest();
  // Opens a window slot for `spec` and the user callback `cb` (incomplete
  // from now on, so it holds the floor down until it completes), and
  // launches the request after the client CPU charge `issue_cost_ns`.
  template <typename Cb>
  void Issue(OpSpec spec, Cb cb, uint64_t issue_cost_ns);
  // The window slot of an incomplete request, nullptr once it completed.
  Outstanding* Find(uint64_t req_id);
  // Runs once the issue CPU charge is paid: sends the request from its
  // slot, and makes sure the client timer fires by its first retry deadline
  // (and its hedge deadline, for gets when client_hedge_delay_ns is set).
  void Launch(uint64_t req_id);
  // Builds the request message for `spec` and sends it to the coordinator,
  // or to every live member on a retry or hedge.
  void Send(const OpSpec& spec, uint64_t req_id, bool broadcast);
  // Delivers `r` to the key's coordinator, or a copy to every live member,
  // through the server handler `kHandle`.
  template <auto kHandle, typename Req>
  void Post(const OpSpec& spec, bool broadcast, Req r);
  // Posts a broadcast re-send after the client CPU charge. It goes out even
  // if the request completes meanwhile, so it carries its own spec copy.
  void Resend(const OpSpec& spec, uint64_t req_id);
  // ---- retry and hedge deadlines (DESIGN.md §11.2) ----
  // Every live request has one pending deadline. Launch runs on the
  // client's single CPU shard in req_id order, so first retry deadlines
  // (start + client_retry_timeout_ns) and hedge deadlines (start +
  // client_hedge_delay_ns) are monotone in req_id: a cursor over the window
  // finds the next one. Later retries wait NextRetryWait and sit in
  // rearms_. One simulator timer is armed, at the earliest live deadline.
  static constexpr sim::SimTime kNever = UINT64_MAX;
  struct Rearm {
    sim::SimTime deadline;
    uint64_t req_id;
    // Heap order: the earliest (deadline, req_id) on top.
    static bool Later(const Rearm& a, const Rearm& b) {
      return a.deadline != b.deadline ? a.deadline > b.deadline
                                      : a.req_id > b.req_id;
    }
  };
  bool HedgesEnabled() const;
  // Arms the client timer at `t` unless it already fires by then.
  void ArmTimer(sim::SimTime t);
  // Runs every deadline that is due, then arms the timer at the next one.
  void OnTimer();
  // The next pending deadline of each kind (kNever when none). They move
  // the cursors past completed requests and drop completed heap tops.
  sim::SimTime NextFirstRetry();
  sim::SimTime NextHedge();
  sim::SimTime NextRearm();
  // A due retry deadline: multicasts the request and re-arms it, or fails
  // it once its retry budget is spent.
  void CheckTimeout(uint64_t req_id);
  // A due hedge deadline: multicasts a get that has not been retried yet.
  void Hedge(uint64_t req_id);
  // Completes a request whose retry budget ran out with kUnavailable (or a
  // timeout, for admin requests).
  void Fail(uint64_t req_id);
  // Next retry wait: flat once, then decorrelated jitter up to the cap.
  uint64_t NextRetryWait(Outstanding* o);
  // Completes the request (reply or failure): records latency, closes the
  // operation's end-to-end trace span, then runs the user callback `Cb`
  // with `args`. Duplicate replies are dropped.
  template <typename Cb, typename... Args>
  void Complete(uint64_t req_id, bool ok, Args&&... args);
  // Trace id for one of this client's requests.
  uint64_t OpId(uint64_t req_id) const {
    return obs::MakeOpId(node_, static_cast<uint32_t>(req_id));
  }

  void NotifyObserver(const Key& key, obs::OpKind op, MemgestId memgest,
                      uint64_t bytes) {
    if (access_observer_) {
      access_observer_(key, op, memgest, bytes);
    }
  }

  RingRuntime* rt_;
  net::NodeId node_;
  AccessObserver access_observer_;
  consensus::ClusterConfig config_;
  // Request window: req_ids are dense and issued in order, so the
  // incomplete ones, [floor_, next_req_), live in a power-of-two ring
  // indexed by req_id. floor_ is the lowest incomplete req_id; it advances
  // past completed requests.
  uint64_t next_req_ = 1;
  uint64_t floor_ = 1;
  std::vector<Outstanding> window_;
  // Requests below launched_ have posted their first send.
  uint64_t launched_ = 1;
  // Lowest req_ids whose first retry / hedge deadline has not run yet.
  uint64_t retry_cursor_ = 1;
  uint64_t hedge_cursor_ = 1;
  // Min-heap (Rearm::Later) of retry deadlines after the first.
  std::vector<Rearm> rearms_;
  // The armed timer's time (kNever: none) and generation. Arming earlier
  // strands the later event, which then sees a stale generation.
  sim::SimTime timer_at_ = kNever;
  uint64_t timer_gen_ = 0;
  size_t in_flight_ = 0;
  uint64_t completed_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t hedges_ = 0;
  // Private backoff-jitter stream: client retry spacing must not perturb
  // (or be perturbed by) the simulator's global rng.
  Rng rng_;
  Samples latencies_;
};

}  // namespace ring

#endif  // RING_SRC_RING_CLIENT_H_
