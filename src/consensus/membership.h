// Membership, failure detection, leader election, and configuration
// replication (paper §5.5).
//
// Simplified DARE-style replicated state machine with one reconfiguration
// path (DESIGN.md §16): every suspicion — a fabric NACK, a heartbeat timeout
// or an external ReportSuspect — feeds one revoke-then-promote round. The
// acting node revokes the suspect's write permissions at its redundancy
// witnesses with one-sided ops, then bumps the epoch, promotes a spare into
// the suspect's slot (or takes over a dead leader's role) and replicates the
// new configuration to every member.
#ifndef RING_SRC_CONSENSUS_MEMBERSHIP_H_
#define RING_SRC_CONSENSUS_MEMBERSHIP_H_

#include <functional>
#include <memory>
#include <map>
#include <vector>

#include "src/consensus/config.h"
#include "src/net/fabric.h"

namespace ring::consensus {

class MembershipGroup {
 public:
  // Callback type: a node learned a new committed configuration.
  using ConfigCallback =
      std::function<void(net::NodeId self, const ClusterConfig& config)>;

  // `num_members` bounds the membership to the first nodes of the fabric
  // (s + d KVS slots plus spares); higher node ids are clients and take no
  // part in heartbeats or configuration. Defaults to every fabric node.
  MembershipGroup(net::Fabric* fabric, uint32_t s, uint32_t d,
                  uint32_t num_members = 0, uint32_t groups = 1);

  uint32_t num_members() const {
    return static_cast<uint32_t>(agents_.size());
  }

  // Begins heartbeat traffic. Call once after wiring callbacks.
  void Start();

  // The configuration as currently known by `node`.
  const ClusterConfig& ConfigView(net::NodeId node) const {
    return agents_[node]->config;
  }

  // Invoked on each node when it receives a newer configuration.
  void SetOnConfig(ConfigCallback cb) { on_config_ = std::move(cb); }

  // Fail-stop injection: kills the node on the fabric. Detection happens via
  // NACKed operations or missed heartbeats.
  void InjectFailure(net::NodeId victim);

  // Crash-recovery: `node` restarted memory-less (fabric already revived).
  // It marks itself failed in its own stale view and petitions the cluster
  // for readmission each tick until a leader broadcasts a config that
  // includes it again — as a spare when its old slot was re-assigned, or
  // re-promoted into its own slot (walking the normal spare-recovery path)
  // when no spare had been available.
  void Rejoin(net::NodeId node);

  // Gray-failure resume: resets `node`'s failure-detection timers so the
  // stall it just experienced is not misread as everyone else's silence.
  void NoteResumed(net::NodeId node);

  // Benchmark aid: kills `victim` and reports it at once, bypassing the
  // heartbeat timeout (Fig. 12 measures recovery from the moment of
  // detection); the failure is handled by a revoke-then-promote round.
  void ForceDetect(net::NodeId victim);

  // --- Revoke-then-promote (§16): lease revocation + witness promotion -----
  // External suspicion entry point (chaos `revoke` directive, tests): treat
  // `suspect` as failed *now* — the leader revokes its write permissions at
  // its redundancy witnesses with one-sided ops, bumps the epoch and
  // promotes a spare, whether or not the suspect is actually dead (a false
  // suspicion fences a live node out: its stale-lease writes NACK, and it
  // re-enters through the normal readmission petition).
  void ReportSuspect(net::NodeId suspect);

  // Revoke rounds completed (revocations -> promotion). The `fast_` names
  // are kept stable for telemetry consumers.
  uint64_t fast_failovers() const { return fast_failovers_; }
  // Span of the last completed revoke round, first revocation issued to
  // promotion applied (ns).
  uint64_t last_fast_failover_ns() const { return last_fast_failover_ns_; }
  // One-sided revocation operations issued by leaders/witness candidates.
  uint64_t revocations_issued() const { return revocations_issued_; }

  // Elastic membership (§13): applied on the current leader's agent as an
  // epoch-bumped transition and replicated through the normal config
  // broadcast; followers that miss it catch up via heartbeat anti-entropy.
  // Return false when the precondition fails (a resize already in flight,
  // node not a live spare, slot not a coordinator slot, no live leader).
  bool BeginAddServer(net::NodeId node);
  bool BeginRemoveServer(uint32_t slot);
  bool CompleteRebalance();

  net::NodeId CurrentLeader() const;

  uint64_t config_changes() const { return config_changes_; }

 private:
  struct Agent {
    net::NodeId id;
    ClusterConfig config;
    // Leader state: last heartbeat time per node.
    std::vector<sim::SimTime> last_seen;
    sim::SimTime last_leader_seen = 0;
    bool is_leader = false;
    // Whether this node's heartbeat-tick chain is scheduled. The chain dies
    // with the node; Rejoin restarts it exactly once.
    bool ticking = false;
  };

  void HeartbeatTick(net::NodeId node);
  void HandleJoinRequest(net::NodeId member, net::NodeId node,
                         uint64_t petition_epoch);
  void LeaderCheck(net::NodeId node);
  void FollowerCheck(net::NodeId node);
  void TakeOver(net::NodeId node);
  void HandleNodeFailure(net::NodeId leader, net::NodeId victim);
  void BroadcastConfig(net::NodeId leader);
  void ApplyConfig(net::NodeId node, const ClusterConfig& config);

  // Fabric NACK observer: `observer`'s operation bounced off `dst`.
  void OnTransportNack(net::NodeId observer, net::NodeId dst,
                       bool permission_revoked);
  // A member holds evidence that `suspect` is unreachable; act on it or
  // relay it towards whoever can (the leader, or the takeover candidate
  // when the leader itself is the suspect).
  void HandleSuspicion(net::NodeId member, net::NodeId suspect);
  // The one reconfiguration round: `actor` revokes `victim` at each of its
  // witnesses with a one-sided write, and once every witness is fenced it
  // promotes — HandleNodeFailure as the leader, or TakeOver when `takeover`
  // (the victim is the actor's leader). A round still open after
  // failure_timeout_ns (a revocation lost to a partition, or an actor that
  // died mid-round) is restarted by the next suspicion.
  void RevokeRound(net::NodeId actor, net::NodeId victim, bool takeover);
  // Witness `w` of `actor`'s round against `victim` is fenced: its
  // revocation completed, or a NACK showed it dead.
  void WitnessFenced(net::NodeId actor, net::NodeId victim, net::NodeId w);
  // Second phase of a round, entered once every witness is fenced.
  void FinishRound(net::NodeId actor, net::NodeId victim);
  // Redundancy witnesses of `victim` under `config`: the nodes whose
  // completion queues every commit quorum of the victim intersects. For a
  // coordinator these are the d redundant-slot nodes of its group(s) (2
  // one-sided ops in the paper-default d = 2); for a redundant-slot node,
  // the coordinators of the groups it backs.
  std::vector<net::NodeId> WitnessesOf(const ClusterConfig& config,
                                       net::NodeId victim) const;
  // Lowest live non-failed member other than `except` in `viewer`'s view,
  // or num_members() when none exists.
  net::NodeId TakeoverCandidate(net::NodeId viewer, net::NodeId except) const;

  net::Fabric* fabric_;
  std::vector<std::unique_ptr<Agent>> agents_;
  ConfigCallback on_config_;
  uint64_t config_changes_ = 0;
  bool started_ = false;
  // An open revoke round: its start time, its kind and the witnesses whose
  // revocation has not completed yet.
  struct Round {
    sim::SimTime t0 = 0;
    bool takeover = false;
    std::vector<net::NodeId> unfenced;
  };
  // Open rounds, keyed (actor << 32) | victim: dedups the NACK storm a dead
  // node causes (every probe bounces) into one round. Ordered, so the rounds
  // of one actor are a contiguous range.
  std::map<uint64_t, Round> rounds_;
  uint64_t fast_failovers_ = 0;
  uint64_t last_fast_failover_ns_ = 0;
  uint64_t revocations_issued_ = 0;
};

}  // namespace ring::consensus

#endif  // RING_SRC_CONSENSUS_MEMBERSHIP_H_
