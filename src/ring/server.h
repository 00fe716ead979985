// RingServer: one node of the Ring KVS (paper §4-§5).
//
// Each server plays up to three roles per memgest, derived from its slot in
// the cluster configuration:
//  - coordinator of its key shard (slot < s): owns the shard's virtual
//    address space, the volatile hashtable and the write path,
//  - replica for other shards of replicated memgests,
//  - parity node of erasure-coded memgests (redundant slots).
//
// All state mutations run as discrete-event work items on the node's
// single-threaded CPU model; messages travel over the simulated RDMA fabric.
#ifndef RING_SRC_RING_SERVER_H_
#define RING_SRC_RING_SERVER_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/analysis/race.h"
#include "src/common/byte_extent.h"
#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/consensus/config.h"
#include "src/net/fabric.h"
#include "src/ring/metadata.h"
#include "src/ring/registry.h"
#include "src/ring/types.h"

namespace ring {

class RingRuntime;

// ---------------------------------------------------------------------------
// Client-facing request/response types. The `reply` closure is delivered back
// to the client node over the fabric by the server.
//
// `key_hash` is HashKey(key), computed once by the client and carried through
// every server and peer hop of the operation (0 = not supplied; the server
// then computes it). It is not modeled on the wire: request sizes count the
// key bytes only.
//
// Mutations (put/move/delete) also carry the client's `floor`: its lowest
// req_id that has not completed yet. The server's at-most-once records for
// that client below the floor are dropped, and a request below it is a stale
// duplicate of an operation the client has already finished.

struct GetResult {
  Status status;
  Version version = 0;
  std::shared_ptr<Buffer> data;
};

struct PutRequest {
  Key key;
  uint64_t key_hash = 0;
  std::shared_ptr<Buffer> value;
  MemgestId memgest = kDefaultMemgest;
  net::NodeId client = 0;
  uint64_t req_id = 0;
  uint64_t floor = 0;
  uint64_t op_id = 0;  // trace id stitching client/server/redundancy spans
  bool retry = false;
  // Set when a peer relayed this request during a rebalance (§13). Forwarded
  // requests are never forwarded again — a stale second hop drops them and
  // the client's retry machinery takes over.
  bool forwarded = false;
  std::function<void(Status, Version)> reply;
};

struct GetRequest {
  Key key;
  uint64_t key_hash = 0;
  net::NodeId client = 0;
  uint64_t req_id = 0;
  uint64_t op_id = 0;
  bool retry = false;
  bool forwarded = false;
  // §16: kNonBlocking serves the newest committed version instead of
  // parking on an in-flight commit's quorum wait.
  ReadMode mode = ReadMode::kStrong;
  std::function<void(GetResult)> reply;
};

struct MoveRequest {
  Key key;
  uint64_t key_hash = 0;
  MemgestId dst = kDefaultMemgest;
  net::NodeId client = 0;
  uint64_t req_id = 0;
  uint64_t floor = 0;
  uint64_t op_id = 0;
  bool retry = false;
  // Internal re-entry of a move that was postponed on an uncommitted entry:
  // it already claimed its at-most-once slot, so the dedup check is skipped.
  bool resumed = false;
  bool forwarded = false;
  std::function<void(Status, Version)> reply;
};

struct DeleteRequest {
  Key key;
  uint64_t key_hash = 0;
  net::NodeId client = 0;
  uint64_t req_id = 0;
  uint64_t floor = 0;
  uint64_t op_id = 0;
  bool retry = false;
  bool forwarded = false;
  std::function<void(Status)> reply;
};

// Memgest management (leader-processed, paper §5.1).
struct AdminRequest {
  enum class Op {
    kCreateMemgest,
    kDeleteMemgest,
    kSetDefaultMemgest,
    kGetMemgestDescriptor,
  };
  Op op = Op::kCreateMemgest;
  MemgestDescriptor desc;
  MemgestId id = kDefaultMemgest;
  net::NodeId client = 0;
  std::function<void(Result<MemgestId>)> reply;
  // kGetMemgestDescriptor only.
  std::function<void(Result<MemgestDescriptor>)> descriptor_reply;
};

class RingServer {
 public:
  RingServer(RingRuntime* runtime, net::NodeId id);

  net::NodeId id() const { return id_; }
  bool serving() const { return serving_; }

  // Client entry points (invoked over the fabric).
  void HandlePut(PutRequest req);
  void HandleGet(GetRequest req);
  void HandleMove(MoveRequest req);
  void HandleDelete(DeleteRequest req);
  void HandleAdmin(AdminRequest req);

  // ---- peer messages ----
  // Every message about one key carries its HashKey (`key_hash`) from the
  // originating client op, so no handler rehashes the key.
  struct ReplicaAppend {
    MemgestId memgest;
    uint32_t shard;
    Key key;
    uint64_t key_hash = 0;
    Version version;
    uint64_t addr;
    uint32_t len;
    uint32_t region_len;
    bool tombstone;
    std::shared_ptr<Buffer> bytes;
    uint32_t ordinal;  // replica ordinal (ack bit)
    net::NodeId from;
    // Per-(memgest, shard) write sequence number: replay fence for chaos
    // duplicates (each append applies exactly once per replica).
    uint64_t seq = 0;
    uint64_t op_id = 0;
    // Geometry of the write (§13): group size s the shard id belongs to.
    // 0 means "receiver's current shape" (static-cluster wire default).
    uint32_t geom_s = 0;
    // The entry is a moved-marker (§13): replicated like any write so the
    // marker survives coordinator failover.
    bool moved = false;
  };
  void HandleReplicaAppend(ReplicaAppend msg);

  struct ParityUpdate {
    MemgestId memgest;
    uint32_t shard;
    Key key;
    uint64_t key_hash = 0;
    Version version;
    uint64_t addr;
    uint32_t len;
    uint32_t region_len;
    bool tombstone;
    std::shared_ptr<Buffer> delta;  // XOR of old and new region content
    uint32_t parity_index;          // which parity node (coefficient row)
    net::NodeId from;
    // Per-(memgest, shard) write sequence number: fences parity rebuild
    // against in-flight updates (apply only seq > snapshot seq).
    uint64_t seq = 0;
    uint64_t op_id = 0;
    // Geometry of the write (§13); 0 = receiver's current shape. Parity
    // buffers are per-geometry, so updates of different shapes never mix.
    uint32_t geom_s = 0;
    bool moved = false;
  };
  void HandleParityUpdate(ParityUpdate msg);

  // Asynchronous removal of a GC'd version on redundancy nodes.
  struct GcNotice {
    MemgestId memgest;
    uint32_t shard;
    Key key;
    uint64_t key_hash = 0;
    Version version;
    uint32_t geom_s = 0;  // shape of `shard`; 0 = receiver's current shape
  };
  void HandleGcNotice(GcNotice msg);

  // A promoted node finished *data* recovery for a redundancy role; the
  // coordinator may count it towards pending commits again.
  struct RedundancyRecovered {
    MemgestId memgest;
    uint32_t shard;
    uint32_t ordinal;
    uint32_t geom_s = 0;  // shape of `shard`; 0 = receiver's current shape
  };
  void HandleRedundancyRecovered(RedundancyRecovered msg);

  struct Ack {
    MemgestId memgest;
    uint32_t shard;
    Key key;
    uint64_t key_hash = 0;
    Version version;
    uint32_t ordinal;     // replica ordinal or parity index
    uint32_t geom_s = 0;  // shape of `shard`; 0 = receiver's current shape
  };
  // Acknowledgments arrive as one-sided RDMA writes into a completion region
  // the coordinator polls — no coordinator CPU is charged (DARE-style
  // offload, §6: "CPUs on redundant nodes are not involved").
  void ApplyAck(const Ack& msg);

  // ---- recovery protocol ----
  // A promoted spare asks a source node for a shard's metadata hashtable.
  struct MetaFetch {
    MemgestId memgest;
    uint32_t shard;
    net::NodeId requester;
    uint32_t geom_s = 0;  // shape of `shard`; 0 = receiver's current shape
    std::function<void(std::shared_ptr<MetadataTable>, uint64_t wire_bytes)>
        reply;
  };
  void HandleMetaFetch(MetaFetch msg);

  // On-demand erasure-coded block recovery (paper §5.5): a data node asks a
  // parity node to reconstruct `len` bytes at `addr` of `shard`.
  struct RecoverBlock {
    MemgestId memgest;
    uint32_t shard;
    uint64_t addr;
    uint32_t len;
    net::NodeId requester;
    uint64_t op_id = 0;
    uint32_t geom_s = 0;  // shape of `shard`; 0 = receiver's current shape
    std::function<void(std::shared_ptr<Buffer>)> reply;
  };
  void HandleRecoverBlock(RecoverBlock msg);

  // ---- elastic rebalance protocol (§13) ----
  // Driver -> node: report keys this node still serves at the previous
  // shape (old-placement coordinator duty not yet handed over).
  struct RebalanceScan {
    uint32_t max_keys = 0;  // 0 = unbounded
    net::NodeId requester = 0;
    std::function<void(std::vector<Key>)> reply;
  };
  void HandleRebalanceScan(RebalanceScan msg);

  // Driver -> old-shape owner: migrate one key to its new-shape owner.
  // Idempotent; replies kOk once the new owner has durably installed the
  // key (or it was already handed over / re-encoded).
  struct MigrateKey {
    Key key;
    uint64_t op_id = 0;
    net::NodeId requester = 0;
    std::function<void(Status)> reply;
  };
  void HandleMigrateKey(MigrateKey msg);

  // Old owner -> new owner: install the key's latest contents under the new
  // shape at a version >= floor (the moved-marker version, which fences all
  // old-shape writes below it).
  struct InstallKey {
    MemgestId memgest;
    Key key;
    Version floor = 0;
    std::shared_ptr<Buffer> value;  // nullptr together with tombstone=true
    bool tombstone = false;
    net::NodeId from;
    uint64_t op_id = 0;
    std::function<void(Status)> ack;  // runs back at the old owner
  };
  void HandleInstallKey(InstallKey msg);

  // Membership callback: reconfiguration / spare promotion (paper §5.5).
  void OnConfig(const consensus::ClusterConfig& config);

  // §16: a fenced node's in-flight quorum rounds can never complete (its
  // append/ack paths NACK), so drop their bookkeeping — clients finish via
  // retry against the promoted owner. Fast-failover mode only.
  void AbandonPendingWrites();

  // Crash-recovery: the process rebooted memory-less. Clears all store
  // state; the node re-enters as a non-serving spare and (if the cluster
  // readmits it into its old slot) rebuilds through the normal promotion
  // path. The fabric node object itself survives — in-flight closures hold
  // raw pointers to it.
  void Restart();

  // ---- introspection (tests & benches) ----
  struct Counters {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t moves = 0;
    uint64_t deletes = 0;
    uint64_t commits = 0;
    uint64_t parity_updates = 0;
    uint64_t replica_appends = 0;
    uint64_t blocks_recovered = 0;
    uint64_t deferred_gets = 0;
    // kNonBlocking reads answered from an older committed version while the
    // newest version's quorum was still in flight (§16).
    uint64_t nonblocking_gets = 0;
    // Duplicate client requests answered from the at-most-once records.
    uint64_t resent_replies = 0;
    // Client mutations dropped because their req_id was below the client's
    // floor (the client had already completed them).
    uint64_t stale_requests = 0;
    // At-most-once records evicted by the per-client cap before the client's
    // floor passed them (a caller that never advances its floor).
    uint64_t dedup_evictions = 0;
    // Duplicate backup messages absorbed by the replay fences.
    uint64_t dup_backups = 0;
    // Backup messages resent by the write-retransmit timer.
    uint64_t retransmits = 0;
    // Reads/moves that found their version garbage-collected (region
    // reused) after the data-copy CPU charge and restarted resolution —
    // the validate-and-retry of the paper's optimistic one-sided reads.
    uint64_t op_restarts = 0;
    // ---- elastic rebalance (§13) ----
    // Client requests relayed to the key's authoritative owner during a
    // shape transition.
    uint64_t forwards = 0;
    // Requests dropped by epoch fencing (stale shape, mid-handoff).
    uint64_t fenced_drops = 0;
    // Keys handed to a new-shape owner (marker + install completed).
    uint64_t keys_migrated = 0;
    // Payload bytes shipped in acknowledged installs (old-owner side).
    uint64_t bytes_moved = 0;
    // Keys re-encoded locally (owner unchanged, shape changed).
    uint64_t keys_reencoded = 0;
    // InstallKey messages applied (new-owner side).
    uint64_t installs = 0;
  };
  const Counters& counters() const { return counters_; }

  // Serialized size of all metadata hashtables on this node (Fig. 12 x-axis).
  uint64_t TotalMetadataBytes() const;
  // Bytes of heap/parity memory allocated (high-water marks).
  uint64_t StoredBytes() const;
  // Bytes attributable to *live* objects: region bytes of every metadata
  // entry on this node, plus 1/k of the region bytes covered by each parity
  // store (a parity node's amortized share of a balanced stripe). This is
  // the measure the memory-saving use cases (§2, §6.2) compare.
  uint64_t LiveBytes() const;
  // Duration of the last completed promotion (metadata recovery), ns.
  uint64_t last_recovery_ns() const { return last_recovery_ns_; }

  // Model-checker state fingerprint (src/mc): order-insensitive hash of this
  // node's committed key-value state — (memgest, store, key, version,
  // tombstone, value bytes) tuples, sorted before hashing so metadata-table
  // iteration order and heap placement never leak in. Excludes timestamps,
  // counters and in-flight entries: schedules that commute must digest equal.
  uint64_t McStateDigest() const;
  // Writes still awaiting redundancy acks (un-committed, acks outstanding).
  // The MC wedged-write oracle: after full quiesce this must be zero.
  uint64_t PendingWrites() const;
  // Committed, non-tombstone, non-moved versions of `key` held on this node,
  // newest first, deduplicated across stores. The §16 multiversion GC bound
  // tests assert |result| ≤ ν+1 at quiescence and that the newest committed
  // version is never evicted.
  std::vector<Version> RetainedCommittedVersions(const Key& key) const;
  // Kick off background reconstruction of every missing object; `done` fires
  // when the node is fully re-populated.
  void RecoverAllData(std::function<void()> done);

  // Raw heap bytes for peer-driven recovery (RDMA read target: runs at this
  // node without CPU involvement). Returns zeros beyond the heap extent.
  // geom_s == 0 means the current shape.
  Buffer ReadRawForRecovery(MemgestId memgest, uint32_t shard, uint64_t addr,
                            uint32_t len, uint32_t geom_s = 0);
  // Raw parity bytes (RDMA read target), zeros beyond extent. geom_s == 0
  // means the current shape.
  Buffer ReadRawParity(MemgestId memgest, uint32_t group, uint64_t addr,
                       uint32_t len, uint32_t geom_s = 0);
  // True when this node's parity buffer for `memgest`/`group` under the
  // given shape (0 = current) is usable for decode.
  bool ParityUsable(MemgestId memgest, uint32_t group,
                    uint32_t geom_s = 0) const;
  // Current heap extent and write fence of a shard store (RDMA-read targets
  // during parity rebuild). geom_s == 0 means the current shape.
  uint64_t HeapExtent(MemgestId memgest, uint32_t shard,
                      uint32_t geom_s = 0) const;
  uint64_t WriteSeq(MemgestId memgest, uint32_t shard,
                    uint32_t geom_s = 0) const;
  // Drops all local state of a deleted memgest (leader broadcast target).
  void ApplyMemgestDelete(MemgestId memgest);

 private:
  // Sliding-window replay fence: one bit per write sequence number in
  // [base, base + kWindow), so chaos-duplicated backup messages execute at
  // most once. A sequence past the window slides it forward; sequences below
  // `base` are treated as already seen.
  struct SeqWindow {
    static constexpr uint64_t kWindow = 4096;
    std::array<uint64_t, kWindow / 64> bits{};
    uint64_t base = 0;

    // True exactly once per sequence number.
    bool MarkOnce(uint64_t seq);
  };

  // Per-shard object store: a virtual address space (heap) plus the shard's
  // metadata hashtable. Coordinators own one for their shard; replicas hold
  // mirrors for shards they back. The heap grows in place and reads as zero
  // until written (DESIGN.md §17.7).
  struct ShardStore {
    ByteExtent heap;
    uint64_t next_addr = 0;
    uint64_t write_seq = 0;  // fencing counter for parity rebuild
    std::vector<std::pair<uint64_t, uint32_t>> free_list;  // (addr, len)
    MetadataTable meta;
    // Replay fence for ReplicaAppend duplicates on this mirror.
    SeqWindow replica_seqs;

    // Reuses a freed region when possible (keeps parity deltas cheap),
    // otherwise extends the heap. Returns (addr, region_len).
    std::pair<uint64_t, uint32_t> Allocate(uint32_t len);
    void EnsureSize(uint64_t size);
    void Write(uint64_t addr, ByteSpan bytes);
    ByteSpan Read(uint64_t addr, uint32_t len) const;
  };

  // Parity node state for one erasure-coded memgest: the parity buffer plus
  // replicated metadata of every data shard in the stripe (§5.4: parity
  // nodes store more metadata than data nodes).
  struct ParityStore {
    uint32_t parity_index = 0;
    ByteExtent mem;
    std::map<uint32_t, MetadataTable> shard_meta;
    // False on a freshly promoted parity node until the buffer is
    // reconstructed from the data shards; unrebuilt parity must not serve
    // decodes and queues incoming updates.
    bool rebuilt = true;
    std::vector<ParityUpdate> queued;
    // Replay fences for ParityUpdate duplicates, per data shard. Parity
    // XOR-accumulation is not idempotent, so a duplicated update must never
    // apply twice (and must still re-ack: the first ack may have been lost).
    std::map<uint32_t, SeqWindow> applied_seqs;

    void EnsureSize(uint64_t size);
  };

  struct MemgestState {
    const MemgestInfo* info = nullptr;
    // Own shards + replica mirrors, keyed by GeomKey(geom_s, shard) so each
    // shape keeps a private address space (§13).
    std::map<uint32_t, ShardStore> stores;
    // Parity stores, one per (shape, group) whose rotation put a parity role
    // on this node (§5.4 balancing: with groups > 1 parity spreads out),
    // keyed by GeomKey(geom_s, group).
    std::map<uint32_t, ParityStore> parity;
    uint64_t log_len = 0;
  };

  sim::CpuWorker& cpu();
  obs::Hub& hub();
  // Race-detector hook: logs an access to a declared region of this node's
  // protocol state ([lo, hi) bytes within `scope` of `kind`). One branch and
  // out when analysis is off. Key-addressed regions use the carried key hash
  // as the address, so call sites never hash.
  void NoteAccess(analysis::RegionKind kind, analysis::AccessKind access,
                  uint64_t scope, uint64_t lo, uint64_t hi, const char* site);
  const consensus::ClusterConfig& config() const { return config_; }
  bool IsAlive() const;
  // True when this node currently coordinates `shard`.
  bool Coordinates(uint32_t shard) const;
  int32_t slot() const { return config_.slot_of_node[id_]; }

  // ---- elastic rebalance helpers (§13) ----
  // Placement view for a shape. 0 or the current s -> current placement;
  // the previous shape only while rebalancing(); nullopt otherwise — the
  // caller treats that as an epoch-fenced (stale) operation and drops.
  std::optional<consensus::Placement> PlacementFor(uint32_t geom_s) const;
  // Routing decision for a client op on `key`. On a static cluster this is
  // the plain Coordinates check; during a rebalance the key is served by
  // its old-shape owner until its moved-marker lands, then by the new-shape
  // owner, with one forwarding hop bridging stale client configs.
  struct RouteAction {
    enum class Kind { kServe, kForward, kDrop };
    Kind kind = Kind::kDrop;
    uint32_t shard = 0;      // kServe: shard id under `geom_s`
    uint32_t geom_s = 0;     // kServe: shape the shard id belongs to
    net::NodeId target = 0;  // kForward
  };
  // `hash` is HashKey(key) throughout the private API below.
  RouteAction RouteKey(const Key& key, uint64_t hash, bool forwarded);
  // Entry lookup across the live shapes: tries the current-shape shard,
  // then (while rebalancing) the previous-shape shard. Fills *shard_out
  // with the shard id (and *geom_out with the shape) the entry was found
  // under.
  MetaEntry* FindEntry(const MemgestInfo& info, const Key& key, uint64_t hash,
                       Version version, uint32_t* shard_out,
                       uint32_t* geom_out);
  // Shard stores and parity stores are keyed per (shape, shard-or-group):
  // each geometry gets its own heap address space and stripe buffers, so
  // parity accumulated under one stripe layout never mixes with bytes laid
  // out under another.
  static constexpr uint32_t GeomKey(uint32_t geom_s, uint32_t idx) {
    return (geom_s << 16) | idx;
  }
  // Drops every entry, store and parity buffer of shapes other than the
  // current one; runs on the rebalancing -> static config edge.
  void PurgeStaleGeometries();
  // §13 handoff step 2: after the moved-marker at `floor` committed, ship
  // the key's latest durable contents to its new-shape owner and reply to
  // the driver once the install is acknowledged.
  void SendInstall(const MemgestInfo& info, const Key& key, uint32_t shard,
                   uint32_t geom_s, Version floor,
                   std::function<void(Status)> reply);

  MemgestState& StateOf(const MemgestInfo& info);
  // The store for `shard` under shape `geom_s` (0 = current).
  ShardStore& StoreOf(MemgestState& state, uint32_t shard,
                      uint32_t geom_s = 0);

  // Write path pieces. `shard` is a shard id under `geom_s` (0 = current
  // shape); `moved` writes a §13 moved-marker entry.
  void StartWrite(const MemgestInfo& info, uint32_t shard, const Key& key,
                  uint64_t hash, Version version,
                  std::shared_ptr<Buffer> value, bool tombstone,
                  sim::Task on_commit, uint32_t geom_s = 0,
                  bool moved = false);
  // Sends the backup message for `ordinal` (replica ordinal or parity index)
  // of the write recorded in `entry`: on the first send and on every
  // retransmission, rebuilt from the entry each time.
  void SendBackup(const MemgestInfo& info, uint32_t shard, const Key& key,
                  uint64_t hash, const MetaEntry& entry, uint32_t ordinal,
                  uint32_t slot, const std::shared_ptr<Buffer>& bytes);
  void CommitEntry(const MemgestInfo& info, uint32_t shard, const Key& key,
                   uint64_t hash, Version version, uint32_t geom_s = 0);
  // Resends un-acked backup messages for a pending write every
  // write_retransmit_ns until it commits (no-op when the period is 0).
  void ScheduleWriteRetransmit(MemgestId gid, uint32_t shard, uint32_t geom_s,
                               const Key& key, uint64_t hash, Version version);
  // Collects the versions of `key` below `below` (past the ν retained
  // ones). Their heap regions return to the allocator unless
  // `reclaim_regions` is false.
  void GcOldVersions(const Key& key, uint64_t hash, Version below,
                     bool reclaim_regions = true);

  // Read path pieces.
  // Resolves the highest version of req.key and dispatches DeliverGet.
  // Called once per get and again whenever validate-and-retry detects that
  // the resolved version was garbage-collected mid-read. `rerouted` marks
  // the re-route of a moved entry: it forwards or drops, and answers
  // kUnavailable when the key still routes to this node, never recursing.
  void ResolveGet(GetRequest req, bool rerouted = false);
  void DeliverGet(const MemgestInfo& info, uint32_t shard, uint32_t geom_s,
                  MetaEntry* entry, GetRequest req);
  // Copies the committed, locally present `version` out of the heap (one
  // CPU charge) and replies, revalidating the entry after the charge.
  void ServeCommittedGet(const MemgestInfo& info, uint32_t shard,
                         uint32_t geom_s, Version version, GetRequest req);
  void EnsureDataPresent(const MemgestInfo& info, uint32_t shard,
                         uint32_t geom_s, const Key& key, uint64_t hash,
                         Version version, std::function<void(Status)> then);

  // Recovery pieces. `geom_s` selects the shape a shard id belongs to
  // (0 = current); during a rebalance a promoted node recovers both shapes.
  void BeginPromotion(uint32_t new_slot);
  void FetchShardMetadata(const MemgestInfo& info, uint32_t shard,
                          bool as_parity, uint32_t geom_s,
                          std::function<void()> done);
  // One source's fetch, re-sent on a timer until its reply lands (the flag
  // also swallows chaos-duplicated replies). A lost MetaFetch must not wedge
  // the promotion: the node would stay non-serving forever.
  void SendMetaFetchAttempt(
      const MemgestInfo& info, uint32_t shard, uint32_t geom,
      int32_t src_slot, std::shared_ptr<bool> responded,
      std::function<void(std::shared_ptr<MetadataTable>, uint64_t)> reply);
  // Alive holders of a shard's metadata, preference-ordered. All of them
  // for replicated schemes (quorum commit: survivors must be unioned), one
  // for erasure coding (every parity node has the full table).
  std::vector<int32_t> AliveMetaSources(const MemgestInfo& info,
                                        uint32_t shard, uint32_t geom_s) const;
  void RebuildVolatileIndex();
  // Promotion: collects superseded versions the metadata union brought back
  // from redundancy nodes that missed their GC notice.
  void CollectResurrectedVersions();
  void NotifyRedundancyRecovered();
  void RebuildParity(const MemgestInfo& info, uint32_t pkey,
                     std::function<void()> done);
  void ApplyParityBytes(const MemgestInfo& info, const ParityUpdate& msg);
  void RecoverStoreEntries(const MemgestInfo& info, uint32_t shard,
                           uint32_t geom_s,
                           std::vector<std::pair<Key, Version>> todo,
                           size_t next, std::function<void()> done);

  void ReplyToClient(net::NodeId client, uint64_t bytes, sim::Task fn);
  void SendToSlot(uint32_t slot_index, uint64_t bytes, sim::Task fn);
  void SendToNode(net::NodeId node, uint64_t bytes, sim::Task fn);

  // CPU-shard homing (cores_per_node > 1). Client operations on a key run
  // on the shard derived from the key's current-shape shard id, so each
  // coordinator-owned ShardStore is touched by exactly one CPU shard.
  // Backup-side work homes on the ids carried by the message instead
  // (replica appends by shard, parity updates by group) — see the handlers.
  // With one core everything maps to shard 0.
  uint32_t HomeShardForHash(uint64_t hash);

  // At-most-once execution of client mutations (RIFL-style per-client
  // completion records). ClaimClientOp first applies the request's floor,
  // then returns true exactly once per (client, req_id): the caller may
  // execute the operation. On a duplicate whose outcome was already
  // recorded, the outcome is re-sent through the duplicate's own `reply`; a
  // duplicate of a still-executing op, or one below the floor, is dropped.
  // ReplyToClientOnce records the outcome against the claim and replies.
  template <typename Reply>
  bool ClaimClientOp(net::NodeId client, uint64_t req_id, uint64_t floor,
                     const Reply& reply);
  template <typename Reply>
  void ReplyToClientOnce(net::NodeId client, uint64_t req_id, Reply reply,
                         Status status, Version version = 0);
  // Sends a mutation outcome to the client through `reply`.
  template <typename Reply>
  void SendOutcome(net::NodeId client, Reply reply, Status status,
                   Version version);
  // The outcome of one client mutation, recorded so a duplicate can be
  // answered without re-executing it.
  struct ClientOpRecord {
    uint64_t req_id = 0;
    bool done = false;
    Status status;
    Version version = 0;
  };
  // One client's records, ascending by req_id, all at or above `floor`.
  // Records [head, records.size()) are live; the dead prefix is compacted
  // away once it outgrows the live part.
  struct ClientOps {
    uint64_t floor = 0;
    size_t head = 0;
    std::vector<ClientOpRecord> records;

    // The first live record whose req_id is not below `req_id`.
    std::vector<ClientOpRecord>::iterator Seek(uint64_t req_id);
  };
  ClientOpRecord* FindClientOp(net::NodeId client, uint64_t req_id);

  RingRuntime* rt_;
  net::NodeId id_;
  consensus::ClusterConfig config_;
  VolatileIndex volatile_index_;
  std::map<MemgestId, MemgestState> memgests_;
  bool serving_ = true;  // spares flip to false until promoted & recovered
  bool is_spare_ = true;
  // Set while the cluster considers this node failed (its slot was marked
  // dark). Cleared when a later config readmits it; the transition drives
  // the rejoin edge in OnConfig.
  bool excluded_ = false;
  uint64_t last_recovery_ns_ = 0;
  Counters counters_;
  // At-most-once records for client mutations, indexed by client node id.
  // A client's records are trimmed by the floor its requests carry; a client
  // may keep many ops in flight, so the records span its whole in-flight
  // window. kClientOpWindow caps one client's live records for callers that
  // never advance the floor: the oldest record is then evicted (counted in
  // dedup_evictions) and the floor raised past it, so a late duplicate of it
  // is dropped rather than re-executed.
  std::vector<ClientOps> client_ops_;
  static constexpr size_t kClientOpWindow = 8192;
};

}  // namespace ring

#endif  // RING_SRC_RING_SERVER_H_
