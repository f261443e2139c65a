//! Deployment topologies and crash orchestration.
//!
//! A [`Deployment`] owns TCs, DCs and the transports between them, and
//! can inject the paper's partial failures (Section 5.3): crash a DC
//! (volatile cache + unforced DC-log tail lost), crash a TC (transaction
//! state + unforced TC-log tail lost), or both — then drive the restart
//! conversations and resume.

use crate::transport::{DcSlot, FaultModel, InlineLink, QueuedLink, ReplySink};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use unbundled_core::{DcId, DcToTc, Lsn, SplitError, TableId, TableSpec, TcId, TcShardMap};
use unbundled_dc::{DcConfig, DcLogRecord, DcServer};
use unbundled_storage::{ForceArbiter, LogStore, SimDisk};
use unbundled_tc::{DcLink, TableRoute, Tc, TcConfig, TcLogRecord};

/// Which transport connects a TC to a DC.
#[derive(Clone)]
pub enum TransportKind {
    /// Synchronous call (multi-core / shared memory deployment).
    Inline,
    /// Worker threads + channel, with fault injection (cloud deployment).
    Queued {
        /// Fault model for operation traffic.
        faults: FaultModel,
        /// DC worker threads serving this link.
        workers: usize,
        /// Max queued `Perform` messages coalesced into one
        /// `PerformBatch` per delivery (≤ 1 disables batching). The
        /// knob applies symmetrically: the acks for a request batch
        /// travel back as one `ReplyBatch` datagram, sized by the same
        /// limit (see [`QueuedLink::set_reply_batch`] to override the
        /// reply direction alone, e.g. for ablation experiments).
        batch: usize,
    },
}

struct DcNode {
    cfg: DcConfig,
    disk: SimDisk,
    log: Arc<LogStore<DcLogRecord>>,
    slot: Arc<DcSlot>,
    server: Mutex<Arc<DcServer>>,
    tables: Mutex<Vec<TableSpec>>,
    /// `Some(primary)` while this node is a read-only replica; cleared
    /// by promotion.
    replica_of: Mutex<Option<DcId>>,
    /// A deposed primary stays fenced across reboots.
    fenced: Mutex<bool>,
}

/// A TC→replica wiring record (reboots re-register it; promotions
/// extend the lineage).
struct ReplicaConn {
    replica: DcId,
    sources: Vec<DcId>,
    kind: TransportKind,
}

struct TcNode {
    cfg: TcConfig,
    log: Arc<LogStore<TcLogRecord>>,
    /// `Arc` so the replication pump thread follows TC reboots.
    tc: Arc<Mutex<Arc<Tc>>>,
    sink: Arc<ReplySink>,
    connections: Mutex<Vec<(DcId, TransportKind)>>,
    routes: Mutex<Vec<(TableId, TableRoute)>>,
    queued_links: Mutex<Vec<Arc<QueuedLink>>>,
    replica_connections: Mutex<Vec<ReplicaConn>>,
    /// Failover history, replayed into a rebuilt TC as aliases.
    promotions: Mutex<Vec<(DcId, DcId)>>,
}

/// A running unbundled-kernel deployment.
pub struct Deployment {
    dcs: HashMap<DcId, DcNode>,
    tcs: HashMap<TcId, TcNode>,
    /// Key-range → TC shard map, if the TC tier is sharded. Re-applied
    /// (with the all-to-all peer wiring) whenever a TC is rebuilt.
    shard_map: Mutex<Option<TcShardMap>>,
    /// Serializes online shard moves: a TC runs one rebalance at a
    /// time, and the map-read → fence → republish sequence must not
    /// interleave between two movers (e.g. an operator and the
    /// automatic rebalance policy driving moves concurrently).
    move_gate: Mutex<()>,
}

impl Deployment {
    /// Empty deployment.
    pub fn new() -> Self {
        Deployment {
            dcs: HashMap::new(),
            tcs: HashMap::new(),
            shard_map: Mutex::new(None),
            move_gate: Mutex::new(()),
        }
    }

    /// Add a freshly formatted DC.
    pub fn add_dc(&mut self, id: DcId, cfg: DcConfig) {
        let disk = SimDisk::new();
        let log = Arc::new(LogStore::new());
        let server = Arc::new(DcServer::format(id, cfg.clone(), disk.clone(), log.clone()));
        let slot = DcSlot::new(server.clone());
        self.dcs.insert(
            id,
            DcNode {
                cfg,
                disk,
                log,
                slot,
                server: Mutex::new(server),
                tables: Mutex::new(Vec::new()),
                replica_of: Mutex::new(None),
                fenced: Mutex::new(false),
            },
        );
    }

    /// Add a freshly formatted **read-only replica** of primary `of`:
    /// same tables, own disk and DC log, mutations fenced off until
    /// promotion. Wire it to a TC with [`Deployment::connect_replica`].
    pub fn add_replica(&mut self, replica: DcId, of: DcId, cfg: DcConfig) {
        let specs: Vec<TableSpec> = self.dcs[&of].tables.lock().clone();
        let disk = SimDisk::new();
        let log = Arc::new(LogStore::new());
        let server = Arc::new(DcServer::format_replica(
            replica,
            cfg.clone(),
            disk.clone(),
            log.clone(),
        ));
        for spec in &specs {
            server.create_table(spec.clone());
        }
        let slot = DcSlot::new(server.clone());
        self.dcs.insert(
            replica,
            DcNode {
                cfg,
                disk,
                log,
                slot,
                server: Mutex::new(server),
                tables: Mutex::new(specs),
                replica_of: Mutex::new(Some(of)),
                fenced: Mutex::new(false),
            },
        );
    }

    /// Add a TC.
    pub fn add_tc(&mut self, id: TcId, cfg: TcConfig) {
        let log = Arc::new(LogStore::new());
        let tc = Tc::new(id, cfg.clone(), log.clone());
        let sink = ReplySink::new(tc.clone());
        self.tcs.insert(
            id,
            TcNode {
                cfg,
                log,
                tc: Arc::new(Mutex::new(tc)),
                sink,
                connections: Mutex::new(Vec::new()),
                routes: Mutex::new(Vec::new()),
                queued_links: Mutex::new(Vec::new()),
                replica_connections: Mutex::new(Vec::new()),
                promotions: Mutex::new(Vec::new()),
            },
        );
    }

    /// Connect a TC to a DC over a transport.
    pub fn connect(&self, tc: TcId, dc: DcId, kind: TransportKind) {
        let tnode = &self.tcs[&tc];
        let dnode = &self.dcs[&dc];
        let link = self.make_link(tnode, dnode, &kind);
        tnode.tc.lock().register_dc(dc, link);
        tnode.connections.lock().push((dc, kind));
    }

    /// Connect a TC's shipper to a replica added with
    /// [`Deployment::add_replica`]: committed redo flows out over the
    /// link as `ShipBatch` datagrams (faultable like operation traffic)
    /// and the TC's bounded-staleness read routing may serve reads from
    /// it.
    pub fn connect_replica(&self, tc: TcId, replica: DcId, kind: TransportKind) {
        let tnode = &self.tcs[&tc];
        let rnode = &self.dcs[&replica];
        let of = rnode
            .replica_of
            .lock()
            .expect("connect_replica target must be an add_replica node");
        let link = self.make_link(tnode, rnode, &kind);
        tnode.tc.lock().register_replica(replica, of, link);
        tnode.replica_connections.lock().push(ReplicaConn {
            replica,
            sources: vec![of],
            kind,
        });
    }

    fn make_link(&self, tnode: &TcNode, dnode: &DcNode, kind: &TransportKind) -> Arc<dyn DcLink> {
        match kind {
            TransportKind::Inline => InlineLink::new(dnode.slot.clone(), tnode.sink.clone()),
            TransportKind::Queued {
                faults,
                workers,
                batch,
            } => {
                let link = QueuedLink::new(
                    dnode.slot.clone(),
                    tnode.sink.clone(),
                    faults.clone(),
                    *workers,
                    *batch,
                );
                tnode.queued_links.lock().push(link.clone());
                link
            }
        }
    }

    /// Create a table at a DC (propagated to its replicas) and record it
    /// for experiments.
    pub fn create_table(&self, dc: DcId, spec: TableSpec) {
        let node = &self.dcs[&dc];
        node.server.lock().create_table(spec.clone());
        node.tables.lock().push(spec.clone());
        for (rid, rnode) in &self.dcs {
            if *rid != dc && *rnode.replica_of.lock() == Some(dc) {
                rnode.server.lock().create_table(spec.clone());
                rnode.tables.lock().push(spec.clone());
            }
        }
    }

    /// Declare a table route at a TC.
    pub fn route(&self, tc: TcId, table: TableId, route: TableRoute) {
        let node = &self.tcs[&tc];
        node.tc.lock().register_table(table, route.clone());
        node.routes.lock().push((table, route));
    }

    /// Shard the TC tier by key range: install `map` (key-range → TC)
    /// at every TC and wire the shards all-to-all as 2PC peers. Each
    /// shard forwards operations on keys it does not own to the owning
    /// shard and coordinates two-phase commit for transactions that
    /// spanned shards. Peer handles point at the TC nodes' cells, so
    /// they survive shard reboots; the map and wiring are re-applied
    /// (before recovery, which resolves in-doubt branches through the
    /// peers) whenever [`Deployment::reboot_tc`] rebuilds a shard.
    pub fn set_shard_map(&self, map: TcShardMap) {
        *self.shard_map.lock() = Some(map.clone());
        for (id, node) in &self.tcs {
            let tc = node.tc.lock().clone();
            tc.set_shard_map(map.clone());
            for (other, onode) in &self.tcs {
                if other != id {
                    tc.register_peer(*other, onode.tc.clone());
                }
            }
        }
    }

    /// The currently published shard map, if the TC tier is sharded.
    pub fn shard_map(&self) -> Option<TcShardMap> {
        self.shard_map.lock().clone()
    }

    // ------------------------------------------------------------------
    // Elastic repartitioning (online split/merge)
    // ------------------------------------------------------------------

    /// Split the partition containing `at` at that bound and hand the
    /// upper piece to `to`, online. See [`Deployment::move_range`] for
    /// the protocol.
    ///
    /// An invalid cut — `at` on an existing partition bound (the shape
    /// every proposed cut of an empty shard takes: with no observable
    /// median key, any `at` collapses onto a bound), or `to` already
    /// owning the partition — is **rejected with a typed error** before
    /// any fence or log record exists. Nothing moved, nothing to undo;
    /// both the manual path and the rebalance policy get a value to
    /// react to instead of a panicked mover thread.
    pub fn split_shard(&self, at: u64, to: TcId) -> Result<(), SplitError> {
        let _moves = self.move_gate.lock();
        let map = self
            .shard_map
            .lock()
            .clone()
            .expect("split_shard requires a sharded TC tier");
        let new_map = map.split(at, to)?;
        // The moving piece is the upper part of the *old* partition cut
        // at `at`. The new map may coalesce that piece with an adjacent
        // range `to` already owned — which the source does not own and
        // must not fence.
        let (_, hi, _) = map.range_containing(at);
        self.move_range_to(at, hi, to, new_map);
        Ok(())
    }

    /// Merge the partition starting at `bound` into the partition below
    /// it (the lower partition's owner absorbs the range), online. See
    /// [`Deployment::move_range`] for the protocol.
    pub fn merge_shards(&self, bound: u64) {
        let _moves = self.move_gate.lock();
        let map = self
            .shard_map
            .lock()
            .clone()
            .expect("merge_shards requires a sharded TC tier");
        let (lo, hi, _) = map.range_containing(bound);
        let new_map = map.merge_at(bound);
        let to = new_map.range_containing(lo).2;
        self.move_range_to(lo, hi, to, new_map);
    }

    /// Move ownership of `[lo, hi]` (inclusive) to `to`, online: fence
    /// and drain the range at the source shard, force the write-ahead
    /// `RebalanceIntent`/`RebalanceDone` records through its redo log,
    /// then republish the epoch-bumped map to every shard. In-flight
    /// transactions on the moving range either finish before the
    /// handoff (drain) or block briefly on the fence and resume against
    /// the new owner; forwarded operations carry the sender's map epoch
    /// and a stale-epoch forward is rejected and re-routed rather than
    /// executed on the wrong shard.
    pub fn move_range(&self, lo: u64, hi: u64, to: TcId) {
        let _moves = self.move_gate.lock();
        let map = self
            .shard_map
            .lock()
            .clone()
            .expect("move_range requires a sharded TC tier");
        let new_map = map.with_range_owner(lo, hi, to, map.epoch() + 1);
        self.move_range_to(lo, hi, to, new_map);
    }

    fn move_range_to(&self, lo: u64, hi: u64, to: TcId, new_map: TcShardMap) {
        let map = self
            .shard_map
            .lock()
            .clone()
            .expect("rebalance requires a sharded TC tier");
        let src_id = map.range_containing(lo).2;
        if src_id == to {
            // Pure coalescing (merge into the same owner): no authority
            // moves, so no fence/drain — just republish the new bounds.
            self.set_shard_map(new_map);
            return;
        }
        let src = self.tcs[&src_id].tc.lock().clone();
        src.begin_rebalance(lo, hi, to, new_map.epoch())
            .unwrap_or_else(|e| panic!("rebalance intent at {src_id} failed: {e}"));
        // Drain: wait for every in-flight transaction holding a shard
        // point in the moving range to finish. Distributed members may
        // be waiting on 2PC outcomes from peers, so pump decision
        // redelivery and in-doubt resolution while we wait.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !src.rebalance_drained(lo, hi) {
            for node in self.tcs.values() {
                let t = node.tc.lock().clone();
                t.redeliver_decisions();
                t.resolve_indoubt();
            }
            if std::time::Instant::now() > deadline {
                panic!("rebalance drain of [{lo:#x}, {hi:#x}] at {src_id} did not complete");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        src.finish_rebalance(lo, hi, to, new_map.epoch())
            .unwrap_or_else(|e| panic!("rebalance done at {src_id} failed: {e}"));
        // RebalanceDone is stable at the source before any shard learns
        // the new map: a crash after this point completes the move from
        // the source's log (see `reboot_tc`), a crash before it leaves
        // the old map in force everywhere.
        self.set_shard_map(new_map);
    }

    /// Colocate the given TC shards' redo logs on one physical log
    /// device: every flush they issue is arbitrated (serialized, and —
    /// with a coalescing arbiter — shared) by `arbiter`.
    pub fn colocate_tc_logs(&self, tcs: &[TcId], arbiter: Arc<ForceArbiter>) {
        for id in tcs {
            self.tcs[id].log.attach_arbiter(arbiter.clone());
        }
    }

    /// The current TC instance.
    pub fn tc(&self, id: TcId) -> Arc<Tc> {
        self.tcs[&id].tc.lock().clone()
    }

    /// The current DC server instance.
    pub fn dc(&self, id: DcId) -> Arc<DcServer> {
        self.dcs[&id].server.lock().clone()
    }

    /// The DC's log store (experiment accounting).
    pub fn dc_log(&self, id: DcId) -> &Arc<LogStore<DcLogRecord>> {
        &self.dcs[&id].log
    }

    /// The TC's log store (experiment accounting).
    pub fn tc_log(&self, id: TcId) -> &Arc<LogStore<TcLogRecord>> {
        &self.tcs[&id].log
    }

    /// The TC's live queued links (transport accounting: drops,
    /// reorders, batches formed).
    pub fn queued_links(&self, id: TcId) -> Vec<Arc<QueuedLink>> {
        self.tcs[&id].queued_links.lock().clone()
    }

    /// All TC ids.
    pub fn tc_ids(&self) -> Vec<TcId> {
        let mut v: Vec<TcId> = self.tcs.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// All DC ids.
    pub fn dc_ids(&self) -> Vec<DcId> {
        let mut v: Vec<DcId> = self.dcs.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// One cluster-wide metrics snapshot: every component registry —
    /// per TC its stats, lock-manager and TC-log registries; per DC its
    /// engine stats and DC-log registries — merged by metric name
    /// (counters sum, gauges take the max, histograms merge).
    pub fn observe(&self) -> unbundled_obs::RegistrySnapshot {
        let mut snaps = Vec::new();
        for id in self.tc_ids() {
            let tc = self.tc(id);
            snaps.push(tc.stats().registry().snapshot());
            snaps.push(tc.lock_manager().registry().snapshot());
            snaps.push(self.tc_log(id).registry().snapshot());
        }
        for id in self.dc_ids() {
            let dc = self.dc(id);
            snaps.push(dc.engine().stats().registry().snapshot());
            snaps.push(self.dc_log(id).registry().snapshot());
        }
        unbundled_obs::merge_snapshots(snaps)
    }

    // ------------------------------------------------------------------
    // Partial failures (Section 5.3)
    // ------------------------------------------------------------------

    /// Crash a DC: volatile cache and unforced DC-log tail are lost;
    /// messages to it are dropped until [`Deployment::reboot_dc`].
    pub fn crash_dc(&self, id: DcId) {
        let node = &self.dcs[&id];
        node.slot.take_down();
        node.server.lock().engine().crash_volatile();
    }

    /// Rebuild a DC node's server from stable state, honoring its role:
    /// replicas recover in replica mode (resuming at their persisted
    /// durable frontier), deposed primaries come back fenced.
    fn rebuild_dc_server(&self, id: DcId) -> (Arc<DcServer>, bool) {
        let node = &self.dcs[&id];
        let is_replica = node.replica_of.lock().is_some();
        let server = Arc::new(if is_replica {
            DcServer::recover_replica(id, node.cfg.clone(), node.disk.clone(), node.log.clone())
        } else {
            DcServer::recover(id, node.cfg.clone(), node.disk.clone(), node.log.clone())
        });
        if *node.fenced.lock() {
            server.fence();
        }
        *node.server.lock() = server.clone();
        node.slot.install(server.clone());
        (server, is_replica)
    }

    /// Reboot a DC from stable state: DC-local recovery runs first
    /// (structures made well-formed), the crash prompt is delivered to
    /// every connected TC, and each TC drives redo (`recover_dc`). A
    /// rebooted *replica* instead announces its durable frontier to its
    /// shipping TCs — read routing immediately stops treating it as
    /// fresh, and the shipper resends from the regressed frontier. No
    /// restart conversation runs for a replica (and none may: TC-driven
    /// redo would push uncommitted operations into it).
    pub fn reboot_dc(&self, id: DcId) {
        let (server, is_replica) = self.rebuild_dc_server(id);
        if is_replica {
            self.announce_replica_reboot(id, &server);
            return;
        }
        // Out-of-band prompt (Section 4.2.1) + TC-driven redo.
        for (tcid, tnode) in &self.tcs {
            let connected = tnode.connections.lock().iter().any(|(d, _)| *d == id);
            if connected {
                let tc = tnode.tc.lock().clone();
                tc.deliver(DcToTc::Crashed { dc: id });
                for prompted in tc.take_crash_prompts() {
                    tc.recover_dc(prompted).unwrap_or_else(|e| {
                        panic!("TC {tcid} failed to recover DC {prompted}: {e}")
                    });
                }
            }
        }
    }

    /// Crash a TC: its transaction state and unforced log tail are lost.
    pub fn crash_tc(&self, id: TcId) {
        let node = &self.tcs[&id];
        node.tc.lock().crash_volatile();
        // A rebooted TC opens fresh connections: drain and drop the old
        // queued links so no pre-crash operation can straggle in later.
        for l in node.queued_links.lock().drain(..) {
            l.shutdown();
        }
    }

    /// Reboot a TC from its stable log: rebuild, re-wire (promotion
    /// aliases and replica registrations included), re-register tables,
    /// and run restart (reset conversations + logical redo + loser
    /// rollback). The rebuilt shipper restarts from the log base and
    /// re-ships; replicas suppress the duplicates via the abLSN test.
    pub fn reboot_tc(&self, id: TcId) {
        let node = &self.tcs[&id];
        let tc = Tc::new(id, node.cfg.clone(), node.log.clone());
        node.sink.rebind(tc.clone());
        for (dc, kind) in node.connections.lock().iter() {
            let link = self.make_link(node, &self.dcs[dc], kind);
            tc.register_dc(*dc, link);
        }
        for (old, new) in node.promotions.lock().iter() {
            tc.install_promotion(*old, *new);
        }
        for (table, route) in node.routes.lock().iter() {
            tc.register_table(*table, route.clone());
        }
        for conn in node.replica_connections.lock().iter() {
            let link = self.make_link(node, &self.dcs[&conn.replica], &conn.kind);
            tc.register_replica_lineage(conn.replica, &conn.sources, link);
        }
        // Shard wiring must precede recovery: in-doubt 2PC branches are
        // resolved against coordinator shards through the peer handles.
        if let Some(map) = self.shard_map.lock().clone() {
            tc.set_shard_map(map);
            for (other, onode) in &self.tcs {
                if *other != id {
                    tc.register_peer(*other, onode.tc.clone());
                }
            }
        }
        *node.tc.lock() = tc.clone();
        tc.run_recovery().expect("TC recovery");
        // Recovery may have re-driven a failover whose PromoteIntent was
        // forced but whose completion was lost with the crash: detect the
        // alias it installed and apply the node-level bookkeeping
        // `promote_replica` would have done.
        let recovered: Vec<(DcId, DcId)> = tc
            .aliases()
            .into_iter()
            .filter(|(old, new)| {
                !node
                    .promotions
                    .lock()
                    .iter()
                    .any(|(o, n)| o == old && n == new)
            })
            .collect();
        for (old, new) in recovered {
            self.finish_promotion_bookkeeping(node, old, new);
        }
        // Recovery may also have found a `RebalanceDone` whose republish
        // was lost with the crash: the source forced Done durably but
        // died before the epoch-bumped map reached every shard. Done is
        // always stable before any republish begins, so the durable
        // record is authoritative — finish the republish from it. (The
        // recovered TC holds a conservative fence over the moved range
        // until the republish lands; `set_shard_map` clears it.)
        if let Some((lo, hi, to, epoch)) = tc.take_recovered_rebalance() {
            let cur = self.shard_map.lock().clone();
            if let Some(map) = cur {
                if epoch > map.epoch() {
                    self.set_shard_map(map.with_range_owner(lo, hi, to, epoch));
                } else {
                    // A concurrent reboot already finished the move; just
                    // release this shard's fence against the current map.
                    tc.set_shard_map(map);
                }
            }
        }
        // Peer shards may hold 2PC state involving the TC that just came
        // back: branches it coordinated — unprepared orphans (the crash
        // lost the coordinator's participant list, so nothing else will
        // ever abort them) and parked in-doubt branches now resolvable
        // against its stable log — plus pinned commit decisions whose
        // delivery failed while this shard was down and which only a
        // retry can unpin.
        if self.shard_map.lock().is_some() {
            for (other, onode) in &self.tcs {
                if *other != id {
                    let peer = onode.tc.lock().clone();
                    peer.resolve_indoubt();
                    peer.redeliver_decisions();
                }
            }
        }
    }

    /// Node-level records of a completed failover (fencing, connection
    /// moves, route updates, lineage, history) — shared by the normal
    /// promotion path and the recovery-re-driven one.
    fn finish_promotion_bookkeeping(&self, tnode: &TcNode, old: DcId, new: DcId) {
        self.dcs[&old].server.lock().fence();
        *self.dcs[&old].fenced.lock() = true;
        *self.dcs[&new].replica_of.lock() = None;
        let mut rc = tnode.replica_connections.lock();
        if let Some(pos) = rc.iter().position(|c| c.replica == new) {
            let conn = rc.remove(pos);
            tnode.connections.lock().push((new, conn.kind));
        }
        for conn in rc.iter_mut() {
            if conn.sources.contains(&old) && !conn.sources.contains(&new) {
                conn.sources.push(new);
            }
        }
        drop(rc);
        tnode.connections.lock().retain(|(d, _)| *d != old);
        for (_, route) in tnode.routes.lock().iter_mut() {
            route.replace_dc(old, new);
        }
        tnode.promotions.lock().push((old, new));
    }

    /// Crash and reboot both components ("complete failure": the
    /// fail-together case needing no new techniques, Section 5.3.2).
    pub fn crash_all(&self) {
        for id in self.dc_ids() {
            self.crash_dc(id);
        }
        for id in self.tc_ids() {
            self.crash_tc(id);
        }
    }

    /// A rebooted replica re-introduces itself: deliver its persisted
    /// durable frontier as a cumulative ack to every TC shipping to it,
    /// so stale freshness knowledge cannot route bounded-staleness reads
    /// at state the crash rolled back.
    fn announce_replica_reboot(&self, id: DcId, server: &DcServer) {
        let Some((applied, durable)) = server.replica_frontier() else {
            return;
        };
        for (tcid, tnode) in &self.tcs {
            let shipped = tnode
                .replica_connections
                .lock()
                .iter()
                .any(|c| c.replica == id);
            if shipped {
                let tc = tnode.tc.lock().clone();
                tc.deliver(DcToTc::ShipAck {
                    dc: id,
                    tc: *tcid,
                    applied,
                    durable,
                });
            }
        }
    }

    /// Reboot everything: DCs first (structures), then TCs (redo+undo).
    pub fn reboot_all(&self) {
        for id in self.dc_ids() {
            let (server, is_replica) = self.rebuild_dc_server(id);
            if is_replica {
                self.announce_replica_reboot(id, &server);
            }
        }
        for id in self.tc_ids() {
            self.reboot_tc(id);
        }
    }

    // ------------------------------------------------------------------
    // Replication driving
    // ------------------------------------------------------------------

    /// Ship committed redo once on `tc`'s behalf (deterministic tests);
    /// returns the ship frontier.
    pub fn pump_replication(&self, tc: TcId) -> Lsn {
        let t = self.tcs[&tc].tc.lock().clone();
        t.ship_now()
    }

    /// Spawn a background shipper pump calling [`Tc::ship_now`] every
    /// `interval`. The pump follows TC reboots; drop the returned guard
    /// to stop it.
    pub fn start_replication_pump(&self, tc: TcId, interval: Duration) -> ReplicationPump {
        let cell = self.tcs[&tc].tc.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                let t = cell.lock().clone();
                t.ship_now();
                std::thread::sleep(interval);
            }
        });
        ReplicationPump {
            stop,
            handle: Some(handle),
        }
    }

    /// Promote replica `new` to writable primary for deposed primary
    /// `old`'s partition: drives [`Tc::promote_replica`] (fence →
    /// re-point → catch-up redo → re-route) and records the failover so
    /// reboots of either side, or of the TC, land in the new topology.
    /// Works while `old` is crashed — the deployment re-fences it at
    /// node level so a later reboot cannot accept writes.
    pub fn promote_replica(&self, tc: TcId, old: DcId, new: DcId) {
        let tnode = &self.tcs[&tc];
        // Promotion re-points routes and aliases at the *promoting* TC
        // only: the paper's partitioned-ownership model (one updating TC
        // per partition, Figure 2). A second TC still wired to the old
        // primary would keep writing into a fenced DC forever — refuse
        // loudly instead of diverging quietly.
        for (other, onode) in &self.tcs {
            if *other != tc && onode.connections.lock().iter().any(|(d, _)| *d == old) {
                panic!(
                    "cannot promote {new} over {old}: TC {other} is also connected to {old} \
                     (promotion supports single-writer-TC partitions only)"
                );
            }
        }
        // Belt-and-braces fencing: the in-band Fence message is lost if
        // the old primary is down; fence its server object and its node
        // record (reboots re-fence) regardless.
        self.dcs[&old].server.lock().fence();
        *self.dcs[&old].fenced.lock() = true;
        let t = tnode.tc.lock().clone();
        t.promote_replica(old, new)
            .unwrap_or_else(|e| panic!("promotion of {new} over {old} failed: {e}"));
        // The promoted DC is an ordinary primary connection from now on;
        // surviving replicas of `old` follow the whole lineage.
        self.finish_promotion_bookkeeping(tnode, old, new);
    }
}

/// Guard for a background replication pump; dropping it stops the
/// thread.
pub struct ReplicationPump {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for ReplicationPump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Deployment {
    /// Stop every queued link's workers and detach each TC from its
    /// links and peers: without this the TC → link → reply sink → TC and
    /// TC ↔ TC peer cycles would keep every TC alive.
    fn drop(&mut self) {
        for node in self.tcs.values() {
            for l in node.queued_links.lock().drain(..) {
                l.shutdown();
            }
            node.tc.lock().detach();
        }
    }
}

impl Default for Deployment {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience: the simplest 1-TC / 1-DC deployment over a given
/// transport, with tables created and routed.
pub fn single(
    tc_cfg: TcConfig,
    dc_cfg: DcConfig,
    kind: TransportKind,
    tables: &[TableSpec],
) -> Deployment {
    let mut d = Deployment::new();
    d.add_dc(DcId(1), dc_cfg);
    d.add_tc(TcId(1), tc_cfg);
    d.connect(TcId(1), DcId(1), kind);
    for spec in tables {
        d.create_table(DcId(1), spec.clone());
        d.route(TcId(1), spec.id, TableRoute::Single(DcId(1)));
    }
    d
}
