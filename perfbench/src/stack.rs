//! The deployments the workloads run on, wired by hand from the public
//! constructors so that the traced run can put its wrappers at the two
//! TC/DC seams. Every component runs its shipped defaults; only the
//! topology and the simulated hardware are chosen here.

use crate::trace::{Recorder, TracedDc, TracedLink};
use std::sync::{Arc, Weak};
use unbundled_core::{DataComponentApi, DcId, TableId, TableSpec, TcId, TcShardMap};
use unbundled_dc::{DcConfig, DcLogRecord, DcServer};
use unbundled_kernel::{DcSlot, FaultModel, InlineLink, QueuedLink, ReplySink};
use unbundled_storage::{LogStore, SimDisk};
use unbundled_tc::{DcLink, TableRoute, Tc, TcConfig, TcLogRecord, TcPeer};

/// The one table every workload uses.
pub const TABLE: TableId = TableId(1);

/// How the TCs reach their DCs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// Synchronous call on the caller's thread.
    Inline,
    /// Channel to DC worker threads: 1 worker, batches of up to 16, no
    /// faults.
    Queued,
}

/// Topology and simulated-hardware settings; everything else is default.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// TC shards, each with its own DC. More than one installs an even
    /// key-range shard map.
    pub shards: u16,
    /// Transport between each TC and its DC.
    pub transport: Transport,
    /// DC buffer-pool capacity in pages (`0` = unbounded).
    pub pool_pages: usize,
}

/// One TC with its log, its DC and the transport between them.
pub struct Shard {
    /// The TC.
    pub tc: Arc<Tc>,
    /// The TC's log (its stats and registry are the `storage` layer).
    pub tc_log: Arc<LogStore<TcLogRecord>>,
    /// The DC server.
    pub dc: Arc<DcServer>,
    /// The DC's page store.
    pub disk: SimDisk,
    dc_id: DcId,
    slot: Arc<DcSlot>,
    link: Arc<dyn DcLink>,
    /// The queued transport, when this shard uses one.
    pub queued: Option<Arc<QueuedLink>>,
}

/// A running deployment.
pub struct Stack {
    /// The shards, in TC-id order.
    pub shards: Vec<Shard>,
}

/// A 2PC peer handle that does not keep the peer alive (the shards
/// refer to each other, and strong handles would leak every stack).
struct WeakPeer(Weak<Tc>);

impl TcPeer for WeakPeer {
    fn resolve(&self) -> Arc<Tc> {
        self.0.upgrade().expect("peer TC outlives its stack")
    }
}

impl Stack {
    /// Build a fresh deployment with an empty table.
    pub fn build(topo: Topology) -> Stack {
        let dc_cfg = DcConfig {
            pool_capacity: topo.pool_pages,
            ..DcConfig::default()
        };
        let mut shards = Vec::new();
        for i in 1..=topo.shards {
            let dc_id = DcId(i);
            let disk = SimDisk::new();
            let dc_log: Arc<LogStore<DcLogRecord>> = Arc::new(LogStore::new());
            let dc = Arc::new(DcServer::format(
                dc_id,
                dc_cfg.clone(),
                disk.clone(),
                dc_log,
            ));
            dc.create_table(TableSpec::plain(TABLE, "accounts"));
            let slot = DcSlot::new(dc.clone());
            let tc_log = Arc::new(LogStore::new());
            let tc = Tc::new(TcId(i), TcConfig::default(), tc_log.clone());
            let sink = ReplySink::new(tc.clone());
            let (link, queued): (Arc<dyn DcLink>, _) = match topo.transport {
                Transport::Inline => (InlineLink::new(slot.clone(), sink), None),
                Transport::Queued => {
                    let q = QueuedLink::new(slot.clone(), sink, FaultModel::default(), 1, 16);
                    (q.clone(), Some(q))
                }
            };
            tc.register_dc(dc_id, link.clone());
            tc.register_table(TABLE, TableRoute::Single(dc_id));
            shards.push(Shard {
                tc,
                tc_log,
                dc,
                disk,
                dc_id,
                slot,
                link,
                queued,
            });
        }
        if topo.shards > 1 {
            let ids: Vec<TcId> = shards.iter().map(|s| s.tc.id()).collect();
            let map = TcShardMap::even(&ids);
            for s in &shards {
                s.tc.set_shard_map(map.clone());
                for o in &shards {
                    if o.tc.id() != s.tc.id() {
                        s.tc.register_peer(o.tc.id(), Arc::new(WeakPeer(Arc::downgrade(&o.tc))));
                    }
                }
            }
        }
        Stack { shards }
    }

    /// Put the tracing wrappers at both seams of every shard: around the
    /// DC inside the transport's slot, and around the link the TC sends
    /// through.
    pub fn install_tracing(&self, rec: &Arc<Recorder>) {
        for s in &self.shards {
            let dc: Arc<dyn DataComponentApi> = s.dc.clone();
            s.slot.install(TracedDc::new(dc, rec.clone()));
            s.tc.register_dc(s.dc_id, TracedLink::new(s.link.clone(), rec.clone()));
        }
    }

    /// Stop the transport workers, wait for them to end, and unhook each
    /// TC from its link: a link reaches its TC again through the reply
    /// sink, and that cycle would otherwise keep the stack alive.
    pub fn shutdown(&self) {
        for s in &self.shards {
            if let Some(q) = &s.queued {
                q.shutdown();
            }
            s.tc.register_dc(s.dc_id, Arc::new(Unplugged));
        }
    }
}

/// The link a stack leaves behind at shutdown: it drops every message.
struct Unplugged;

impl DcLink for Unplugged {
    fn send(&self, _msg: unbundled_core::TcToDc) {}
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.shutdown();
    }
}
