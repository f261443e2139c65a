//! # unbundled-bench
//!
//! The experiment suite reproducing the paper's evaluation. Every
//! experiment is one entry of the [`experiment::EXPERIMENTS`] registry —
//! the paper's own figures and claims E1–E10 in [`paper`], the later
//! commit-path, replication, sharding, rebalance, MVCC and autopilot
//! experiments in [`e11`]–[`e17`], the commit-path breakdown in [`obs`]
//! — and the `report` binary runs them, prints their tables, writes
//! their `BENCH_<name>.json` telemetry and enforces their gates. This
//! file holds the workload builders they share.

#![warn(missing_docs)]

pub mod baseline;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod experiment;
pub mod json;
pub mod obs;
pub mod paper;
pub mod workload;

use std::sync::Arc;
use unbundled_core::{DcId, Key, TableId, TableSpec, TcId};
use unbundled_dc::DcConfig;
use unbundled_kernel::deployment::{Deployment, TransportKind};
use unbundled_kernel::single;
use unbundled_monolith::{Monolith, MonolithConfig};
use unbundled_tc::{ReadConsistency, TableRoute, Tc, TcConfig};

/// The table used by the generic workloads.
pub const TABLE: TableId = TableId(1);

/// A 1×1 unbundled deployment with one plain table.
pub fn unbundled_single(kind: TransportKind, tc_cfg: TcConfig, dc_cfg: DcConfig) -> Deployment {
    single(tc_cfg, dc_cfg, kind, &[TableSpec::plain(TABLE, "t")])
}

/// A monolithic engine with the same table.
pub fn monolith() -> Arc<Monolith> {
    let m = Monolith::new(MonolithConfig::default());
    m.create_table(TABLE);
    m
}

/// Insert `n` sequential keys (one transaction each) through a TC.
pub fn load_tc(tc: &Arc<Tc>, base: u64, n: u64, payload: usize) {
    for k in base..base + n {
        let t = tc.begin().expect("begin");
        tc.insert(t, TABLE, Key::from_u64(k), vec![7u8; payload])
            .expect("insert");
        tc.commit(t).expect("commit");
    }
}

/// Insert `n` sequential keys through the monolith.
pub fn load_monolith(m: &Arc<Monolith>, base: u64, n: u64, payload: usize) {
    for k in base..base + n {
        let t = m.begin();
        m.insert(t, TABLE, Key::from_u64(k), vec![7u8; payload])
            .expect("insert");
        m.commit(t).expect("commit");
    }
}

/// Read-modify-write transaction mix over `key_space` keys.
pub fn rmw_tc(tc: &Arc<Tc>, iterations: u64, key_space: u64) {
    for i in 0..iterations {
        let k = (i.wrapping_mul(2654435761)) % key_space;
        let t = tc.begin().expect("begin");
        let v = tc
            .read(t, TABLE, Key::from_u64(k), ReadConsistency::Locking)
            .expect("read")
            .unwrap_or_default();
        let mut v2 = v;
        v2.push(1);
        if v2.len() > 64 {
            v2.truncate(8);
        }
        tc.update(t, TABLE, Key::from_u64(k), v2).expect("update");
        tc.commit(t).expect("commit");
    }
}

/// Multi-TC deployment: `n_tcs` TCs over one DC, key space partitioned
/// per TC (paper Section 6.1: disjoint logical partitions).
pub fn multi_tc_deployment(n_tcs: u16, dc_cfg: DcConfig) -> Deployment {
    let mut d = Deployment::new();
    d.add_dc(DcId(1), dc_cfg);
    for i in 1..=n_tcs {
        let tc = TcId(i);
        d.add_tc(tc, TcConfig::default());
        d.connect(tc, DcId(1), TransportKind::Inline);
        d.route(tc, TABLE, TableRoute::Single(DcId(1)));
    }
    d.create_table(DcId(1), TableSpec::plain(TABLE, "t"));
    d
}

/// Key base for TC `i` in the multi-TC workload (disjoint partitions).
pub fn tc_partition_base(i: u16) -> u64 {
    (i as u64) << 32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaders_work() {
        let d = unbundled_single(
            TransportKind::Inline,
            TcConfig::default(),
            DcConfig::default(),
        );
        let tc = d.tc(TcId(1));
        load_tc(&tc, 0, 20, 16);
        rmw_tc(&tc, 10, 20);
        let m = monolith();
        load_monolith(&m, 0, 20, 16);
        let t = m.begin();
        assert_eq!(m.scan(t, TABLE, Key::empty(), None).unwrap().len(), 20);
        m.commit(t).unwrap();
    }

    #[test]
    fn multi_tc_partitions_disjoint() {
        assert_ne!(tc_partition_base(1), tc_partition_base(2));
        let d = multi_tc_deployment(2, DcConfig::default());
        let tc1 = d.tc(TcId(1));
        let tc2 = d.tc(TcId(2));
        load_tc(&tc1, tc_partition_base(1), 5, 8);
        load_tc(&tc2, tc_partition_base(2), 5, 8);
        assert_eq!(d.dc(DcId(1)).engine().dump_table(TABLE).unwrap().len(), 10);
    }
}
