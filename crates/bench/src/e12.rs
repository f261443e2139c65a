//! E12: logical log shipping — read-only replicas, bounded staleness,
//! failover promotion.
//!
//! The experiment models each DC as a service channel: a queued link
//! with one worker and a per-datagram wire delay, so a DC serves at most
//! one datagram per delay. Read throughput then scales with the number
//! of DCs serving reads — which is exactly what replication buys:
//!
//! * **read scaling** — a read-heavy mix against primary-only
//!   vs. 1/2/4 replicas (reads routed with a permissive staleness
//!   bound, writes always on the primary);
//! * **staleness** — read-your-writes tokens
//!   ([`ReadConsistency::AtLeast`]) must never observe a value older
//!   than the committed write the token covers — zero violations at any
//!   setting;
//! * **failover** — a promoted replica serves writes, and every
//!   acknowledged commit survives a post-promotion crash of the new
//!   primary *and* the TC.

use crate::experiment::{find, Gate, Report, Row};
use crate::TABLE;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{DcId, Key, TableSpec, TcId};
use unbundled_dc::DcConfig;
use unbundled_kernel::{Deployment, FaultModel, TransportKind};
use unbundled_tc::{GatherWindow, GroupCommitCfg, ReadConsistency, TableRoute, TcConfig};

/// Simulated log-device flush latency (NVMe-class fsync).
pub const FORCE_LATENCY: Duration = Duration::from_micros(150);

/// Per-datagram wire delay: the per-DC service cost reads amortize by
/// spreading across replicas.
pub const WIRE_DELAY: Duration = Duration::from_micros(25);

const PRIMARY: DcId = DcId(1);
const KEYS: u64 = 64;

fn service_channel() -> TransportKind {
    TransportKind::Queued {
        faults: FaultModel {
            delay: WIRE_DELAY,
            ..FaultModel::default()
        },
        workers: 1,
        batch: 1,
    }
}

fn deployment(replicas: usize) -> Deployment {
    let mut d = Deployment::new();
    d.add_dc(PRIMARY, DcConfig::default());
    d.add_tc(
        TcId(1),
        TcConfig {
            resend_interval: Duration::from_millis(10),
            group_commit: Some(GroupCommitCfg {
                window: GatherWindow::adaptive(),
                ..GroupCommitCfg::default()
            }),
            force_every: usize::MAX,
            ..TcConfig::default()
        },
    );
    d.connect(TcId(1), PRIMARY, service_channel());
    d.create_table(PRIMARY, TableSpec::plain(TABLE, "t"));
    d.route(TcId(1), TABLE, TableRoute::Single(PRIMARY));
    for i in 0..replicas {
        let id = DcId(101 + i as u16);
        d.add_replica(id, PRIMARY, DcConfig::default());
        d.connect_replica(TcId(1), id, service_channel());
    }
    d
}

/// Wait until every replica's applied frontier reaches the current ship
/// frontier (the pump keeps shipping in the background).
fn wait_converged(d: &Deployment, deadline: Duration) {
    let tc = d.tc(TcId(1));
    let until = Instant::now() + deadline;
    loop {
        let frontier = d.pump_replication(TcId(1));
        if tc.replica_lag().iter().all(|l| l.applied >= frontier) {
            return;
        }
        assert!(
            Instant::now() < until,
            "replicas failed to converge: {:?}",
            tc.replica_lag()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One read-scaling configuration: `readers` threads issue point reads
/// with a permissive staleness bound while one writer keeps committing;
/// afterwards a read-your-writes staleness sweep counts violations.
fn run_read_mix(replicas: usize, readers: usize, per_reader: u64, stale_probes: u64) -> Row {
    let d = Arc::new(deployment(replicas));
    let tc = d.tc(TcId(1));
    for k in 0..KEYS {
        let t = tc.begin().expect("begin");
        tc.insert(t, TABLE, Key::from_u64(k), vec![0u8; 16])
            .expect("insert");
        tc.commit(t).expect("commit");
    }
    let _pump = d.start_replication_pump(TcId(1), Duration::from_micros(500));
    wait_converged(&d, Duration::from_secs(10));
    d.tc_log(TcId(1)).set_force_latency(FORCE_LATENCY);

    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    let writer = {
        let d = d.clone();
        let stop = stop.clone();
        let commits = commits.clone();
        std::thread::spawn(move || {
            let tc = d.tc(TcId(1));
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let k = (i.wrapping_mul(2654435761)) % KEYS;
                let t = tc.begin().expect("begin");
                tc.update(t, TABLE, Key::from_u64(k), vec![(i % 251) as u8; 16])
                    .expect("update");
                tc.commit(t).expect("commit");
                commits.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        })
    };

    let reads_before = tc.stats().snapshot();
    let start = Instant::now();
    std::thread::scope(|s| {
        for r in 0..readers as u64 {
            let tc = Arc::clone(&tc);
            s.spawn(move || {
                // One read-only transaction amortized across the loop:
                // replica-routed reads take no locks, the txn only
                // carries the unified read surface.
                let t = tc.begin().expect("begin");
                for i in 0..per_reader {
                    let k = (r.wrapping_mul(7919).wrapping_add(i)) % KEYS;
                    let v = tc
                        .read(
                            t,
                            TABLE,
                            Key::from_u64(k),
                            ReadConsistency::BoundedLag(u64::MAX),
                        )
                        .expect("read");
                    assert!(v.is_some(), "preloaded key {k} must exist everywhere");
                }
                tc.commit(t).expect("commit reader txn");
            });
        }
    });
    let wall = start.elapsed();
    stop.store(true, Ordering::Release);
    writer.join().expect("writer");
    d.tc_log(TcId(1)).set_force_latency(Duration::ZERO);

    // Staleness sweep: commit a versioned payload, capture a token,
    // wait for the frontier to cover it, then a token-routed read must
    // see a payload at least as new. Routing makes this structural
    // (stale replicas are skipped; the primary fallback is a snapshot
    // read at the stable LSN, which covers the forced commit), so any
    // violation is a real bug.
    let mut violations = 0u64;
    let probe_key = Key::from_u64(0);
    for i in 1..=stale_probes {
        let t = tc.begin().expect("begin");
        tc.update(t, TABLE, probe_key.clone(), i.to_le_bytes().to_vec())
            .expect("update");
        tc.commit(t).expect("commit");
        let token = tc.log_handle().stable();
        if replicas > 0 {
            // Let the fleet catch up so replicas (not only the primary
            // fallback) serve a share of the token reads.
            let until = Instant::now() + Duration::from_millis(200);
            while tc.replica_lag().iter().all(|l| l.applied < token) && Instant::now() < until {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let t = tc.begin().expect("begin");
        let v = tc
            .read(t, TABLE, probe_key.clone(), ReadConsistency::AtLeast(token))
            .expect("token read");
        tc.commit(t).expect("commit token read");
        let seen = v
            .as_deref()
            .and_then(|b| b.get(..8))
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .unwrap_or(0);
        if seen < i {
            violations += 1;
        }
    }

    let snap = tc.stats().snapshot();
    let reads = readers as u64 * per_reader;
    Row::new()
        .with("label", format!("{replicas} replicas, {readers} readers"))
        .with("replicas", replicas)
        // Aggregate committed reads per second.
        .with("reads_per_sec", reads as f64 / wall.as_secs_f64())
        // Reads served by replicas, and replica-eligible reads that
        // fell back to the primary.
        .with(
            "replica_reads",
            snap.replica_reads - reads_before.replica_reads,
        )
        .with(
            "fallbacks",
            snap.replica_read_fallbacks - reads_before.replica_read_fallbacks,
        )
        // Writer transactions committed during the read phase.
        .with("commits", commits.load(Ordering::Relaxed))
        // `ShipBatch` datagrams shipped.
        .with("ship_batches", snap.ship_batches)
        // Read-your-writes staleness violations (must be zero).
        .with("stale_violations", violations)
}

/// Failover drill: commit against the primary, promote a replica,
/// commit against the new primary, then crash the new primary *and* the
/// TC. Every acknowledged commit must be readable afterwards, and the
/// deposed primary must stay fenced. Returns true on full durability.
fn run_failover() -> bool {
    let d = deployment(2);
    let tc = d.tc(TcId(1));
    for k in 0..24u64 {
        let t = tc.begin().expect("begin");
        tc.insert(t, TABLE, Key::from_u64(k), format!("pre-{k}").into_bytes())
            .expect("insert");
        tc.commit(t).expect("commit");
    }
    wait_converged(&d, Duration::from_secs(10));
    d.promote_replica(TcId(1), PRIMARY, DcId(101));
    let tc = d.tc(TcId(1));
    for k in 24..32u64 {
        let t = tc.begin().expect("begin");
        tc.insert(t, TABLE, Key::from_u64(k), format!("post-{k}").into_bytes())
            .expect("insert");
        tc.commit(t).expect("commit");
    }
    // Full storm: the new primary, the deposed one, the surviving
    // replica and the TC all crash at once; stable state must carry
    // every acknowledged commit.
    d.crash_all();
    d.reboot_all();
    let tc = d.tc(TcId(1));
    let t = tc.begin().expect("begin");
    let rows = tc
        .scan(t, TABLE, Key::empty(), None, None)
        .expect("post-failover scan");
    tc.commit(t).expect("commit");
    let fenced = d.dc(PRIMARY).is_fenced();
    rows.len() == 32
        && (0..32u64).all(|k| {
            rows.iter().any(|(key, v)| {
                *key == Key::from_u64(k)
                    && v == format!("{}-{k}", if k < 24 { "pre" } else { "post" }).as_bytes()
            })
        })
        && fenced
}

/// Run the full experiment. `smoke` shrinks the workload for CI; the
/// gates are identical in both modes.
pub fn run(smoke: bool) -> Report {
    let per_reader: u64 = if smoke { 150 } else { 600 };
    let stale_probes: u64 = if smoke { 25 } else { 100 };
    let readers = 8usize;
    let mut rows = Vec::new();
    for replicas in [0usize, 1, 2, 4] {
        rows.push(run_read_mix(replicas, readers, per_reader, stale_probes));
    }
    let failover_ok = run_failover();
    let gates = gates(&rows, failover_ok);
    Report {
        params: Row::new()
            .with("per_reader_reads", per_reader)
            .with("wire_delay_us", WIRE_DELAY.as_micros() as u64)
            .with("force_latency_us", FORCE_LATENCY.as_micros() as u64),
        rows,
        gates,
        notes: Vec::new(),
    }
}

fn gates(rows: &[Row], failover_ok: bool) -> Vec<Gate> {
    let base = find(rows, &[("replicas", 0usize.into())]);
    let four = find(rows, &[("replicas", 4usize.into())]);
    let replica_reads = four.num("replica_reads");
    let total_violations: f64 = rows.iter().map(|r| r.num("stale_violations")).sum();
    vec![
        Gate::at_least(
            "aggregate read throughput @4 replicas vs primary-only",
            four.num("reads_per_sec") / base.num("reads_per_sec"),
            2.0,
        ),
        Gate::at_least(
            "replicas actually serve reads @4 (replica-read share)",
            replica_reads / (replica_reads + four.num("fallbacks")).max(1.0),
            0.5,
        ),
        Gate::holds(
            "zero stale-read violations across all staleness settings",
            total_violations == 0.0,
        ),
        Gate::holds(
            "failover: promoted replica serves writes with full durability",
            failover_ok,
        ),
    ]
}
