//! E16: MVCC snapshot reads vs locking reads under a contending
//! writer, plus version-chain garbage collection across truncating
//! checkpoints.
//!
//! One writer keeps committing a transaction that updates *every* hot
//! key (holding all their X locks across the simulated log-device
//! force), while reader threads issue point reads over the same hot
//! set. The experiment measures the unified read surface end to end:
//!
//! * **read throughput** — [`ReadConsistency::Locking`] readers queue
//!   behind the writer's X locks; [`SnapshotSpec::Fresh`] snapshot
//!   readers never touch the lock manager and must sustain at least
//!   2× the locking throughput;
//! * **lock freedom** — the snapshot phase must add exactly zero lock
//!   waits (the readers' S-lock traffic disappears entirely);
//! * **snapshot isolation** — a pinned snapshot transaction reading
//!   the whole hot set mid-write-storm must observe one writer round
//!   atomically: every key carries the same round counter, and
//!   re-reading the first key at the end of the transaction returns
//!   the value it returned at the start (repeatable reads);
//! * **bounded version memory** — after the storm, repeated
//!   update-then-checkpoint rounds must not accumulate version-chain
//!   entries: the checkpoint's published low-water mark drives DC-side
//!   chain pruning, so retained history stays bounded across at least
//!   12 truncating checkpoints.

use crate::experiment::{Gate, Report, Row};
use crate::TABLE;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unbundled_core::{DcId, Key, TableSpec, TcId};
use unbundled_dc::DcConfig;
use unbundled_kernel::{Deployment, TransportKind};
use unbundled_tc::{ReadConsistency, SnapshotSpec, TableRoute, Tc, TcConfig};

/// Simulated log-device flush latency (NVMe-class fsync). This is the
/// writer's lock-hold window: commit forces the log and delivers the
/// commit stamps while the transaction still owns its X locks.
pub const FORCE_LATENCY: Duration = Duration::from_micros(150);

const PRIMARY: DcId = DcId(1);

/// Hot-set size: every writer round updates all of these in one
/// transaction, so a locking reader contends with probability ~1.
const KEYS: u64 = 16;

/// Reader threads per measured phase.
const READERS: usize = 8;

/// One TC over one B-tree DC, inline links (deterministic): all
/// contention in this experiment comes from record locks held across
/// the commit force, not from the wire.
fn deployment() -> Deployment {
    let mut d = Deployment::new();
    d.add_dc(PRIMARY, DcConfig::default());
    d.add_tc(
        TcId(1),
        TcConfig {
            // Only explicit commit forces pay the device latency —
            // periodic bookkeeping forces would throttle the read
            // phases and mask the lock-contention signal.
            force_every: usize::MAX,
            ..TcConfig::default()
        },
    );
    d.connect(TcId(1), PRIMARY, TransportKind::Inline);
    d.create_table(PRIMARY, TableSpec::plain(TABLE, "t"));
    d.route(TcId(1), TABLE, TableRoute::Single(PRIMARY));
    d
}

/// Seed every hot key with round counter 0 in ONE transaction, so any
/// snapshot — even one pinned before the first writer round — sees a
/// single atomic round.
fn seed(tc: &Arc<Tc>) {
    let t = tc.begin().expect("begin seed");
    for k in 0..KEYS {
        tc.insert(t, TABLE, Key::from_u64(k), 0u64.to_le_bytes().to_vec())
            .expect("seed insert");
    }
    tc.commit(t).expect("commit seed");
}

/// Spawn the contending writer: each round updates EVERY hot key to
/// the round counter in one transaction, holding all X locks across
/// the log force. Returns the join handle; flip `stop` to end it.
fn spawn_writer(
    d: &Arc<Deployment>,
    stop: &Arc<AtomicBool>,
    commits: &Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    let d = d.clone();
    let stop = stop.clone();
    let commits = commits.clone();
    std::thread::spawn(move || {
        let tc = d.tc(TcId(1));
        let mut round = 1u64;
        while !stop.load(Ordering::Acquire) {
            let t = tc.begin().expect("begin writer");
            for k in 0..KEYS {
                tc.update(t, TABLE, Key::from_u64(k), round.to_le_bytes().to_vec())
                    .expect("writer update");
            }
            tc.commit(t).expect("commit writer");
            commits.fetch_add(1, Ordering::Relaxed);
            round += 1;
        }
    })
}

/// Decode the 8-byte round counter.
fn counter(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().expect("8-byte payload"))
}

/// Measure one read phase: `READERS` threads each issue `per_reader`
/// single-read transactions with `consistency` while the writer storm
/// runs. Returns the measured row.
fn run_read_phase(
    d: &Arc<Deployment>,
    label: &str,
    consistency: ReadConsistency,
    per_reader: u64,
) -> Row {
    let tc = d.tc(TcId(1));
    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    let writer = spawn_writer(d, &stop, &commits);

    let stats_before = tc.stats().snapshot();
    let (_, waits_before, _, _) = tc.lock_manager().stats().snapshot();
    let start = Instant::now();
    std::thread::scope(|s| {
        for r in 0..READERS as u64 {
            let tc = Arc::clone(&tc);
            s.spawn(move || {
                for i in 0..per_reader {
                    let k = (r.wrapping_mul(7919).wrapping_add(i)) % KEYS;
                    let t = tc.begin().expect("begin reader");
                    let v = tc
                        .read(t, TABLE, Key::from_u64(k), consistency)
                        .expect("reader read");
                    assert!(v.is_some(), "seeded key {k} must exist");
                    tc.commit(t).expect("commit reader");
                }
            });
        }
    });
    let wall = start.elapsed();
    stop.store(true, Ordering::Release);
    writer.join().expect("writer");
    let stats_after = tc.stats().snapshot();
    let (_, waits_after, _, _) = tc.lock_manager().stats().snapshot();

    let reads = READERS as u64 * per_reader;
    Row::new()
        .with("label", label)
        // Aggregate committed reads per second.
        .with("reads_per_sec", reads as f64 / wall.as_secs_f64())
        // Reads issued across all reader threads.
        .with("reads", reads)
        // Lock-manager waits incurred during the phase (readers +
        // writer).
        .with("lock_waits", waits_after - waits_before)
        // Writer transactions committed during the phase.
        .with("commits", commits.load(Ordering::Relaxed))
        // DC-side snapshot reads served during the phase.
        .with(
            "snapshot_reads",
            stats_after.snapshot_reads - stats_before.snapshot_reads,
        )
}

/// Drive pinned-snapshot transactions through the write storm: each
/// reads the whole hot set at its pin, requires every key to carry the
/// same round counter (no torn rounds), and re-reads the first key at
/// the end (repeatable). Returns the violation count.
fn run_si_phase(d: &Arc<Deployment>, rounds: u64) -> u64 {
    let tc = d.tc(TcId(1));
    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    let writer = spawn_writer(d, &stop, &commits);

    let pinned = ReadConsistency::Snapshot(SnapshotSpec::Pinned);
    let mut violations = 0u64;
    for _ in 0..rounds {
        let t = tc.begin().expect("begin pinned");
        let first = tc
            .read(t, TABLE, Key::from_u64(0), pinned)
            .expect("pinned read")
            .expect("seeded key");
        let round = counter(&first);
        for k in 1..KEYS {
            let v = tc
                .read(t, TABLE, Key::from_u64(k), pinned)
                .expect("pinned read")
                .expect("seeded key");
            if counter(&v) != round {
                violations += 1;
            }
        }
        let again = tc
            .read(t, TABLE, Key::from_u64(0), pinned)
            .expect("pinned re-read")
            .expect("seeded key");
        if counter(&again) != round {
            violations += 1;
        }
        tc.commit(t).expect("commit pinned");
    }
    stop.store(true, Ordering::Release);
    writer.join().expect("writer");
    violations
}

/// The GC phase: with no pins open, each round overwrites every hot
/// key and then drives a truncating checkpoint; the published LWM must
/// keep DC-side version chains pruned. Returns (max, final) retained
/// entry counts observed *after* each checkpoint.
fn run_gc_phase(d: &Arc<Deployment>, checkpoints: u64) -> (usize, usize) {
    let tc = d.tc(TcId(1));
    let engine = d.dc(PRIMARY).engine().clone();
    let mut max_entries = 0usize;
    let mut final_entries = 0usize;
    for round in 0..checkpoints {
        let t = tc.begin().expect("begin gc round");
        for k in 0..KEYS {
            tc.update(
                t,
                TABLE,
                Key::from_u64(k),
                (u64::MAX - round).to_le_bytes().to_vec(),
            )
            .expect("gc update");
        }
        tc.commit(t).expect("commit gc round");
        tc.checkpoint().expect("truncating checkpoint");
        final_entries = engine.version_chain_entries(TABLE);
        max_entries = max_entries.max(final_entries);
    }
    (max_entries, final_entries)
}

/// Run the full experiment. `smoke` shrinks the workload for CI; the
/// gates are identical in both modes.
pub fn run(smoke: bool) -> Report {
    let per_reader: u64 = if smoke { 300 } else { 2000 };
    let si_rounds: u64 = if smoke { 40 } else { 200 };
    let checkpoints: u64 = if smoke { 12 } else { 16 };

    let d = Arc::new(deployment());
    let tc = d.tc(TcId(1));
    seed(&tc);
    d.tc_log(TcId(1)).set_force_latency(FORCE_LATENCY);

    let locking = run_read_phase(
        &d,
        "locking reads vs writer",
        ReadConsistency::Locking,
        per_reader,
    );
    let snapshot = run_read_phase(
        &d,
        "snapshot reads vs writer",
        ReadConsistency::Snapshot(SnapshotSpec::Fresh),
        per_reader,
    );
    let si_violations = run_si_phase(&d, si_rounds);
    let (max_chain_entries, final_chain_entries) = run_gc_phase(&d, checkpoints);
    d.tc_log(TcId(1)).set_force_latency(Duration::ZERO);

    let gates = vec![
        Gate::at_least(
            "snapshot-read throughput vs locking under a contending writer",
            snapshot.num("reads_per_sec") / locking.num("reads_per_sec"),
            2.0,
        ),
        Gate::holds(
            "zero lock waits on the snapshot read path",
            snapshot.num("lock_waits") == 0.0,
        ),
        Gate::at_least(
            "snapshot phase served from MVCC chains (snapshot-read share)",
            snapshot.num("snapshot_reads") / snapshot.num("reads").max(1.0),
            1.0,
        ),
        Gate::holds(
            "zero snapshot-isolation violations (torn/unrepeatable reads)",
            si_violations == 0,
        ),
        Gate::holds(
            format!("version memory bounded across {checkpoints} truncating checkpoints"),
            checkpoints >= 12 && max_chain_entries <= KEYS as usize,
        ),
    ];
    Report {
        params: Row::new()
            .with("per_reader_reads", per_reader)
            .with("force_latency_us", FORCE_LATENCY.as_micros() as u64)
            .with("hot_keys", KEYS)
            .with("readers", READERS)
            // Pinned-snapshot transactions driven through the write
            // storm, and torn or unrepeatable pinned reads among them.
            .with("si_rounds", si_rounds)
            .with("si_violations", si_violations)
            // Truncating checkpoints driven in the GC phase; the
            // largest post-checkpoint and the final version-chain
            // entry counts.
            .with("checkpoints", checkpoints)
            .with("max_chain_entries", max_chain_entries)
            .with("final_chain_entries", final_chain_entries),
        rows: vec![locking, snapshot],
        gates,
        notes: Vec::new(),
    }
}
