//! E17: the shard autopilot against a ramp it must outrun.
//!
//! E15 proved a single online range move is cheap; this experiment asks
//! whether the *policy* can decide to make one — unprompted, from
//! telemetry alone, in time to matter. The setup is rigged so a static
//! map must fail: the shard map starts with **every key on TC1** while
//! an e13-style ramp climbs from well under one shard's log capacity to
//! well past it, and the key distribution is deliberately skewed (7 of
//! 8 key slots sit in the bottom eighth of the keyspace) so a naive
//! midpoint cut would move almost nothing. The autopilot has to notice
//! the pressure, pick the observed traffic median from the key sketch,
//! find the idle shard, and run the split — while the ramp is still
//! climbing.
//!
//! Capacity arithmetic: `max_waiters = 8` with a 1.5ms forced flush
//! caps one redo log near 5k commits/s, while the 16-worker pool can
//! push roughly twice that across two logs flushing in parallel. The
//! ramp ends above one log's ceiling and below two — so the static
//! cell *must* saturate (queue fills, p99 blows through the band,
//! arrivals shed) and the policy cell, if the split lands, *must not*.
//!
//! What the gates hold:
//!
//! * **zero lost acks** — across every policy-initiated move, every
//!   acknowledged write survives (worst rep).
//! * **the policy acted** — at least one completed autopilot split, and
//!   the tier settled: every shard at the final epoch, no fence left.
//! * **no thrash** — no range moved twice within one cooldown window
//!   ([`unbundled_kernel::cooldown_violations`] = 0, worst rep).
//! * **p99 band** — the policy cell's arrival→commit p99 stays inside
//!   [`P99_BAND`]; the static cell breaches it. The band is the point:
//!   the policy alone separates the two cells.

use crate::experiment::{best_of, find, Cmp, Gate, Report, Row};
use crate::workload::{run_open_loop, ArrivalProcess, OpenLoopCfg};
use crate::TABLE;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use unbundled_core::{DcId, Key, TableSpec, TcId, TcShardMap};
use unbundled_dc::DcConfig;
use unbundled_kernel::{cooldown_violations, Deployment, MoveKind, RebalanceCfg, TransportKind};
use unbundled_tc::{GatherWindow, GroupCommitCfg, ReadConsistency, TableRoute, TcConfig};

/// Simulated log-device flush latency — deliberately slow (cloud
/// network-attached storage, not local NVMe) so the redo log, not the
/// worker pool, is the resource the split doubles.
pub const FORCE_LATENCY: Duration = Duration::from_micros(1_500);

/// Worker threads servicing admitted arrivals.
pub const WORKERS: usize = 16;

/// Group-commit gather cap per shard — deliberately *half* the worker
/// pool, so one redo log tops out near 5k commits/s while two logs
/// (and the same 16 workers) can carry the whole ramp.
pub const MAX_WAITERS: usize = 8;

/// Admission-queue capacity: past this backlog, arrivals shed.
pub const QUEUE_CAP: usize = 512;

/// Ramp start: comfortably inside one shard's capacity.
pub const RAMP_START: f64 = 1_500.0;

/// Ramp end: past one shard's log ceiling, inside two shards'.
pub const RAMP_END: f64 = 7_500.0;

/// The p99 latency band (scheduled arrival → commit done). The policy
/// cell must stay inside it; the static cell must breach it. Sized so
/// group-commit waits and one fence stall sit far below, and a
/// saturated admission queue (hundreds of entries draining at one log's
/// ceiling) sits far above.
pub const P99_BAND: Duration = Duration::from_millis(25);

const EIGHTH: u64 = u64::MAX / 8;
/// Key slots per worker: slots `0..7` spread across the bottom eighth
/// of the keyspace, slot `7` up in the top eighth. Arrivals round-robin
/// the slots, so 7/8 of the traffic lands in 1/8 of the keyspace and
/// the traffic median sits near `EIGHTH/2` — nowhere near the keyspace
/// midpoint a distribution-blind cut would pick.
const SLOTS: usize = 8;

/// The autopilot configuration under test (also what the docs quote).
fn policy_cfg() -> RebalanceCfg {
    RebalanceCfg {
        interval: Duration::from_millis(25),
        split_rate: 3_500.0,
        merge_rate: 500.0,
        split_queue_depth: MAX_WAITERS as u64,
        cooldown: Duration::from_millis(400),
        min_samples: 64,
    }
}

/// Two TC shards over two DCs (the e15 elastic topology), but the shard
/// map starts with **everything on TC1** — TC2 is capacity the policy
/// has to discover and use.
fn autopilot_deployment() -> Deployment {
    let tc_cfg = TcConfig {
        force_every: usize::MAX,
        resend_interval: Duration::from_millis(5),
        lock_timeout: Some(Duration::from_millis(300)),
        group_commit: Some(GroupCommitCfg {
            window: GatherWindow::adaptive(),
            max_waiters: MAX_WAITERS,
        }),
        ..TcConfig::default()
    };
    let route =
        TableRoute::Partitioned(Arc::new(vec![(u64::MAX / 2, DcId(1)), (u64::MAX, DcId(2))]));
    let mut d = Deployment::new();
    for dc in [DcId(1), DcId(2)] {
        d.add_dc(dc, DcConfig::default());
    }
    for tc in [TcId(1), TcId(2)] {
        d.add_tc(tc, tc_cfg.clone());
        for dc in [DcId(1), DcId(2)] {
            d.connect(tc, dc, TransportKind::Inline);
        }
    }
    for dc in [DcId(1), DcId(2)] {
        d.create_table(dc, TableSpec::plain(TABLE, "t"));
    }
    for tc in [TcId(1), TcId(2)] {
        d.route(tc, TABLE, route.clone());
    }
    d.set_shard_map(TcShardMap::single(TcId(1)));
    d
}

/// Worker `w`'s key in `slot`: slots 0..7 spread across the bottom
/// eighth, slot 7 in the top eighth. Worker-private, so the workload is
/// conflict-free and the lost-ack check is exact.
fn slot_key(w: usize, slot: usize) -> Key {
    let base = if slot < SLOTS - 1 {
        (EIGHTH / SLOTS as u64) * slot as u64
    } else {
        7 * EIGHTH
    };
    Key::from_u64(base + 1_000 + w as u64)
}

fn run_cell(policy: bool, seed: u64, horizon: Duration) -> Row {
    let d = Arc::new(autopilot_deployment());
    for w in 0..WORKERS {
        for slot in 0..SLOTS {
            let key = slot_key(w, slot);
            let owner = d.shard_map().expect("sharded").tc_for(&key);
            let tc = d.tc(owner);
            let txn = tc.begin().expect("begin preload");
            tc.insert(txn, TABLE, key, vec![0u8; 8]).expect("preload");
            tc.commit(txn).expect("commit preload");
        }
    }
    for tc in [TcId(1), TcId(2)] {
        d.tc_log(tc).set_force_latency(FORCE_LATENCY);
    }

    let last_acked: Vec<AtomicU64> = (0..WORKERS * SLOTS)
        .map(|_| AtomicU64::new(u64::MAX))
        .collect();
    let retries = AtomicU64::new(0);
    let commit_one = |w: usize, i: usize| {
        let slot = i % SLOTS;
        let key = slot_key(w, slot);
        let val = (i as u64).to_le_bytes().to_vec();
        loop {
            // Route by the *current* map on every attempt: after an
            // autopilot split, the same key commits through TC2.
            let owner = d.shard_map().expect("sharded").tc_for(&key);
            let tc = d.tc(owner);
            let Ok(txn) = tc.begin() else {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            };
            let ok =
                tc.update(txn, TABLE, key.clone(), val.clone()).is_ok() && tc.commit(txn).is_ok();
            if ok {
                last_acked[w * SLOTS + slot].store(i as u64, Ordering::Release);
                return;
            }
            let _ = tc.abort(txn);
            retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(200));
        }
    };

    let schedule = ArrivalProcess::Ramp {
        start_rate: RAMP_START,
        end_rate: RAMP_END,
    }
    .schedule(seed, horizon);
    let cfg = OpenLoopCfg {
        queue_cap: QUEUE_CAP,
        workers: WORKERS,
    };
    let autopilot = policy.then(|| d.start_autopilot(policy_cfg()));
    let r = run_open_loop(&schedule, &cfg, commit_one);
    let (moves, considered, cooldown_skips) = match autopilot {
        Some(p) => {
            let considered = p.registry().snapshot().counter("policy.considered");
            let skips = p.registry().snapshot().counter("policy.cooldown_skips");
            (p.stop(), considered, skips)
        }
        None => (Vec::new(), 0, 0),
    };
    for tc in [TcId(1), TcId(2)] {
        d.tc_log(tc).set_force_latency(Duration::ZERO);
    }

    // Zero-lost-acks check: every slot's current value must be the
    // payload of the last acknowledged commit.
    let mut lost_acks = 0u64;
    for w in 0..WORKERS {
        for slot in 0..SLOTS {
            let acked = last_acked[w * SLOTS + slot].load(Ordering::Acquire);
            if acked == u64::MAX {
                continue;
            }
            let key = slot_key(w, slot);
            let owner = d.shard_map().expect("sharded").tc_for(&key);
            let tc = d.tc(owner);
            let txn = tc.begin().expect("begin check");
            let got = tc
                .read(txn, TABLE, key, ReadConsistency::Locking)
                .expect("read check");
            tc.commit(txn).expect("commit check");
            if got.as_deref() != Some(acked.to_le_bytes().as_slice()) {
                lost_acks += 1;
            }
        }
    }

    let map_epoch = d.shard_map().expect("sharded").epoch();
    let settled = [TcId(1), TcId(2)].iter().all(|id| {
        let tc = d.tc(*id);
        tc.map_epoch() == map_epoch && tc.fence_info().is_none()
    });
    let splits = moves.iter().filter(|m| m.kind == MoveKind::Split).count() as u64;
    let merges = moves.iter().filter(|m| m.kind == MoveKind::Merge).count() as u64;
    let violations = cooldown_violations(&moves, policy_cfg().cooldown) as u64;
    let first_split_ms = moves
        .iter()
        .find(|m| m.kind == MoveKind::Split)
        .map(|m| m.since_start.as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    Row::new()
        // `static` or `policy`.
        .with("label", if policy { "policy" } else { "static" })
        // Arrivals in the schedule, admitted and committed, and shed at
        // the bounded admission queue.
        .with("offered", r.offered)
        .with("delivered", r.delivered)
        .with("shed", r.shed)
        // Delivered commits per second of makespan.
        .with("delivered_per_sec", r.delivered_per_sec())
        // Scheduled-arrival → commit-done latency (µs); p99 is the
        // banded number.
        .with("total_p50_us", us(r.total.p50()))
        .with("total_p99_us", us(r.total.p99()))
        .with("total_max_us", us(r.total.max()))
        // Completed autopilot splits and merges.
        .with("splits", splits)
        .with("merges", merges)
        // Cooldown-window violations across the move log.
        .with("violations", violations)
        // Published map epoch at the end of the run.
        .with("map_epoch", map_epoch)
        // Every shard at the final epoch with no fence left.
        .with("settled", settled)
        // Acknowledged writes whose value did not survive.
        .with("lost_acks", lost_acks)
        // Client-visible retries (re-routed and re-issued).
        .with("retries", retries.load(Ordering::Relaxed))
        // When the first autopilot split completed (ms from policy
        // start; 0 when no split ran).
        .with("first_split_ms", first_split_ms)
        // Shards the policy considered for a move, and moves skipped
        // inside a cooldown window (telemetry, policy cell).
        .with("considered", considered)
        .with("cooldown_skips", cooldown_skips)
}

/// The correctness fields that take their *worst* rep in [`best_of`]:
/// a lost ack, a missing split, a thrashing move log or an unsettled
/// map in any rep is a bug, not noise.
const WORST: [(&str, Cmp); 4] = [
    ("lost_acks", Cmp::AtMost),
    ("splits", Cmp::AtLeast),
    ("violations", Cmp::AtMost),
    ("settled", Cmp::AtLeast),
];

/// Run the full experiment. `smoke` shrinks the horizon for CI; the
/// gates are identical in both modes.
pub fn run(smoke: bool) -> Report {
    let horizon = if smoke {
        Duration::from_millis(1500)
    } else {
        Duration::from_millis(4000)
    };
    let seed = 0xE17_0001u64;
    const REPS: usize = 2;
    let rows = vec![
        best_of(REPS, "delivered_per_sec", &WORST, |rep| {
            run_cell(false, seed + rep, horizon)
        }),
        best_of(REPS, "delivered_per_sec", &WORST, |rep| {
            run_cell(true, seed + rep, horizon)
        }),
    ];
    let gates = gates(&rows);
    Report {
        params: Row::new()
            .with("horizon_ms", horizon.as_millis() as u64)
            .with("force_latency_us", FORCE_LATENCY.as_micros() as u64)
            .with("workers", WORKERS)
            .with("max_waiters", MAX_WAITERS)
            .with("ramp_start", RAMP_START)
            .with("ramp_end", RAMP_END)
            .with("p99_band_us", P99_BAND.as_micros() as u64),
        rows,
        gates,
        notes: Vec::new(),
    }
}

fn gates(rows: &[Row]) -> Vec<Gate> {
    let fixed = find(rows, &[("label", "static".into())]);
    let auto = find(rows, &[("label", "policy".into())]);
    let band_us = P99_BAND.as_secs_f64() * 1e6;
    vec![
        // Policy-initiated moves never lose an acknowledged write.
        Gate::holds(
            "policy: zero acknowledged writes lost",
            auto.num("lost_acks") == 0.0,
        ),
        // The autopilot acted: at least one completed split, every rep.
        Gate::at_least(
            "policy: at least one completed autopilot split",
            auto.num("splits"),
            1.0,
        ),
        // And left the tier settled: every shard at the final epoch, no
        // fence behind.
        Gate::holds(
            "policy: map settled on every shard, fences clear",
            auto.num("settled") == 1.0,
        ),
        // No thrash: a range moves at most once per cooldown window.
        Gate::holds(
            "policy: no range moved twice within one cooldown window",
            auto.num("violations") == 0.0,
        ),
        // The band separation — the policy cell holds p99 inside the
        // band…
        Gate::at_least(
            "policy: arrival→commit p99 inside the band",
            band_us / auto.num("total_p99_us").max(f64::EPSILON),
            1.0,
        ),
        // …that the static map breaches on the same ramp.
        Gate::at_least(
            "static: arrival→commit p99 breaches the band",
            fixed.num("total_p99_us") / band_us,
            1.0,
        ),
        // The split buys real capacity: the policy cell delivers at
        // least what the saturating static cell manages.
        Gate::at_least(
            "policy: delivered throughput vs static",
            auto.num("delivered_per_sec") / fixed.num("delivered_per_sec").max(f64::EPSILON),
            1.0,
        ),
    ]
}
