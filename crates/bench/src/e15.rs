//! E15: online TC rebalance (elastic split/merge) under an open-loop
//! arrival-driven workload.
//!
//! E14 measured what a *static* sharded TC tier buys; this experiment
//! measures what an *elastic* one costs while it changes shape. Two TC
//! shards serve a sub-capacity Poisson arrival stream (the e13 open-loop
//! machinery: latency is measured from the scheduled arrival time, so
//! every fence stall and re-route is on the books). Mid-run, a driver
//! moves the key range `[CUT, HALF)` out of TC1 into TC2 and later back
//! — two full online rebalances, each a fence + drain + checkpoint-to-
//! log-end + forced `RebalanceDone` + epoch-bumped map republish —
//! while the workload keeps committing on keys below, inside, and above
//! the moving range.
//!
//! What the gates hold:
//!
//! * **zero lost acks** — every key's final value equals the payload of
//!   the last commit the workload was acknowledged for (worker-private
//!   keys make the check exact). An elastic move must never lose an
//!   acknowledged write.
//! * **both moves complete online** — two `RebalanceDone` records and a
//!   settled map at epoch 2 on every shard, with no fence left behind.
//! * **bounded disturbance** — delivered throughput stays close to the
//!   steady cell's and no arrival waits longer than a wide absolute
//!   budget: the move shows up as a few milliseconds of fence stall on
//!   the moving range, not as an outage.

use crate::experiment::{best_of, find, Cmp, Gate, Report, Row};
use crate::workload::{run_open_loop, ArrivalProcess, OpenLoopCfg};
use crate::TABLE;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use unbundled_core::{DcId, Key, TableSpec, TcId, TcShardMap};
use unbundled_dc::DcConfig;
use unbundled_kernel::{Deployment, TransportKind};
use unbundled_tc::{GatherWindow, GroupCommitCfg, ReadConsistency, TableRoute, TcConfig};

/// Simulated log-device flush latency (NVMe-class fsync), matching e14.
pub const FORCE_LATENCY: Duration = Duration::from_micros(150);

/// Worker threads servicing admitted arrivals (also the group-commit
/// `max_waiters` per shard).
pub const WORKERS: usize = 8;

/// Admission-queue capacity: past this backlog, arrivals shed.
pub const QUEUE_CAP: usize = 512;

/// Offered arrival rate — deliberately below the two-shard capacity, so
/// any delivered-throughput dip or latency tail in the rebalance cell
/// is the move's doing, not saturation.
pub const ARRIVAL_RATE: f64 = 6_000.0;

/// No delivered arrival may wait longer than this, moves included — the
/// fence stall is bounded by drain + checkpoint + republish (a few
/// milliseconds here), and a re-route adds milliseconds, not seconds.
/// Wide on purpose: it separates "bounded disturbance" from "outage"
/// without flapping on a noisy CI runner.
pub const DISTURBANCE_BUDGET: Duration = Duration::from_millis(1000);

const HALF: u64 = u64::MAX / 2;
/// The cut point: `[CUT, HALF)` is the range that moves out and back.
const CUT: u64 = HALF / 2;
/// Key slots per worker: below the cut (always TC1), inside the moving
/// range, and above `HALF` (always TC2).
const SLOTS: usize = 3;
/// When the range moves out (fraction of the measured horizon).
const MOVE_OUT_FRAC: f64 = 0.4;
/// When it moves back.
const MOVE_BACK_FRAC: f64 = 0.7;

/// Two TC shards over two DCs, wired all-to-all with one *shared*
/// partitioned table route: moving TC ownership of a key range never
/// moves the data underneath it, so the DC placement must be common
/// topology rather than per-TC opinion. Shard map starts even.
fn elastic_deployment() -> Deployment {
    let tc_cfg = TcConfig {
        // Only the commit path may force.
        force_every: usize::MAX,
        resend_interval: Duration::from_millis(5),
        // Bounds the fence wait; a move completes in milliseconds, so
        // waiters resolve long before this, and even a pathological
        // timeout-plus-retry stays inside the disturbance budget.
        lock_timeout: Some(Duration::from_millis(300)),
        group_commit: Some(GroupCommitCfg {
            window: GatherWindow::adaptive(),
            max_waiters: WORKERS,
        }),
        ..TcConfig::default()
    };
    let route = TableRoute::Partitioned(std::sync::Arc::new(vec![
        (HALF, DcId(1)),
        (u64::MAX, DcId(2)),
    ]));
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
    d.set_shard_map(TcShardMap::even(&[TcId(1), TcId(2)]));
    d
}

/// Worker `w`'s key in `slot`: 0 below the cut (TC1 throughout), 1
/// inside the moving range, 2 above `HALF` (TC2 throughout). Keys are
/// worker-private, so the workload is conflict-free and the lost-ack
/// check is exact (the last acknowledged write is the last write).
fn slot_key(w: usize, slot: usize) -> Key {
    let base = match slot {
        0 => 0,
        1 => CUT,
        _ => HALF,
    };
    Key::from_u64(base + 1_000 + w as u64)
}

fn run_cell(rebalance: bool, seed: u64, horizon: Duration) -> Row {
    let d = elastic_deployment();
    // Preload every slot key through its owner (latency-free), then
    // charge the device latency for the measured phase.
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

    // Last acknowledged arrival index per (worker, slot); u64::MAX =
    // never acked. A worker's arrivals are serviced in admission order
    // on its own thread, so the last store is the last commit.
    let last_acked: Vec<AtomicU64> = (0..WORKERS * SLOTS)
        .map(|_| AtomicU64::new(u64::MAX))
        .collect();
    let retries = AtomicU64::new(0);
    let commit_one = |w: usize, i: usize| {
        let slot = i % SLOTS;
        let key = slot_key(w, slot);
        let val = (i as u64).to_le_bytes().to_vec();
        loop {
            // Route by the *current* map on every attempt: after a
            // move, the same key commits through the new owner.
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
            // A failed op already rolled the transaction back; a failed
            // commit aborted it. Either way re-route and re-issue.
            let _ = tc.abort(txn);
            retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(200));
        }
    };

    let schedule = ArrivalProcess::Poisson { rate: ARRIVAL_RATE }.schedule(seed, horizon);
    let cfg = OpenLoopCfg {
        queue_cap: QUEUE_CAP,
        workers: WORKERS,
    };
    let mut move_out_ms = 0.0f64;
    let mut move_back_ms = 0.0f64;
    let mut result = None;
    std::thread::scope(|s| {
        let mover = rebalance.then(|| {
            s.spawn(|| {
                let start = Instant::now();
                std::thread::sleep(horizon.mul_f64(MOVE_OUT_FRAC));
                let t0 = Instant::now();
                d.move_range(CUT, HALF - 1, TcId(2));
                let out = t0.elapsed();
                std::thread::sleep(
                    horizon
                        .mul_f64(MOVE_BACK_FRAC)
                        .saturating_sub(start.elapsed()),
                );
                let t0 = Instant::now();
                d.move_range(CUT, HALF - 1, TcId(1));
                (out, t0.elapsed())
            })
        });
        result = Some(run_open_loop(&schedule, &cfg, commit_one));
        if let Some(h) = mover {
            let (out, back) = h.join().expect("mover thread");
            move_out_ms = out.as_secs_f64() * 1e3;
            move_back_ms = back.as_secs_f64() * 1e3;
        }
    });
    let r = result.expect("open-loop result");
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
    let (mut moves, mut fence_reroutes, mut stale_forward_reroutes) = (0u64, 0u64, 0u64);
    for id in [TcId(1), TcId(2)] {
        let snap = d.tc(id).stats().snapshot();
        moves += snap.rebalances;
        fence_reroutes += snap.fence_reroutes;
        stale_forward_reroutes += snap.stale_forward_reroutes;
    }
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    Row::new()
        // `steady` or `rebalance`.
        .with("label", if rebalance { "rebalance" } else { "steady" })
        // Arrivals in the schedule, admitted and committed, and shed at
        // the bounded admission queue.
        .with("offered", r.offered)
        .with("delivered", r.delivered)
        .with("shed", r.shed)
        // Delivered commits per second of makespan.
        .with("delivered_per_sec", r.delivered_per_sec())
        // Scheduled-arrival → commit-done latency (µs).
        .with("total_p50_us", us(r.total.p50()))
        .with("total_p99_us", us(r.total.p99()))
        .with("total_max_us", us(r.total.max()))
        // `RebalanceDone` records forced across the tier.
        .with("moves", moves)
        // Published map epoch at the end of the run.
        .with("map_epoch", map_epoch)
        // Every shard at the final epoch with no fence left.
        .with("settled", settled)
        // Local ops that slept on a fence and re-resolved their owner.
        .with("fence_reroutes", fence_reroutes)
        // Forwards re-routed after a stale-epoch rejection.
        .with("stale_forward_reroutes", stale_forward_reroutes)
        // Client-visible retries (op or commit failed, re-routed and
        // re-issued by the workload).
        .with("retries", retries.load(Ordering::Relaxed))
        // Acknowledged writes whose value did not survive (the
        // zero-lost-acks gate).
        .with("lost_acks", lost_acks)
        // Wall time of the move out of TC1 and of the move back (ms; 0
        // in the steady cell).
        .with("move_out_ms", move_out_ms)
        .with("move_back_ms", move_back_ms)
}

/// The correctness fields that take their *worst* rep in [`best_of`].
const WORST: [(&str, Cmp); 4] = [
    ("lost_acks", Cmp::AtMost),
    ("moves", Cmp::AtLeast),
    ("map_epoch", Cmp::AtLeast),
    ("settled", Cmp::AtLeast),
];

/// Run the full experiment. `smoke` shrinks the horizon for CI; the
/// gates are identical in both modes.
pub fn run(smoke: bool) -> Report {
    let horizon = if smoke {
        Duration::from_millis(1200)
    } else {
        Duration::from_millis(4000)
    };
    let seed = 0xE15_0001u64;
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
            .with("arrival_rate", ARRIVAL_RATE)
            .with(
                "disturbance_budget_us",
                DISTURBANCE_BUDGET.as_micros() as u64,
            ),
        rows,
        gates,
        notes: Vec::new(),
    }
}

fn gates(rows: &[Row]) -> Vec<Gate> {
    let steady = find(rows, &[("label", "steady".into())]);
    let moved = find(rows, &[("label", "rebalance".into())]);
    vec![
        // An elastic move must never lose an acknowledged write
        // (checked worst-rep: any rep losing one fails).
        Gate::holds(
            "rebalance: zero acknowledged writes lost",
            moved.num("lost_acks") == 0.0,
        ),
        // Both moves completed online: two RebalanceDone records...
        Gate::at_least(
            "rebalance: both range moves completed (RebalanceDone count)",
            moved.num("moves"),
            2.0,
        ),
        // ...and the tier settled: epoch-2 map on every shard, no fence.
        Gate::holds(
            "rebalance: map settled at epoch 2 on every shard, fences clear",
            moved.num("settled") == 1.0 && moved.num("map_epoch") == 2.0,
        ),
        // The arrival stream is sub-capacity: nothing sheds, move or not.
        Gate::holds(
            "no arrivals shed (steady and rebalance cells)",
            steady.num("shed") == 0.0 && moved.num("shed") == 0.0,
        ),
        // The move costs a bounded throughput dip, not an outage.
        Gate::at_least(
            "rebalance: delivered throughput vs steady",
            moved.num("delivered_per_sec") / steady.num("delivered_per_sec").max(f64::EPSILON),
            0.8,
        ),
        // And a bounded worst-case wait: fence stalls and re-routes are
        // milliseconds, far inside the wide absolute budget.
        Gate::at_least(
            "rebalance: worst arrival latency within disturbance budget",
            DISTURBANCE_BUDGET.as_secs_f64() * 1e6 / moved.num("total_max_us").max(f64::EPSILON),
            1.0,
        ),
    ]
}
