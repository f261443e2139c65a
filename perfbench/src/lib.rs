//! End-to-end and per-layer benchmark of the unbundled TC/DC stack.
//!
//! `run.py` builds this package and runs the `perfbench` binary once per
//! workload; `README.md` describes the workloads and how to read the
//! metrics.

pub mod metrics;
pub mod rng;
pub mod stack;
pub mod trace;
pub mod workload;

use metrics::{
    cpu_ticks, end_to_end, per_layer, quiet_quantile_us, quiet_setup_s, quiet_steal_frac,
    steal_frac, Counters, Metric, TracedRun,
};
use std::sync::Arc;
use std::time::Instant;
use trace::Recorder;
use workload::{
    check_final_state, monolith_transfer_p50_us, run_phase, Workload, RSS_MARK_COMMITS,
};

/// Set-ups per run; `setup_s` is the median time of the quieter ones
/// (see [`metrics::quiet_setup_s`]).
pub const SETUPS: usize = 5;

/// What one run reports.
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Transactions attempted.
    pub attempted: u64,
    /// Transactions that aborted, timed out or returned an error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// Set `w` up [`SETUPS`] times, keep the last stack, and run it for
/// `seconds`: untraced for the end-to-end metrics, or traced for the
/// per-layer ones. Diagnostics go to standard error.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut setup_times = Vec::new();
    let mut stack = None;
    for _ in 0..SETUPS {
        // Tear the previous stack down first, so set-ups do not overlap
        // in memory.
        drop(stack.take());
        let (ticks, start) = (cpu_ticks(), Instant::now());
        stack = Some(w.setup());
        setup_times.push((
            start.elapsed().as_secs_f64(),
            steal_frac(ticks, cpu_ticks()),
        ));
    }
    let stack = stack.expect("at least one set-up");

    let cpu_before = cpu_ticks();
    let mut violations = Vec::new();
    let (metrics, attempted, failed) = if trace {
        // Untraced, then traced, then (oltp-inline only) the monolith
        // control, all within the run's seconds.
        let (untraced_share, monolith_share) = match w {
            Workload::OltpInline => (0.4, 0.2),
            _ => (0.5, 0.0),
        };
        let untraced = run_phase(&stack, w, seed, 0, seconds * untraced_share, None);
        let rec = Arc::new(Recorder::default());
        stack.install_tracing(&rec);
        let before = Counters::capture(&stack);
        let traced_secs = seconds * (1.0 - untraced_share - monolith_share);
        let traced = run_phase(&stack, w, seed, 1, traced_secs, Some(&rec));
        let after = Counters::capture(&stack);
        if let Err(e) = check_final_state(&stack, w, untraced.rmw_commits + traced.rmw_commits) {
            violations.push(e);
        }
        let monolith_p50_us = if monolith_share > 0.0 {
            monolith_transfer_p50_us(seed, seconds * monolith_share)
        } else {
            0.0
        };
        // On the inline transport the DC runs inside the link's send, so
        // its handle time cannot exceed the send time.
        if w.inline() && rec.dc_total_us() > rec.link_send.total_us() {
            violations.push(format!(
                "trace: DC handle time {:.0} us exceeds inline send time {:.0} us",
                rec.dc_total_us(),
                rec.link_send.total_us()
            ));
        }
        violations.extend(untraced.violations.iter().cloned());
        violations.extend(traced.violations.iter().cloned());
        let run = TracedRun {
            workload: w,
            stack: &stack,
            before,
            after,
            traced: &traced,
            untraced: &untraced,
            monolith_p50_us,
            steal_frac: steal_frac(cpu_before, cpu_ticks()),
        };
        (
            per_layer(&run, &rec),
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        )
    } else {
        let mut out = run_phase(&stack, w, seed, 0, seconds, None);
        if let Err(e) = check_final_state(&stack, w, out.rmw_commits) {
            violations.push(e);
        }
        violations.append(&mut out.violations);
        eprintln!(
            "perfbench: {} committed {} of {} transactions in {:.2} s; failed_frac {:.6}; \
             quiet write p90/p99 {:.0}/{:.0} us, read p99 {:.0} us; host.steal_frac {:.4} \
             (quiet quarter {:.4}); set-ups (s, steal) {:?}",
            w.name(),
            out.commits(),
            out.attempted,
            out.elapsed.as_secs_f64(),
            out.failed as f64 / out.attempted.max(1) as f64,
            quiet_quantile_us(&out, &out.write, 0.90),
            quiet_quantile_us(&out, &out.write, 0.99),
            quiet_quantile_us(&out, &out.read, 0.99),
            steal_frac(cpu_before, cpu_ticks()),
            quiet_steal_frac(&out),
            setup_times,
        );
        if out.rss_mark_mb.is_none() {
            eprintln!(
                "perfbench: fewer than {RSS_MARK_COMMITS} commits; peak_rss_mb is the run's peak"
            );
        }
        let metrics = end_to_end(&out, quiet_setup_s(&setup_times));
        (metrics, out.attempted, out.failed)
    };
    for v in &violations {
        eprintln!("perfbench: correctness check failed: {v}");
    }
    Report {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
    }
}
