//! Turning what a run saw into the named metrics, and printing them.

use crate::stack::{Stack, TABLE};
use crate::trace::{ratio, Recorder};
use crate::workload::{Outcome, Sample, Workload};

/// Nearest-rank quantile of sorted samples (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of a small sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One named metric with its unit.
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time counters from `/proc/stat`: `(steal, total)` in ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of host CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    ratio(
        after.0.saturating_sub(before.0) as f64,
        after.1.saturating_sub(before.1) as f64,
    )
}

/// Sorted latencies of `samples`.
fn sorted_ns(samples: &[Sample]) -> Vec<u64> {
    let mut v: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    v.sort_unstable();
    v
}

/// The run's quiet seconds: the quarter of its whole one-second windows
/// in which the host stole the least CPU time (at least one window).
/// Steal comes in bursts of a few seconds on a shared host; the
/// end-to-end metrics are taken over these windows so that a burst moves
/// the host's share of the run, not the program's figures.
pub fn quiet_windows(o: &Outcome) -> Vec<bool> {
    let n = o.window_steal.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| o.window_steal[a].total_cmp(&o.window_steal[b]));
    let mut quiet = vec![false; n];
    for &i in order.iter().take((n / 4).max(1)) {
        quiet[i] = true;
    }
    quiet
}

/// The window a sample ended in, if it ended in a whole window.
fn window_of(s: &Sample, quiet: &[bool]) -> Option<usize> {
    let i = (s.end_ns / 1_000_000_000) as usize;
    (i < quiet.len()).then_some(i)
}

/// Latency quantile `q`, in microseconds, of those of `o`'s `samples`
/// that ended in its quiet windows (all of them when the phase was
/// shorter than one window).
pub fn quiet_quantile_us(o: &Outcome, samples: &[Sample], q: f64) -> f64 {
    let quiet = quiet_windows(o);
    let in_quiet: Vec<Sample> = samples
        .iter()
        .filter(|s| quiet.is_empty() || window_of(s, &quiet).is_some_and(|i| quiet[i]))
        .copied()
        .collect();
    quantile(&sorted_ns(&in_quiet), q) / 1e3
}

/// Committed transactions per second: the median commit count of the
/// quiet windows (the whole phase's rate when it was shorter than one
/// window).
pub fn quiet_commits_per_s(o: &Outcome) -> f64 {
    let quiet = quiet_windows(o);
    if quiet.is_empty() {
        return o.commits_per_s();
    }
    let mut counts = vec![0.0; quiet.len()];
    for s in o.write.iter().chain(&o.read) {
        if let Some(i) = window_of(s, &quiet) {
            counts[i] += 1.0;
        }
    }
    let q: Vec<f64> = (0..quiet.len())
        .filter(|&i| quiet[i])
        .map(|i| counts[i])
        .collect();
    median(&q)
}

/// Mean steal share over the quiet windows.
pub fn quiet_steal_frac(o: &Outcome) -> f64 {
    let quiet = quiet_windows(o);
    let q: Vec<f64> = (0..quiet.len())
        .filter(|&i| quiet[i])
        .map(|i| o.window_steal[i])
        .collect();
    ratio(q.iter().sum(), q.len() as f64)
}

/// Set-up time in seconds from `(time, steal share)` per set-up: the
/// median time of the quieter half (rounded up) of the set-ups, picked by
/// host steal as the quiet windows are.
pub fn quiet_setup_s(setups: &[(f64, f64)]) -> f64 {
    let mut by_steal = setups.to_vec();
    by_steal.sort_by(|a, b| a.1.total_cmp(&b.1));
    let quiet: Vec<f64> = by_steal
        .iter()
        .take(setups.len().div_ceil(2))
        .map(|s| s.0)
        .collect();
    median(&quiet)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome, setup_s: f64) -> Vec<Metric> {
    vec![
        m("commits_per_s", "1/s", quiet_commits_per_s(o)),
        m(
            "write_txn_p50_us",
            "us",
            quiet_quantile_us(o, &o.write, 0.50),
        ),
        m("read_txn_p50_us", "us", quiet_quantile_us(o, &o.read, 0.50)),
        m("read_txn_p90_us", "us", quiet_quantile_us(o, &o.read, 0.90)),
        m(
            "commit_frac",
            "frac",
            1.0 - ratio(o.failed as f64, o.attempted as f64),
        ),
        m(
            "peak_rss_mb",
            "MB",
            o.rss_mark_mb.unwrap_or_else(peak_rss_mb),
        ),
        m("setup_s", "s", setup_s),
    ]
}

/// Program counters the per-layer metrics are deltas of, summed over
/// every shard of a stack.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    locks_acquired: u64,
    lock_waits: u64,
    deadlocks: u64,
    cross_commits: u64,
    log_records: u64,
    log_bytes: u64,
    log_forces: u64,
    force_count: u64,
    force_ns: f64,
    page_reads: u64,
    page_writes: u64,
    evictions: u64,
    dups: u64,
    applied: u64,
    batches: u64,
    batched_ops: u64,
    reply_batches: u64,
    reply_batched_ops: u64,
}

impl Counters {
    /// Read every counter now.
    pub fn capture(stack: &Stack) -> Counters {
        let mut c = Counters::default();
        for s in &stack.shards {
            let (acq, waits, dl, _) = s.tc.lock_manager().stats().snapshot();
            c.locks_acquired += acq;
            c.lock_waits += waits;
            c.deadlocks += dl;
            c.cross_commits += s.tc.stats().snapshot().cross_commits;
            let io = s.tc_log.stats().snapshot();
            c.log_records += io.log_records;
            c.log_bytes += io.log_bytes;
            c.log_forces += io.log_forces;
            let reg = s.tc_log.registry().snapshot();
            if let Some(h) = reg.histogram("storage.force_flush_ns") {
                c.force_count += h.count();
                c.force_ns += h.mean().as_nanos() as f64 * h.count() as f64;
            }
            let disk = s.disk.stats().snapshot();
            c.page_reads += disk.page_reads;
            c.page_writes += disk.page_writes;
            let dc = s.dc.engine().stats().snapshot();
            c.evictions += dc.evictions;
            c.dups += dc.duplicates_suppressed;
            c.applied += dc.ops_applied;
            if let Some(q) = &s.queued {
                c.batches += q.batches();
                c.batched_ops += q.batched_ops();
                c.reply_batches += q.reply_batches();
                c.reply_batched_ops += q.reply_batched_ops();
            }
        }
        c
    }
}

/// Everything the traced run measured, besides the recorder.
pub struct TracedRun<'a> {
    /// Which workload ran.
    pub workload: Workload,
    /// The stack it ran on, at the end of the traced phase.
    pub stack: &'a Stack,
    /// Counters before the traced phase.
    pub before: Counters,
    /// Counters after it.
    pub after: Counters,
    /// The traced phase's outcome.
    pub traced: &'a Outcome,
    /// The untraced phase of the same run, for the tracing overhead.
    pub untraced: &'a Outcome,
    /// Monolith median transfer latency (`oltp-inline` only, else 0).
    pub monolith_p50_us: f64,
    /// Host steal share over the whole run.
    pub steal_frac: f64,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &TracedRun, rec: &Recorder) -> Vec<Metric> {
    let (b, a) = (&run.before, &run.after);
    let txns = run.traced.commits() as f64;
    let per_txn = |x: u64, y: u64| ratio((x - y) as f64, txns);
    let hop_us = if run.workload.inline() {
        ratio(
            rec.link_send.total_us() - rec.dc_total_us(),
            rec.link_send.calls() as f64,
        )
    } else {
        rec.tc_read.mean_us() - rec.dc_read.mean_us()
    };
    let version_entries: usize = run
        .stack
        .shards
        .iter()
        .map(|s| s.dc.engine().version_chain_entries(TABLE))
        .sum();
    let cached_pages: usize = run
        .stack
        .shards
        .iter()
        .map(|s| s.dc.engine().pool().len())
        .sum();
    vec![
        m("tc.read_us", "us", rec.tc_read.mean_us()),
        m("tc.update_us", "us", rec.tc_update.mean_us()),
        m("tc.scan_us", "us", rec.tc_scan.mean_us()),
        m("tc.commit_us", "us", rec.tc_commit.mean_us()),
        m(
            "tc.write_txn_p90_us",
            "us",
            quiet_quantile_us(run.traced, &run.traced.write, 0.90),
        ),
        m(
            "tc.write_txn_p99_us",
            "us",
            quiet_quantile_us(run.traced, &run.traced.write, 0.99),
        ),
        m(
            "tc.read_txn_p99_us",
            "us",
            quiet_quantile_us(run.traced, &run.traced.read, 0.99),
        ),
        m(
            "tc.self_us_per_txn",
            "us",
            ratio(
                rec.txn.total_us() - rec.txn_in_link.total_us(),
                rec.txn.calls() as f64,
            ),
        ),
        m(
            "tc.cross_frac",
            "frac",
            per_txn(a.cross_commits, b.cross_commits),
        ),
        m(
            "lockmgr.acquired_per_txn",
            "count",
            per_txn(a.locks_acquired, b.locks_acquired),
        ),
        m(
            "lockmgr.waits_per_txn",
            "count",
            per_txn(a.lock_waits, b.lock_waits),
        ),
        m(
            "lockmgr.deadlocks_per_txn",
            "count",
            per_txn(a.deadlocks, b.deadlocks),
        ),
        m(
            "storage.records_per_txn",
            "count",
            per_txn(a.log_records, b.log_records),
        ),
        m(
            "storage.bytes_per_txn",
            "B",
            per_txn(a.log_bytes, b.log_bytes),
        ),
        m(
            "storage.forces_per_txn",
            "count",
            per_txn(a.log_forces, b.log_forces),
        ),
        m(
            "storage.force_us",
            "us",
            ratio(
                a.force_ns - b.force_ns,
                (a.force_count - b.force_count) as f64,
            ) / 1e3,
        ),
        m(
            "kernel.msgs_per_txn",
            "count",
            ratio(rec.link_send.calls() as f64, txns),
        ),
        m("kernel.send_us", "us", rec.link_send.mean_us()),
        m(
            "kernel.send_us_per_txn",
            "us",
            ratio(rec.link_send.total_us(), txns),
        ),
        m("kernel.hop_us", "us", hop_us),
        m(
            "kernel.ops_per_batch",
            "count",
            ratio(
                (a.batched_ops - b.batched_ops) as f64,
                (a.batches - b.batches) as f64,
            ),
        ),
        m(
            "kernel.replies_per_batch",
            "count",
            ratio(
                (a.reply_batched_ops - b.reply_batched_ops) as f64,
                (a.reply_batches - b.reply_batches) as f64,
            ),
        ),
        m("dc.read_us", "us", rec.dc_read.mean_us()),
        m("dc.write_us", "us", rec.dc_write.mean_us()),
        m("dc.eosl_us", "us", rec.dc_eosl.mean_us()),
        m("dc.lwm_us", "us", rec.dc_lwm.mean_us()),
        m(
            "dc.read_per_txn",
            "count",
            ratio(rec.dc_read.calls() as f64, txns),
        ),
        m(
            "dc.write_per_txn",
            "count",
            ratio(rec.dc_write.calls() as f64, txns),
        ),
        m(
            "dc.eosl_per_txn",
            "count",
            ratio(rec.dc_eosl.calls() as f64, txns),
        ),
        m(
            "dc.lwm_per_txn",
            "count",
            ratio(rec.dc_lwm.calls() as f64, txns),
        ),
        m("dc.handle_us_per_txn", "us", ratio(rec.dc_total_us(), txns)),
        m(
            "dc.page_reads_per_txn",
            "count",
            per_txn(a.page_reads, b.page_reads),
        ),
        m(
            "dc.page_writes_per_txn",
            "count",
            per_txn(a.page_writes, b.page_writes),
        ),
        m(
            "dc.evictions_per_txn",
            "count",
            per_txn(a.evictions, b.evictions),
        ),
        m(
            "dc.dup_frac",
            "frac",
            ratio((a.dups - b.dups) as f64, (a.applied - b.applied) as f64),
        ),
        m("dc.version_entries", "count", version_entries as f64),
        m("dc.cached_pages", "count", cached_pages as f64),
        m("monolith.txn_p50_us", "us", run.monolith_p50_us),
        m("host.steal_frac", "frac", run.steal_frac),
        m(
            "trace.commits_per_s",
            "1/s",
            quiet_commits_per_s(run.traced),
        ),
        m(
            "trace.overhead_frac",
            "frac",
            1.0 - ratio(
                quiet_commits_per_s(run.traced),
                quiet_commits_per_s(run.untraced),
            ),
        ),
    ]
}

/// The result line: one JSON object with the run's verdict and metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[m("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
