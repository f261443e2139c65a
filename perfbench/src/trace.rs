//! Bench-side tracing: wrappers around the two public seams between the
//! TC and the DC, and per-call tallies for the TC's public functions.
//!
//! Nothing here reaches into the program. [`TracedLink`] wraps a
//! [`DcLink`] (installed with `Tc::register_dc`) and [`TracedDc`] wraps a
//! [`DataComponentApi`] (installed into the transport's `DcSlot`), so a
//! traced run times exactly the calls an untraced run makes, one layer
//! boundary at a time.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use unbundled_core::{DataComponentApi, DcId, DcToTc, LogicalOp, TcToDc};
use unbundled_tc::DcLink;

/// Call count and summed wall time of one kind of call.
#[derive(Default)]
pub struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Tally {
    /// Record `n` calls that together took `ns` nanoseconds.
    pub fn add(&self, n: u64, ns: u64) {
        self.calls.fetch_add(n, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed wall time, in microseconds.
    pub fn total_us(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Mean wall time per call, in microseconds (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        ratio(self.total_us(), self.calls() as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every tally a traced run keeps, shared by all clients and wrappers.
#[derive(Default)]
pub struct Recorder {
    /// `DcLink::send` calls (one per TC→DC message).
    pub link_send: Tally,
    /// DC `handle` time for point reads and scans, per operation.
    pub dc_read: Tally,
    /// DC `handle` time for mutations and commit stamps, per operation.
    pub dc_write: Tally,
    /// DC `handle` time for `EndOfStableLog`.
    pub dc_eosl: Tally,
    /// DC `handle` time for `LowWaterMark`.
    pub dc_lwm: Tally,
    /// DC `handle` time for every other message kind.
    pub dc_other: Tally,
    /// `Tc::read` calls.
    pub tc_read: Tally,
    /// `Tc::update` calls.
    pub tc_update: Tally,
    /// `Tc::scan` calls.
    pub tc_scan: Tally,
    /// `Tc::commit` calls.
    pub tc_commit: Tally,
    /// Whole transactions, `begin` to the return of `commit`.
    pub txn: Tally,
    /// Time of those transactions spent inside an outermost link send.
    pub txn_in_link: Tally,
}

impl Recorder {
    /// Summed DC `handle` time over every message kind, in microseconds.
    pub fn dc_total_us(&self) -> f64 {
        [
            &self.dc_read,
            &self.dc_write,
            &self.dc_eosl,
            &self.dc_lwm,
            &self.dc_other,
        ]
        .iter()
        .map(|t| t.total_us())
        .sum()
    }
}

/// Run `f`, adding its wall time to `tally` when one is given.
pub fn timed<T>(tally: Option<&Tally>, f: impl FnOnce() -> T) -> T {
    match tally {
        Some(t) => {
            let start = Instant::now();
            let out = f();
            t.add(1, start.elapsed().as_nanos() as u64);
            out
        }
        None => f(),
    }
}

thread_local! {
    /// Nesting depth of link sends on this thread (an inline send can
    /// deliver a reply that sends again).
    static LINK_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Nanoseconds this thread has spent inside outermost link sends.
    static IN_LINK_NS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds the calling thread has spent inside outermost link sends
/// so far; the difference across a transaction is its time in the link.
pub fn thread_in_link_ns() -> u64 {
    IN_LINK_NS.with(|c| c.get())
}

/// A [`DcLink`] that times every send.
pub struct TracedLink {
    inner: Arc<dyn DcLink>,
    rec: Arc<Recorder>,
}

impl TracedLink {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: Arc<dyn DcLink>, rec: Arc<Recorder>) -> Arc<Self> {
        Arc::new(TracedLink { inner, rec })
    }
}

impl DcLink for TracedLink {
    fn send(&self, msg: TcToDc) {
        let depth = LINK_DEPTH.with(|d| {
            d.set(d.get() + 1);
            d.get()
        });
        let start = Instant::now();
        self.inner.send(msg);
        let ns = start.elapsed().as_nanos() as u64;
        LINK_DEPTH.with(|d| d.set(d.get() - 1));
        self.rec.link_send.add(1, ns);
        if depth == 1 {
            IN_LINK_NS.with(|c| c.set(c.get() + ns));
        }
    }
}

/// A [`DataComponentApi`] that times `handle` per message kind.
pub struct TracedDc {
    inner: Arc<dyn DataComponentApi>,
    rec: Arc<Recorder>,
}

impl TracedDc {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: Arc<dyn DataComponentApi>, rec: Arc<Recorder>) -> Arc<Self> {
        Arc::new(TracedDc { inner, rec })
    }

    fn op_tally(&self, op: &LogicalOp) -> &Tally {
        if op.is_mutation() {
            &self.rec.dc_write
        } else {
            &self.rec.dc_read
        }
    }
}

impl DataComponentApi for TracedDc {
    fn dc_id(&self) -> DcId {
        self.inner.dc_id()
    }

    fn handle(&self, msg: TcToDc, out: &mut Vec<DcToTc>) {
        // Classify before the message moves into the handler. A batch's
        // time is shared evenly among its operations.
        let mut kinds: Vec<&Tally> = Vec::with_capacity(1);
        match &msg {
            TcToDc::Perform { op, .. } => kinds.push(self.op_tally(op)),
            TcToDc::PerformBatch { ops, .. } => {
                kinds.extend(ops.iter().map(|(_, op)| self.op_tally(op)))
            }
            TcToDc::EndOfStableLog { .. } => kinds.push(&self.rec.dc_eosl),
            TcToDc::LowWaterMark { .. } => kinds.push(&self.rec.dc_lwm),
            _ => kinds.push(&self.rec.dc_other),
        }
        let start = Instant::now();
        self.inner.handle(msg, out);
        let ns = start.elapsed().as_nanos() as u64;
        let share = ns / kinds.len().max(1) as u64;
        for t in kinds {
            t.add(1, share);
        }
    }
}
