//! The three workloads: their data, their transactions, the closed loop
//! that drives them and the correctness checks on what they return.
//!
//! Every workload is a closed loop of [`CLIENTS`] application threads in
//! one process; each waits for its transaction to finish before it
//! starts the next. A transaction that aborts, times out or returns an
//! error counts as failed and the client moves on to its next input.

use crate::metrics::{cpu_ticks, peak_rss_mb, steal_frac};
use crate::rng::Rng;
use crate::stack::{Stack, Topology, Transport, TABLE};
use crate::trace::{thread_in_link_ns, timed, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use unbundled_core::{Key, ReadFlavor, TcError, TxnId};
use unbundled_monolith::{Monolith, MonolithConfig};
use unbundled_tc::{ReadConsistency, Tc};

/// Closed-loop clients per workload (one per core of the reference box).
pub const CLIENTS: usize = 2;
/// Starting balance of every account.
pub const INITIAL_BALANCE: i64 = 1_000;
/// One transaction in this many on the transfer workloads is a read-only
/// balance audit (two snapshot point reads).
pub const AUDIT_ONE_IN: u64 = 8;
/// Inserts per preload transaction.
const PRELOAD_BATCH: u64 = 500;

/// `oltp-inline`: accounts on the single DC.
pub const OLTP_ACCOUNTS: u64 = 20_000;
/// `durable-2pc`: accounts on each of the two shards.
pub const SHARD_ACCOUNTS: u64 = 2_000;
/// `durable-2pc`: one transfer in this many debits the other shard.
pub const CROSS_ONE_IN: u64 = 4;
/// `durable-2pc`: simulated flush latency of each TC log.
pub const FORCE_LATENCY: Duration = Duration::from_micros(150);
/// `scan-evict`: records in the table.
pub const SCAN_RECORDS: u64 = 100_000;
/// `scan-evict`: payload bytes per record (an 8-byte counter + filler).
pub const PAYLOAD: usize = 100;
/// `scan-evict`: DC buffer-pool capacity in pages.
pub const POOL_PAGES: usize = 256;
/// `scan-evict`: rows per range scan.
pub const SCAN_ROWS: u64 = 50;
/// `scan-evict`: snapshot point reads per read-only transaction.
pub const SNAPSHOT_READS: usize = 4;
/// `peak_rss_mb` is read when a phase commits its this-many-th
/// transaction, so that it measures memory per unit of work and not how
/// much work a run of fixed length got done.
pub const RSS_MARK_COMMITS: u64 = 10_000;

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// One TC and one DC inline; 1-unit transfers between accounts.
    OltpInline,
    /// Two TC shards over queued links with slow log flushes; transfers,
    /// one in four across shards (2PC).
    Durable2pc,
    /// One TC and one DC inline with a small buffer pool; snapshot reads
    /// plus a range scan beside single-record read-modify-writes.
    ScanEvict,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::OltpInline,
        Workload::Durable2pc,
        Workload::ScanEvict,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpInline => "oltp-inline",
            Workload::Durable2pc => "durable-2pc",
            Workload::ScanEvict => "scan-evict",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The deployment it runs on.
    pub fn topology(self) -> Topology {
        match self {
            Workload::OltpInline => Topology {
                shards: 1,
                transport: Transport::Inline,
                pool_pages: 0,
            },
            Workload::Durable2pc => Topology {
                shards: 2,
                transport: Transport::Queued,
                pool_pages: 0,
            },
            Workload::ScanEvict => Topology {
                shards: 1,
                transport: Transport::Inline,
                pool_pages: POOL_PAGES,
            },
        }
    }

    /// Whether TCs reach DCs through the inline transport.
    pub fn inline(self) -> bool {
        self.topology().transport == Transport::Inline
    }

    /// Build the deployment and preload its data.
    pub fn setup(self) -> Stack {
        let stack = Stack::build(self.topology());
        match self {
            Workload::OltpInline => preload(
                &stack.shards[0].tc,
                (0..OLTP_ACCOUNTS).map(account_key),
                |_| balance_bytes(INITIAL_BALANCE),
            ),
            Workload::Durable2pc => {
                for (i, s) in stack.shards.iter().enumerate() {
                    let keys = (0..SHARD_ACCOUNTS).map(|j| shard_key(i, j));
                    preload(&s.tc, keys, |_| balance_bytes(INITIAL_BALANCE));
                }
                for s in &stack.shards {
                    s.tc_log.set_force_latency(FORCE_LATENCY);
                }
            }
            Workload::ScanEvict => preload(
                &stack.shards[0].tc,
                (0..SCAN_RECORDS).map(Key::from_u64),
                |k| record_bytes(k, 0),
            ),
        }
        stack
    }
}

/// Key of account `j` on the single-shard transfer workload.
fn account_key(j: u64) -> Key {
    Key::from_u64(j)
}

/// Key of account `j` on shard `i` of `durable-2pc` (inside the shard's
/// half of the key space under the even shard map).
fn shard_key(i: usize, j: u64) -> Key {
    Key::from_u64((u64::MAX / 2) * i as u64 + j)
}

fn balance_bytes(b: i64) -> Vec<u8> {
    b.to_le_bytes().to_vec()
}

/// A `scan-evict` record: the RMW counter, then filler derived from the
/// key so a read of the wrong record is detected.
fn record_bytes(key: u64, counter: u64) -> Vec<u8> {
    let mut v = counter.to_le_bytes().to_vec();
    v.resize(PAYLOAD, (key % 251) as u8);
    v
}

/// The counter of a well-formed `scan-evict` record of `key`.
fn record_counter(key: u64, v: &[u8]) -> Option<u64> {
    let filler = (key % 251) as u8;
    (v.len() == PAYLOAD && v[8..].iter().all(|b| *b == filler))
        .then(|| u64::from_le_bytes(v[..8].try_into().expect("8 bytes")))
}

fn preload(tc: &Tc, keys: impl Iterator<Item = Key>, value: impl Fn(u64) -> Vec<u8>) {
    let keys: Vec<Key> = keys.collect();
    for chunk in keys.chunks(PRELOAD_BATCH as usize) {
        let t = tc.begin().expect("preload begin");
        for k in chunk {
            let v = value(k.as_u64().expect("numeric key"));
            tc.insert(t, TABLE, k.clone(), v).expect("preload insert");
        }
        tc.commit(t).expect("preload commit");
    }
}

/// One committed transaction: when it ended, counted from the start of
/// its phase, and how long it took from `begin` to the return of
/// `commit`, both in ns.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// End of the transaction since the phase started.
    pub end_ns: u64,
    /// Latency.
    pub ns: u64,
}

/// What one phase of the closed loop measured.
#[derive(Default)]
pub struct Outcome {
    /// Each committed read-write transaction.
    pub write: Vec<Sample>,
    /// Each committed read-only transaction.
    pub read: Vec<Sample>,
    /// Transactions started.
    pub attempted: u64,
    /// Transactions that aborted, timed out or returned an error.
    pub failed: u64,
    /// Committed read-modify-writes (`scan-evict` counter total).
    pub rmw_commits: u64,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Share of host CPU time stolen in each whole second of the phase.
    pub window_steal: Vec<f64>,
    /// Peak RSS in MB when the phase committed its
    /// [`RSS_MARK_COMMITS`]-th transaction, if it got that far.
    pub rss_mark_mb: Option<f64>,
    /// Correctness violations seen by the clients.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Committed transactions.
    pub fn commits(&self) -> u64 {
        (self.write.len() + self.read.len()) as u64
    }

    /// Committed transactions per second.
    pub fn commits_per_s(&self) -> f64 {
        self.commits() as f64 / self.elapsed.as_secs_f64()
    }

    fn merge(&mut self, o: Outcome) {
        self.write.extend(o.write);
        self.read.extend(o.read);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.rmw_commits += o.rmw_commits;
        self.violations.extend(o.violations);
    }
}

/// Reads the process's peak RSS when the phase's
/// [`RSS_MARK_COMMITS`]-th transaction commits.
#[derive(Default)]
struct MemoryMark {
    commits: AtomicU64,
    mb: Mutex<Option<f64>>,
}

impl MemoryMark {
    fn committed(&self) {
        if self.commits.fetch_add(1, Ordering::Relaxed) + 1 == RSS_MARK_COMMITS {
            *self.mb.lock().expect("no client panicked holding the mark") = Some(peak_rss_mb());
        }
    }
}

/// Which class a committed transaction belongs to.
enum Class {
    Write,
    Read,
    Rmw,
}

/// One client's view: its TC, its inputs and, on a traced run, the
/// tallies its TC calls go into.
struct Client<'a> {
    tc: &'a Tc,
    id: usize,
    rng: Rng,
    rec: Option<&'a Recorder>,
    mark: &'a MemoryMark,
    violations: Vec<String>,
}

impl Client<'_> {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    fn read(&self, t: TxnId, k: &Key, c: ReadConsistency) -> Result<Option<Vec<u8>>, TcError> {
        timed(self.rec.map(|r| &r.tc_read), || {
            self.tc.read(t, TABLE, k.clone(), c)
        })
    }

    fn update(&self, t: TxnId, k: &Key, v: Vec<u8>) -> Result<(), TcError> {
        timed(self.rec.map(|r| &r.tc_update), || {
            self.tc.update(t, TABLE, k.clone(), v)
        })
    }

    fn commit(&self, t: TxnId) -> Result<(), TcError> {
        timed(self.rec.map(|r| &r.tc_commit), || self.tc.commit(t))
    }

    fn balance(&mut self, k: &Key, v: Option<Vec<u8>>) -> i64 {
        match v.as_deref().map(<[u8; 8]>::try_from) {
            Some(Ok(b)) => i64::from_le_bytes(b),
            _ => {
                self.violation(format!("account {k:?} read back {v:?}"));
                0
            }
        }
    }

    /// Move one unit from `from` to `to` under locking reads.
    fn transfer(&mut self, t: TxnId, from: &Key, to: &Key) -> Result<Class, TcError> {
        let a = self.read(t, from, ReadConsistency::Locking)?;
        let b = self.read(t, to, ReadConsistency::Locking)?;
        let (a, b) = (self.balance(from, a), self.balance(to, b));
        self.update(t, from, balance_bytes(a - 1))?;
        self.update(t, to, balance_bytes(b + 1))?;
        self.commit(t)?;
        Ok(Class::Write)
    }

    /// Read two accounts at a snapshot; both must exist.
    fn audit(&mut self, t: TxnId, x: &Key, y: &Key) -> Result<Class, TcError> {
        for k in [x, y] {
            let v = self.read(t, k, ReadConsistency::SNAPSHOT)?;
            self.balance(k, v);
        }
        self.commit(t)?;
        Ok(Class::Read)
    }

    /// `scan-evict` reader: snapshot point reads, then one range scan.
    fn scan_reader(&mut self, t: TxnId) -> Result<Class, TcError> {
        for _ in 0..SNAPSHOT_READS {
            let k = self.rng.below(SCAN_RECORDS);
            let v = self.read(t, &Key::from_u64(k), ReadConsistency::SNAPSHOT)?;
            if v.as_deref().and_then(|v| record_counter(k, v)).is_none() {
                self.violation(format!("snapshot read of {k} returned {v:?}"));
            }
        }
        let lo = self.rng.below(SCAN_RECORDS - SCAN_ROWS + 1);
        let hi = lo + SCAN_ROWS;
        let rows = timed(self.rec.map(|r| &r.tc_scan), || {
            self.tc
                .scan(t, TABLE, Key::from_u64(lo), Some(Key::from_u64(hi)), None)
        })?;
        let keys: Vec<Option<u64>> = rows.iter().map(|(k, _)| k.as_u64()).collect();
        let expected: Vec<Option<u64>> = (lo..hi).map(Some).collect();
        let payloads_ok = rows
            .iter()
            .all(|(k, v)| k.as_u64().and_then(|k| record_counter(k, v)).is_some());
        if keys != expected || !payloads_ok {
            self.violation(format!(
                "scan [{lo}, {hi}) returned {} rows: {keys:?}",
                rows.len()
            ));
        }
        self.commit(t)?;
        Ok(Class::Read)
    }

    /// `scan-evict` writer: increment one record's counter.
    fn rmw(&mut self, t: TxnId) -> Result<Class, TcError> {
        let k = self.rng.below(SCAN_RECORDS);
        let key = Key::from_u64(k);
        let v = self.read(t, &key, ReadConsistency::Locking)?;
        let Some(c) = v.as_deref().and_then(|v| record_counter(k, v)) else {
            self.violation(format!("rmw read of {k} returned {v:?}"));
            self.commit(t)?;
            return Ok(Class::Write);
        };
        self.update(t, &key, record_bytes(k, c + 1))?;
        self.commit(t)?;
        Ok(Class::Rmw)
    }

    /// Draw the next input and run it as one transaction in `t`.
    fn next_txn(&mut self, w: Workload, t: TxnId) -> Result<Class, TcError> {
        match w {
            Workload::OltpInline => {
                let (a, b) = self.rng.distinct_pair(OLTP_ACCOUNTS);
                let (a, b) = (account_key(a), account_key(b));
                if self.rng.below(AUDIT_ONE_IN) == 0 {
                    self.audit(t, &a, &b)
                } else {
                    self.transfer(t, &a, &b)
                }
            }
            Workload::Durable2pc => {
                let home = self.id % 2;
                let (a, b) = self.rng.distinct_pair(SHARD_ACCOUNTS);
                let to = shard_key(home, b);
                if self.rng.below(AUDIT_ONE_IN) == 0 {
                    return self.audit(t, &shard_key(home, a), &to);
                }
                let from_shard = if self.rng.below(CROSS_ONE_IN) == 0 {
                    1 - home
                } else {
                    home
                };
                self.transfer(t, &shard_key(from_shard, a), &to)
            }
            Workload::ScanEvict => {
                if self.id == 0 {
                    self.scan_reader(t)
                } else {
                    self.rmw(t)
                }
            }
        }
    }

    fn run(mut self, w: Workload, phase_start: Instant, deadline: Instant) -> Outcome {
        let mut out = Outcome::default();
        while Instant::now() < deadline {
            out.attempted += 1;
            let start = Instant::now();
            let link_before = thread_in_link_ns();
            let result = match self.tc.begin() {
                Ok(t) => {
                    let r = self.next_txn(w, t);
                    if r.is_err() {
                        // The TC may already have rolled the transaction
                        // back (deadlock victim); a second abort is moot.
                        let _ = self.tc.abort(t);
                    }
                    r
                }
                Err(e) => Err(e),
            };
            let end = Instant::now();
            let ns = (end - start).as_nanos() as u64;
            let sample = Sample {
                end_ns: (end - phase_start).as_nanos() as u64,
                ns,
            };
            match result {
                Ok(class) => {
                    self.mark.committed();
                    if let Some(r) = self.rec {
                        r.txn.add(1, ns);
                        r.txn_in_link.add(1, thread_in_link_ns() - link_before);
                    }
                    match class {
                        Class::Read => out.read.push(sample),
                        Class::Write => out.write.push(sample),
                        Class::Rmw => {
                            out.rmw_commits += 1;
                            out.write.push(sample);
                        }
                    }
                }
                Err(_) => out.failed += 1,
            }
        }
        out.violations = self.violations;
        out
    }
}

/// Run the closed loop for `secs`, with client inputs drawn from `seed`
/// (`phase` keeps the inputs of successive phases of one run apart).
pub fn run_phase(
    stack: &Stack,
    w: Workload,
    seed: u64,
    phase: u64,
    secs: f64,
    rec: Option<&Recorder>,
) -> Outcome {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut total = Outcome::default();
    let mark = MemoryMark::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let shard = if w == Workload::Durable2pc { id % 2 } else { 0 };
                let client = Client {
                    tc: &stack.shards[shard].tc,
                    id,
                    rng: Rng::new(seed, phase * CLIENTS as u64 + id as u64),
                    rec,
                    mark: &mark,
                    violations: Vec::new(),
                };
                s.spawn(move || client.run(w, start, deadline))
            })
            .collect();
        // Sample host steal once a second while the clients run.
        let mut ticks = vec![cpu_ticks()];
        for i in 1.. {
            let at = start + Duration::from_secs(i);
            if at > deadline {
                break;
            }
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            ticks.push(cpu_ticks());
        }
        total.window_steal = ticks.windows(2).map(|w| steal_frac(w[0], w[1])).collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total.elapsed = start.elapsed();
    total.rss_mark_mb = *mark.mb.lock().expect("clients joined");
    total
}

/// Run `n` `oltp-inline` transfers, one after another, on one client
/// (the exact-count self-test drives the stack with this).
pub fn run_transfers(stack: &Stack, seed: u64, n: u64, rec: Option<&Recorder>) -> Outcome {
    let mut client = Client {
        tc: &stack.shards[0].tc,
        id: 0,
        rng: Rng::new(seed, 0),
        rec,
        mark: &MemoryMark::default(),
        violations: Vec::new(),
    };
    let mut out = Outcome::default();
    for _ in 0..n {
        out.attempted += 1;
        let (a, b) = client.rng.distinct_pair(OLTP_ACCOUNTS);
        let t = client.tc.begin().expect("begin");
        match client.transfer(t, &account_key(a), &account_key(b)) {
            Ok(_) => out.write.push(Sample { end_ns: 0, ns: 0 }),
            Err(_) => {
                out.failed += 1;
                let _ = client.tc.abort(t);
            }
        }
    }
    out.violations = client.violations;
    out
}

/// Check the table's final state after the clients stopped: transfers
/// conserve the total balance across all shards, and the `scan-evict`
/// counters add up to the committed read-modify-writes.
pub fn check_final_state(stack: &Stack, w: Workload, rmw_commits: u64) -> Result<(), String> {
    let mut rows = Vec::new();
    for s in &stack.shards {
        let part =
            s.tc.scan_unlocked(TABLE, Key::empty(), None, None, ReadFlavor::Committed)
                .map_err(|e| format!("final scan failed: {e:?}"))?;
        rows.extend(part);
    }
    match w {
        Workload::OltpInline | Workload::Durable2pc => {
            let accounts = match w {
                Workload::OltpInline => OLTP_ACCOUNTS,
                _ => SHARD_ACCOUNTS * stack.shards.len() as u64,
            };
            let mut sum = 0i64;
            for (k, v) in &rows {
                let b: [u8; 8] = v
                    .as_slice()
                    .try_into()
                    .map_err(|_| format!("account {k:?} holds {} bytes", v.len()))?;
                sum += i64::from_le_bytes(b);
            }
            let want = INITIAL_BALANCE * accounts as i64;
            if rows.len() as u64 != accounts || sum != want {
                return Err(format!(
                    "{} accounts hold {sum}, expected {accounts} holding {want}",
                    rows.len()
                ));
            }
        }
        Workload::ScanEvict => {
            let mut sum = 0u64;
            for (k, v) in &rows {
                let k = k.as_u64().ok_or("non-numeric key")?;
                sum += record_counter(k, v).ok_or(format!("record {k} is malformed"))?;
            }
            if rows.len() as u64 != SCAN_RECORDS || sum != rmw_commits {
                return Err(format!(
                    "{} records with counters summing to {sum}, expected {SCAN_RECORDS} \
                     summing to {rmw_commits}",
                    rows.len()
                ));
            }
        }
    }
    Ok(())
}

/// The `oltp-inline` transfer mix on the monolithic engine (the paper's
/// baseline), with the same accounts, clients and seeded inputs. Returns
/// the median transfer latency in microseconds.
pub fn monolith_transfer_p50_us(seed: u64, secs: f64) -> f64 {
    let m = Monolith::new(MonolithConfig::default());
    m.create_table(TABLE);
    let keys: Vec<u64> = (0..OLTP_ACCOUNTS).collect();
    for chunk in keys.chunks(PRELOAD_BATCH as usize) {
        let t = m.begin();
        for k in chunk {
            m.insert(t, TABLE, account_key(*k), balance_bytes(INITIAL_BALANCE))
                .expect("monolith preload");
        }
        m.commit(t).expect("monolith preload commit");
    }
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let transfer = |m: &Arc<Monolith>, t: TxnId, a: Key, b: Key| -> Result<(), TcError> {
        let va = m.read(t, TABLE, a.clone())?.expect("monolith account");
        let vb = m.read(t, TABLE, b.clone())?.expect("monolith account");
        let va = i64::from_le_bytes(va.as_slice().try_into().expect("balance"));
        let vb = i64::from_le_bytes(vb.as_slice().try_into().expect("balance"));
        m.update(t, TABLE, a, balance_bytes(va - 1))?;
        m.update(t, TABLE, b, balance_bytes(vb + 1))?;
        m.commit(t)
    };
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let m = &m;
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 1_000 + id as u64);
                    let mut lat = Vec::new();
                    while Instant::now() < deadline {
                        let (a, b) = rng.distinct_pair(OLTP_ACCOUNTS);
                        let start = Instant::now();
                        let t = m.begin();
                        if transfer(m, t, account_key(a), account_key(b)).is_ok() {
                            lat.push(start.elapsed().as_nanos() as u64);
                        } else {
                            let _ = m.abort(t);
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("monolith client panicked"))
            .collect()
    });
    lat.sort_unstable();
    crate::metrics::quantile(&lat, 0.5) / 1e3
}
