//! The experiment registry and the one report shape every experiment
//! produces.
//!
//! Each experiment is an [`Experiment`] entry in [`EXPERIMENTS`]: a
//! name plus `run(smoke) -> Report`. A [`Report`] holds rows as ordered
//! key/value maps ([`Row`]) and a list of pass/fail [`Gate`]s, so one
//! table printer ([`Report::print`]), one JSON writer
//! ([`Report::to_json`], the `BENCH_<name>.json` telemetry the
//! `report check` harness reads back) and one gate check
//! ([`Report::failed_gates`]) serve the whole suite.
//!
//! `smoke` shrinks an experiment's workload for CI; its gates are the
//! same in both modes. Experiments that are fast enough already (e1–e10)
//! ignore it.

use crate::json::Json;
use crate::{e11, e12, e13, e14, e15, e16, e17, obs, paper};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One measured row: keys in the order the experiment set them (the
/// table's column order), values as JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row(Vec<(&'static str, Json)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Builder form of [`Row::set`].
    pub fn with(mut self, key: &'static str, value: impl Into<Json>) -> Row {
        self.set(key, value);
        self
    }

    /// Set `key`, replacing its value in place or appending it.
    pub fn set(&mut self, key: &'static str, value: impl Into<Json>) {
        let value = value.into();
        match self.0.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.0.push((key, value)),
        }
    }

    /// The value under `key`, if set.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The numeric value under `key` (a boolean reads as 0/1). Panics
    /// when the key is missing or not numeric: a gate reading a row
    /// that does not carry its metric is a harness bug.
    pub fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::Num(n)) => *n,
            Some(Json::Bool(b)) => f64::from(u8::from(*b)),
            other => panic!("row has no numeric {key:?} (found {other:?})"),
        }
    }

    /// Does every `(key, value)` of `select` match this row?
    pub fn matches(&self, select: &[(&str, Json)]) -> bool {
        select
            .iter()
            .all(|(k, want)| self.get(k).is_some_and(|have| same(have, want)))
    }

    /// The keys, in order.
    fn keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(k, _)| *k)
    }

    /// The row as one JSON object, keys in order.
    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", Json::from(*k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Value equality for row selection: strings exactly, numbers within
/// 1e-9 (telemetry numbers round-trip through text).
pub fn same(have: &Json, want: &Json) -> bool {
    match (have, want) {
        (Json::Num(a), Json::Num(b)) => (a - b).abs() < 1e-9,
        (a, b) => a == b,
    }
}

/// The unique row matching `select`. Panics when none or several do.
pub fn find<'a>(rows: &'a [Row], select: &[(&str, Json)]) -> &'a Row {
    let mut hits = rows.iter().filter(|r| r.matches(select));
    match (hits.next(), hits.next()) {
        (Some(row), None) => row,
        (None, _) => panic!("no row matches {select:?}"),
        (Some(_), Some(_)) => panic!("several rows match {select:?}"),
    }
}

/// Best of `reps` runs of `f(rep)` by `key` (higher wins). Wall-clock
/// noise on a shared runner is one-sided — interference only slows a
/// run down — so the fastest repetition is the least-biased estimate of
/// a configuration's capability, and taking it on *both* sides of a
/// ratio gate keeps the comparison fair.
///
/// Correctness fields are the exception: each `worst` key takes its
/// worst value across the reps (the lowest for [`Cmp::AtLeast`], the
/// highest for [`Cmp::AtMost`]), because a lost ack or an unfinished
/// move in any rep is a bug, not noise.
pub fn best_of(
    reps: usize,
    key: &str,
    worst: &[(&'static str, Cmp)],
    f: impl FnMut(u64) -> Row,
) -> Row {
    let rows: Vec<Row> = (0..reps.max(1) as u64).map(f).collect();
    let mut best = rows
        .iter()
        .max_by(|a, b| a.num(key).total_cmp(&b.num(key)))
        .expect("at least one rep")
        .clone();
    for &(k, cmp) in worst {
        let values = rows.iter().map(|r| r.num(k));
        let w = match cmp {
            Cmp::AtLeast => values.fold(f64::INFINITY, f64::min),
            Cmp::AtMost => values.fold(f64::NEG_INFINITY, f64::max),
        };
        match best.get(k) {
            Some(Json::Bool(_)) => best.set(k, w != 0.0),
            _ => best.set(k, w),
        }
    }
    best
}

/// Which side of its threshold a gate's value must sit on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `value >= threshold`.
    AtLeast,
    /// `value <= threshold`.
    AtMost,
}

/// One pass/fail regression gate.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// What the gate checks (unique within its experiment).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// The bar.
    pub threshold: f64,
    /// Which side of the bar passes.
    pub cmp: Cmp,
}

impl Gate {
    /// Passes when `value >= threshold`.
    pub fn at_least(name: impl Into<String>, value: f64, threshold: f64) -> Gate {
        Gate {
            name: name.into(),
            value,
            threshold,
            cmp: Cmp::AtLeast,
        }
    }

    /// Passes when `value <= threshold`.
    pub fn at_most(name: impl Into<String>, value: f64, threshold: f64) -> Gate {
        Gate {
            name: name.into(),
            value,
            threshold,
            cmp: Cmp::AtMost,
        }
    }

    /// A yes/no check as a gate: value 1 when `ok`, needing at least 1.
    pub fn holds(name: impl Into<String>, ok: bool) -> Gate {
        Gate::at_least(name, if ok { 1.0 } else { 0.0 }, 1.0)
    }

    /// Did the gate hold? A NaN value never passes.
    pub fn pass(&self) -> bool {
        match self.cmp {
            Cmp::AtLeast => self.value >= self.threshold,
            Cmp::AtMost => self.value <= self.threshold,
        }
    }

    /// The comparator as text: `>=` or `<=`.
    pub fn op(&self) -> &'static str {
        match self.cmp {
            Cmp::AtLeast => ">=",
            Cmp::AtMost => "<=",
        }
    }
}

/// What one experiment run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Scalars describing the whole run — configuration constants and
    /// run-wide results — written as top-level JSON fields.
    pub params: Row,
    /// The measured rows.
    pub rows: Vec<Row>,
    /// Regression gates over the rows.
    pub gates: Vec<Gate>,
    /// Free-text lines printed after the table (the paper's claim a
    /// table bears on, a rendered span tree).
    pub notes: Vec<String>,
}

impl Report {
    /// The gates that did not hold.
    pub fn failed_gates(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(|g| !g.pass())
    }

    /// Gate names occurring more than once (must be empty: a gate is
    /// identified by its name in the telemetry and in failure lists).
    pub fn duplicate_gates(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        self.gates
            .iter()
            .map(|g| g.name.as_str())
            .filter(|name| !seen.insert(*name))
            .collect()
    }

    /// Print params, rows (one table per run of rows sharing the same
    /// keys), notes and gates.
    pub fn print(&self) {
        let params: Vec<String> = self
            .params
            .0
            .iter()
            .map(|(k, v)| format!("{k}={}", cell(v)))
            .collect();
        if !params.is_empty() {
            println!("{}", params.join(", "));
        }
        let mut start = 0;
        while start < self.rows.len() {
            let keys: Vec<&str> = self.rows[start].keys().collect();
            let len = self.rows[start..]
                .iter()
                .take_while(|r| r.keys().eq(keys.iter().copied()))
                .count();
            print_table(&keys, &self.rows[start..start + len]);
            start += len;
        }
        for n in &self.notes {
            println!("{n}");
        }
        for g in &self.gates {
            println!(
                "gate: {:<64} {:>10.3} ({} {:.2}) — {}",
                g.name,
                g.value,
                g.op(),
                g.threshold,
                if g.pass() { "OK" } else { "FAIL" }
            );
        }
    }

    /// The `BENCH_<name>.json` telemetry document.
    pub fn to_json(&self, experiment: &str, mode: &str) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"experiment\": {},", Json::from(experiment));
        let _ = writeln!(s, "  \"mode\": {},", Json::from(mode));
        for (k, v) in &self.params.0 {
            let _ = writeln!(s, "  {}: {v},", Json::from(*k));
        }
        let rows: Vec<String> = self.rows.iter().map(Row::to_json).collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                Row::new()
                    .with("name", g.name.as_str())
                    .with("value", g.value)
                    .with("threshold", g.threshold)
                    .with("cmp", g.op())
                    .with("pass", g.pass())
                    .to_json()
            })
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| Json::from(n.as_str()).to_string())
            .collect();
        for (key, items, last) in [
            ("rows", rows, false),
            ("gates", gates, false),
            ("notes", notes, true),
        ] {
            let _ = writeln!(s, "  \"{key}\": [");
            let _ = writeln!(s, "    {}", items.join(",\n    "));
            let _ = writeln!(s, "  ]{}", if last { "" } else { "," });
        }
        s.push_str("}\n");
        s
    }
}

/// A value as a table cell: strings as-is, integral numbers without
/// decimals, other numbers with precision shrinking as they grow.
fn cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) if n.fract() == 0.0 || n.abs() >= 100.0 => format!("{n:.0}"),
        Json::Num(n) if n.abs() >= 10.0 => format!("{n:.1}"),
        Json::Num(n) => format!("{n:.3}"),
        other => other.to_string(),
    }
}

fn print_table(keys: &[&str], rows: &[Row]) {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            keys.iter()
                .map(|k| r.get(k).map(cell).unwrap_or_default())
                .collect()
        })
        .collect();
    let widths: Vec<usize> = (0..keys.len())
        .map(|i| {
            cells
                .iter()
                .map(|c| c[i].chars().count())
                .chain([keys[i].len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    // Text columns align left, numeric ones right.
    let text: Vec<bool> = keys
        .iter()
        .map(|k| matches!(rows[0].get(k), Some(Json::Str(_))))
        .collect();
    let line = |fields: &[String]| {
        let padded: Vec<String> = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let pad = " ".repeat(widths[i].saturating_sub(f.chars().count()));
                if text[i] {
                    format!("{f}{pad}")
                } else {
                    format!("{pad}{f}")
                }
            })
            .collect();
        println!("{}", padded.join("  ").trim_end());
    };
    line(&keys.iter().map(|k| k.to_string()).collect::<Vec<_>>());
    for c in &cells {
        line(c);
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Short name: the CLI argument and the `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// The section header: which figure or claim it reproduces.
    pub title: &'static str,
    /// Run it; `true` asks for the shrunk CI workload.
    pub run: fn(bool) -> Report,
}

impl Experiment {
    /// The telemetry file this experiment writes.
    pub fn json_file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// Every experiment, in report order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "e1",
        title: "E1 (Figure 1): unbundled architecture — per-transaction cost by deployment",
        run: paper::e1,
    },
    Experiment {
        name: "e2",
        title: "E2 (Figure 2, §6.3): movie site W1–W4 — throughput, no 2PC anywhere",
        run: paper::e2,
    },
    Experiment {
        name: "e3",
        title: "E3 (§3.1): range locking — fetch-ahead vs static range locks",
        run: paper::e3,
    },
    Experiment {
        name: "e4",
        title: "E4 (§5.1): out-of-order execution — abLSN keeps replay exactly-once",
        run: paper::e4,
    },
    Experiment {
        name: "e5",
        title: "E5 (§5.1.2): page sync — flush outcome per algorithm",
        run: paper::e5,
    },
    Experiment {
        name: "e6",
        title: "E6 (§5.2): system transactions — splits/consolidations and log space",
        run: paper::e6,
    },
    Experiment {
        name: "e7",
        title: "E7 (§5.3): partial failures — recovery work vs checkpoint distance",
        run: paper::e7,
    },
    Experiment {
        name: "e8",
        title: "E8 (§6): multiple TCs on one DC — scaling over disjoint partitions",
        run: paper::e8,
    },
    Experiment {
        name: "e9",
        title: "E9 (§7): unbundling cost — bundled vs unbundled, colocated vs separate threads",
        run: paper::e9,
    },
    Experiment {
        name: "e10",
        title: "E10 (§4.2): resend + idempotence under message loss",
        run: paper::e10,
    },
    Experiment {
        name: "e11",
        title: "E11: commit path — group commit, adaptive gather window, reply batching",
        run: e11::run,
    },
    Experiment {
        name: "e12",
        title: "E12: replication — read-only replicas, bounded staleness, failover promotion",
        run: e12::run,
    },
    Experiment {
        name: "e13",
        title: "E13: open-loop arrivals — bounded admission, latency SLOs, adaptive gather window",
        run: e13::run,
    },
    Experiment {
        name: "e14",
        title: "E14: sharded TC — scale-out, cross-TC 2PC, shared-device group commit",
        run: e14::run,
    },
    Experiment {
        name: "e15",
        title: "E15: online rebalance — elastic range moves under open-loop load",
        run: e15::run,
    },
    Experiment {
        name: "e16",
        title: "E16: MVCC reads — snapshot vs locking under contention, version-chain GC",
        run: e16::run,
    },
    Experiment {
        name: "e17",
        title: "E17: shard autopilot — policy-driven split under a skewed ramp",
        run: e17::run,
    },
    Experiment {
        name: "obs",
        title: "OBS: commit-path breakdown — per-stage histograms and span tree",
        run: obs::run,
    },
];

/// The registered experiment called `name`.
pub fn lookup(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report {
            params: Row::new().with("workers", 16usize),
            rows: vec![
                Row::new()
                    .with("label", "a")
                    .with("threads", 32usize)
                    .with("tput", 1.5),
                Row::new()
                    .with("label", "b")
                    .with("threads", 32usize)
                    .with("tput", f64::INFINITY),
                Row::new().with("label", "c").with("ok", true),
            ],
            gates: vec![
                Gate::at_least("speedup", 2.5, 2.0),
                Gate::at_most("error", 0.3, 0.2),
                Gate::holds("flag", true),
            ],
            notes: vec!["a \"quoted\"\nnote".into()],
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let j = Json::parse(&report().to_json("t", "smoke")).expect("valid JSON");
        assert_eq!(j.get("experiment").and_then(Json::as_str), Some("t"));
        assert_eq!(j.get("mode").and_then(Json::as_str), Some("smoke"));
        assert_eq!(j.get("workers").and_then(Json::as_f64), Some(16.0));
        let rows = j.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("tput").and_then(Json::as_f64), Some(1.5));
        // A non-finite measurement is written as null, not as bad JSON.
        assert_eq!(rows[1].get("tput"), Some(&Json::Null));
        assert_eq!(rows[2].get("ok").and_then(Json::as_bool), Some(true));
        let gates = j.get("gates").and_then(Json::as_arr).unwrap();
        assert_eq!(gates[1].get("cmp").and_then(Json::as_str), Some("<="));
        assert_eq!(gates[1].get("pass").and_then(Json::as_bool), Some(false));
        let notes = j.get("notes").and_then(Json::as_arr).unwrap();
        assert_eq!(notes[0].as_str(), Some("a \"quoted\"\nnote"));
    }

    #[test]
    fn gates_compare_on_their_own_side() {
        let r = report();
        let failed: Vec<&str> = r.failed_gates().map(|g| g.name.as_str()).collect();
        assert_eq!(failed, ["error"]);
        assert!(!Gate::at_least("nan", f64::NAN, 1.0).pass());
        assert!(Gate::at_most("eq", 3.0, 3.0).pass());
    }

    #[test]
    fn find_and_best_of_work_on_rows() {
        let r = report();
        let a = find(
            &r.rows,
            &[("label", "a".into()), ("threads", 32usize.into())],
        );
        assert_eq!(a.num("tput"), 1.5);
        let run = |rep: u64| {
            Row::new()
                .with("tput", [3.0, 9.0, 5.0][rep as usize])
                .with("lost", [0u64, 2, 0][rep as usize])
                .with("settled", rep != 2)
        };
        let best = best_of(
            3,
            "tput",
            &[("lost", Cmp::AtMost), ("settled", Cmp::AtLeast)],
            run,
        );
        assert_eq!(best.num("tput"), 9.0);
        assert_eq!(best.num("lost"), 2.0, "worst rep's lost count");
        assert_eq!(
            best.get("settled"),
            Some(&Json::Bool(false)),
            "all reps must settle"
        );
    }

    #[test]
    fn duplicate_gate_names_are_reported() {
        let mut r = report();
        assert!(r.duplicate_gates().is_empty());
        r.gates.push(Gate::holds("flag", false));
        assert_eq!(r.duplicate_gates(), ["flag"]);
    }

    /// Every baselined telemetry file must be one a registered
    /// experiment writes — a renamed experiment fails here instead of
    /// silently turning into "skipped" in `report check`.
    #[test]
    fn baselines_name_registered_experiments() {
        let text = include_str!("../../../ci/bench_baselines.json");
        let doc = Json::parse(text).expect("baseline file parses");
        let files: Vec<String> = EXPERIMENTS.iter().map(Experiment::json_file).collect();
        for exp in doc
            .get("experiments")
            .and_then(Json::as_arr)
            .expect("experiments")
        {
            let file = exp.get("file").and_then(Json::as_str).expect("file");
            assert!(
                files.iter().any(|f| f == file),
                "{file} is not written by any registered experiment"
            );
        }
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            EXPERIMENTS.len(),
            "experiment names are unique"
        );
    }
}
