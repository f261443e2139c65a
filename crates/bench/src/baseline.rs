//! The CI bench-regression harness: `report check --against
//! ci/bench_baselines.json`.
//!
//! The per-experiment gates compare against *constants* baked into the
//! harness — a 30% throughput regression that stays above a 2× gate
//! ships silently, because CI has no memory. This
//! module gives it one: a checked-in baseline file records the
//! expected value of selected telemetry metrics with a per-metric
//! tolerance band, `report check` compares the freshly written
//! `BENCH_*.json` files against it after the gates ran, and a
//! regression fails CI with a copy-pasteable refreshed baseline block
//! (so an *intentional* change is a one-file commit, reviewed like any
//! other diff).
//!
//! Baseline file shape:
//!
//! ```json
//! {
//!   "mode": "smoke",
//!   "experiments": [
//!     {
//!       "file": "BENCH_e11.json",
//!       "metrics": [
//!         {"select": {"label": "inline group adaptive", "threads": 32},
//!          "metric": "commits_per_sec",
//!          "baseline": 18000.0,
//!          "tolerance_pct": 30.0,
//!          "direction": "higher"}
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! `select` keys must match exactly one row of the telemetry's `rows`
//! array; `direction` is `"higher"` (regression when the fresh value
//! falls more than `tolerance_pct` below baseline) or `"lower"`
//! (regression when it rises more than `tolerance_pct` above — used
//! for forces/commit, latency percentiles and must-stay-zero
//! counters). Mode mismatches (e.g. full-mode nightly telemetry vs a
//! smoke baseline) skip the file rather than comparing apples to
//! oranges.

use crate::experiment::same;
use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric comparison.
pub struct MetricOutcome {
    /// Telemetry file the metric came from.
    pub file: String,
    /// Human-readable metric identity (select + metric name).
    pub what: String,
    /// Baselined value.
    pub baseline: f64,
    /// Freshly measured value.
    pub measured: f64,
    /// Allowed relative drift, percent.
    pub tolerance_pct: f64,
    /// `higher` or `lower`.
    pub direction: Direction,
    /// The verdict.
    pub verdict: Verdict,
}

/// Which way "better" points for a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Bigger is better (throughput).
    Higher,
    /// Smaller is better (latency, forces/commit, violation counts).
    Lower,
}

/// Outcome of one metric comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within the tolerance band.
    Ok,
    /// Moved in the good direction beyond the band (worth refreshing
    /// the baseline, but never a failure).
    Improved,
    /// Moved in the bad direction beyond the band — fails the check.
    Regressed,
}

/// The whole check's outcome.
pub struct CheckReport {
    /// Every comparison, in baseline-file order.
    pub outcomes: Vec<MetricOutcome>,
    /// Telemetry files skipped with the reason (missing file, mode
    /// mismatch).
    pub skipped: Vec<String>,
    /// A refreshed baseline document with every measured value filled
    /// in (print on regression for copy-paste).
    pub refreshed: String,
}

impl CheckReport {
    /// Number of regressions (the CI failure condition).
    pub fn regressions(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.verdict == Verdict::Regressed)
            .count()
    }
}

fn req_str<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing string field {key:?}"))
}

fn req_f64(j: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric field {key:?}"))
}

/// Does a telemetry row match every `select` key?
fn row_matches(row: &Json, select: &BTreeMap<String, Json>) -> bool {
    select
        .iter()
        .all(|(k, want)| row.get(k).is_some_and(|have| same(have, want)))
}

/// Run the check. `load` maps a telemetry file name to its contents
/// (`Err` = file absent), keeping the logic unit-testable without a
/// filesystem.
pub fn check(
    baselines_text: &str,
    load: impl Fn(&str) -> Result<String, String>,
) -> Result<CheckReport, String> {
    let doc = Json::parse(baselines_text).map_err(|e| format!("baseline file: {e}"))?;
    let base_mode = req_str(&doc, "mode", "baseline file")?.to_string();
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("baseline file: missing \"experiments\" array")?;
    let mut outcomes = Vec::new();
    let mut skipped = Vec::new();
    // (file, metric index) → measured value, for the refreshed block.
    let mut measured_by_pos: BTreeMap<(String, usize), f64> = BTreeMap::new();

    for exp in experiments {
        let file = req_str(exp, "file", "experiment entry")?.to_string();
        let metrics = exp
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{file}: missing \"metrics\" array"))?;
        let telemetry = match load(&file) {
            Ok(text) => Json::parse(&text).map_err(|e| format!("{file}: {e}"))?,
            Err(why) => {
                skipped.push(format!("{file}: not checked ({why})"));
                continue;
            }
        };
        let mode = telemetry
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        if mode != base_mode {
            skipped.push(format!(
                "{file}: telemetry mode {mode:?} does not match baseline mode {base_mode:?}"
            ));
            continue;
        }
        let rows = telemetry
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{file}: missing \"rows\" array"))?;
        for (mi, m) in metrics.iter().enumerate() {
            let ctx = format!("{file} metric #{mi}");
            let metric = req_str(m, "metric", &ctx)?;
            let baseline = req_f64(m, "baseline", &ctx)?;
            let tolerance_pct = req_f64(m, "tolerance_pct", &ctx)?;
            let direction = match req_str(m, "direction", &ctx)? {
                "higher" => Direction::Higher,
                "lower" => Direction::Lower,
                other => return Err(format!("{ctx}: bad direction {other:?}")),
            };
            let select = match m.get("select") {
                Some(Json::Obj(o)) => o.clone(),
                _ => return Err(format!("{ctx}: missing \"select\" object")),
            };
            let matching: Vec<&Json> = rows.iter().filter(|r| row_matches(r, &select)).collect();
            let row = match matching.as_slice() {
                [one] => *one,
                [] => return Err(format!("{ctx}: select matches no telemetry row")),
                many => return Err(format!("{ctx}: select is ambiguous ({} rows)", many.len())),
            };
            // A `null` metric is a measurement that came out non-finite
            // (an infinite rate over a zero elapsed time, a NaN ratio):
            // a broken run, not a broken baseline file.
            let measured = match row.get(metric) {
                Some(Json::Null) => f64::NAN,
                _ => req_f64(row, metric, &ctx)?,
            };
            if measured.is_finite() {
                measured_by_pos.insert((file.clone(), mi), measured);
            }
            let band = baseline.abs() * tolerance_pct / 100.0;
            let verdict = match direction {
                _ if measured.is_nan() => Verdict::Regressed,
                Direction::Higher => {
                    if measured < baseline - band {
                        Verdict::Regressed
                    } else if measured > baseline + band {
                        Verdict::Improved
                    } else {
                        Verdict::Ok
                    }
                }
                Direction::Lower => {
                    if measured > baseline + band {
                        Verdict::Regressed
                    } else if measured < baseline - band {
                        Verdict::Improved
                    } else {
                        Verdict::Ok
                    }
                }
            };
            let sel_desc = select
                .iter()
                .map(|(k, v)| match v {
                    Json::Str(s) => format!("{k}={s}"),
                    Json::Num(n) => format!("{k}={n}"),
                    other => format!("{k}={other:?}"),
                })
                .collect::<Vec<_>>()
                .join(", ");
            outcomes.push(MetricOutcome {
                file: file.clone(),
                what: format!("{metric} [{sel_desc}]"),
                baseline,
                measured,
                tolerance_pct,
                direction,
                verdict,
            });
        }
    }

    let refreshed = render_refreshed(&doc, &measured_by_pos)?;
    Ok(CheckReport {
        outcomes,
        skipped,
        refreshed,
    })
}

/// Re-render the baseline document with measured values substituted —
/// the copy-pasteable block CI prints when a regression is real.
fn render_refreshed(
    doc: &Json,
    measured: &BTreeMap<(String, usize), f64>,
) -> Result<String, String> {
    let mode = req_str(doc, "mode", "baseline file")?;
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("baseline file: missing \"experiments\" array")?;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"experiments\": [");
    for (ei, exp) in experiments.iter().enumerate() {
        let file = req_str(exp, "file", "experiment entry")?;
        let metrics = exp.get("metrics").and_then(Json::as_arr).unwrap_or(&[]);
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"file\": \"{file}\",");
        let _ = writeln!(s, "      \"metrics\": [");
        for (mi, m) in metrics.iter().enumerate() {
            let ctx = format!("{file} metric #{mi}");
            let metric = req_str(m, "metric", &ctx)?;
            let old = req_f64(m, "baseline", &ctx)?;
            let value = measured
                .get(&(file.to_string(), mi))
                .copied()
                .unwrap_or(old);
            let tolerance = req_f64(m, "tolerance_pct", &ctx)?;
            let direction = req_str(m, "direction", &ctx)?;
            let select = match m.get("select") {
                Some(Json::Obj(o)) => o
                    .iter()
                    .map(|(k, v)| match v {
                        Json::Str(st) => format!("\"{k}\": \"{st}\""),
                        Json::Num(n) => format!("\"{k}\": {n}"),
                        other => format!("\"{k}\": {other:?}"),
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
                _ => String::new(),
            };
            let _ = writeln!(
                s,
                "        {{\"select\": {{{select}}}, \"metric\": \"{metric}\", \
                 \"baseline\": {value:.3}, \"tolerance_pct\": {tolerance}, \
                 \"direction\": \"{direction}\"}}{}",
                if mi + 1 == metrics.len() { "" } else { "," }
            );
        }
        let _ = writeln!(s, "      ]");
        let _ = writeln!(
            s,
            "    }}{}",
            if ei + 1 == experiments.len() { "" } else { "," }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINES: &str = r#"{
      "mode": "smoke",
      "experiments": [
        {
          "file": "BENCH_t.json",
          "metrics": [
            {"select": {"label": "a", "threads": 32}, "metric": "tput",
             "baseline": 1000.0, "tolerance_pct": 20.0, "direction": "higher"},
            {"select": {"label": "a", "threads": 32}, "metric": "lat",
             "baseline": 50.0, "tolerance_pct": 10.0, "direction": "lower"},
            {"select": {"label": "b"}, "metric": "violations",
             "baseline": 0.0, "tolerance_pct": 0.0, "direction": "lower"}
          ]
        }
      ]
    }"#;

    fn telemetry(tput: f64, lat: f64, violations: f64) -> String {
        format!(
            r#"{{"mode": "smoke", "rows": [
                 {{"label": "a", "threads": 32, "tput": {tput}, "lat": {lat}}},
                 {{"label": "b", "violations": {violations}}}
               ]}}"#
        )
    }

    fn run(tput: f64, lat: f64, violations: f64) -> CheckReport {
        check(BASELINES, |f| {
            assert_eq!(f, "BENCH_t.json");
            Ok(telemetry(tput, lat, violations))
        })
        .expect("check runs")
    }

    #[test]
    fn within_band_passes() {
        let r = run(950.0, 52.0, 0.0);
        assert_eq!(r.regressions(), 0);
        assert!(r.outcomes.iter().all(|o| o.verdict == Verdict::Ok));
    }

    #[test]
    fn throughput_drop_beyond_band_regresses() {
        let r = run(700.0, 50.0, 0.0);
        assert_eq!(r.regressions(), 1);
        let bad = &r.outcomes[0];
        assert_eq!(bad.verdict, Verdict::Regressed);
        assert!(bad.what.contains("tput"));
        // The refreshed block carries the measured value.
        assert!(r.refreshed.contains("\"baseline\": 700.000"));
        assert!(
            Json::parse(&r.refreshed).is_ok(),
            "refreshed block is valid JSON"
        );
    }

    #[test]
    fn non_finite_measurement_regresses() {
        // The telemetry writer spells an infinite or NaN value `null`.
        let text = telemetry(1000.0, 50.0, 0.0).replace("\"tput\": 1000", "\"tput\": null");
        let r =
            check(BASELINES, |_| Ok(text.clone())).expect("a null metric is no misconfiguration");
        assert_eq!(r.regressions(), 1);
        assert_eq!(r.outcomes[0].verdict, Verdict::Regressed);
        assert!(r.outcomes[0].measured.is_nan());
        // The refreshed block keeps the old baseline and stays valid JSON.
        assert!(r.refreshed.contains("\"baseline\": 1000.000"));
        assert!(Json::parse(&r.refreshed).is_ok());
    }

    #[test]
    fn latency_rise_and_nonzero_violation_regress() {
        let r = run(1000.0, 60.0, 1.0);
        assert_eq!(r.regressions(), 2);
        assert!(r.outcomes[1].verdict == Verdict::Regressed);
        assert!(r.outcomes[2].verdict == Verdict::Regressed);
    }

    #[test]
    fn improvements_never_fail() {
        let r = run(2000.0, 10.0, 0.0);
        assert_eq!(r.regressions(), 0);
        assert_eq!(r.outcomes[0].verdict, Verdict::Improved);
        assert_eq!(r.outcomes[1].verdict, Verdict::Improved);
    }

    #[test]
    fn mode_mismatch_skips_instead_of_comparing() {
        let r = check(BASELINES, |_| {
            Ok(telemetry(1.0, 1.0, 99.0).replace("smoke", "full"))
        })
        .unwrap();
        assert_eq!(r.regressions(), 0);
        assert_eq!(r.outcomes.len(), 0);
        assert_eq!(r.skipped.len(), 1);
    }

    #[test]
    fn missing_file_skips() {
        let r = check(BASELINES, |_| Err("no such file".into())).unwrap();
        assert_eq!(r.outcomes.len(), 0);
        assert_eq!(r.skipped.len(), 1);
    }

    #[test]
    fn ambiguous_or_unmatched_select_is_an_error() {
        let dup = r#"{"mode": "smoke", "rows": [
            {"label": "a", "threads": 32, "tput": 1, "lat": 1},
            {"label": "a", "threads": 32, "tput": 2, "lat": 2},
            {"label": "b", "violations": 0}]}"#;
        let err = check(BASELINES, |_| Ok(dup.to_string())).err().unwrap();
        assert!(err.contains("ambiguous"), "{err}");
        let none = r#"{"mode": "smoke", "rows": []}"#;
        let err = check(BASELINES, |_| Ok(none.to_string())).err().unwrap();
        assert!(err.contains("matches no"), "{err}");
    }
}
