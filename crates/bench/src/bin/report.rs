//! Experiment report: runs entries of the experiment registry
//! (`unbundled_bench::experiment::EXPERIMENTS` — E1–E17 and the
//! commit-path breakdown `obs`), prints each one's table and gates,
//! and optionally writes each one's `BENCH_<name>.json` telemetry.
//!
//! ```sh
//! cargo run --release -p unbundled_bench --bin report                  # every experiment
//! cargo run --release -p unbundled_bench --bin report -- e9            # one experiment
//! cargo run --release -p unbundled_bench --bin report -- e11 --smoke --json BENCH_e11.json
//! cargo run --release -p unbundled_bench --bin report -- all --smoke --json-dir .
//! ```
//!
//! `--smoke` shrinks the slower experiments' workloads for CI; their
//! gates are the same in both modes. Telemetry is written before the
//! gates are judged, so a failing run still leaves its numbers behind.
//! `all` runs each experiment in a fresh child process and fails (exit
//! 1) at the end, listing every gate that failed in every experiment.
//!
//! After the telemetry files are written, the bench-regression harness
//! compares them against the checked-in baselines (per-metric
//! tolerance bands; exits nonzero on regression and prints a
//! copy-pasteable refreshed baseline block):
//!
//! ```sh
//! cargo run --release -p unbundled_bench --bin report -- check --against ci/bench_baselines.json [--dir DIR]
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use unbundled_bench::baseline::{Direction, Verdict};
use unbundled_bench::experiment::{lookup, Experiment, EXPERIMENTS};

const USAGE: &str = "usage: report [<name>|all] [--smoke] [--json PATH | --json-dir DIR]\n       \
                     report check --against BASELINES [--dir DIR]";

fn main() {
    let mut target: Option<String> = None;
    let mut smoke = false;
    let mut json: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut against: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => json = Some(value().into()),
            "--json-dir" => json_dir = Some(value().into()),
            "--against" => against = Some(value()),
            "--dir" => dir = Some(value()),
            flag if flag.starts_with("--") => usage(&format!("unknown option {flag}")),
            _ if target.is_some() => usage(&format!("unexpected argument {arg}")),
            _ => target = Some(arg),
        }
    }
    let target = target.unwrap_or_else(|| "all".to_string());
    if target == "check" {
        let baselines = against.unwrap_or_else(|| usage("check needs --against <baselines.json>"));
        check(&baselines, dir.as_deref().unwrap_or("."));
        return;
    }
    let failures = match target.as_str() {
        "all" if json.is_some() => usage("--json names one file; use --json-dir with all"),
        "all" => EXPERIMENTS
            .iter()
            .flat_map(|exp| run_isolated(exp, smoke, json_dir.as_deref()))
            .collect(),
        name => {
            let exp = lookup(name).unwrap_or_else(|| usage(&format!("no experiment {name:?}")));
            let path = json.or_else(|| json_dir.map(|d| d.join(exp.json_file())));
            let failures = run(exp, smoke, path);
            for f in &failures {
                eprintln!("{FAILED}{f}");
            }
            failures
        }
    };
    if !failures.is_empty() {
        eprintln!("\n{} gate(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nreport complete.");
}

/// Prefix of the stderr line a single-experiment run prints per failed
/// gate, which `report all` collects from its children.
const FAILED: &str = "gate failed: ";

/// Run one experiment in this process: print its table, write its
/// telemetry to `json` (before judging the gates, so a failing run
/// still leaves its numbers behind), and return its gate failures.
fn run(exp: &Experiment, smoke: bool, json: Option<PathBuf>) -> Vec<String> {
    header(exp.title);
    let report = (exp.run)(smoke);
    report.print();
    if let Some(path) = json {
        let mode = if smoke { "smoke" } else { "full" };
        std::fs::write(&path, report.to_json(exp.name, mode))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("{} telemetry written to {}", exp.name, path.display());
    }
    let mut failures: Vec<String> = report
        .duplicate_gates()
        .iter()
        .map(|name| format!("{}: gate name {name:?} is not unique", exp.name))
        .collect();
    failures.extend(report.failed_gates().map(|g| {
        format!(
            "{}: {} — measured {:.3}, need {} {:.3}",
            exp.name,
            g.name,
            g.value,
            g.op(),
            g.threshold
        )
    }));
    failures
}

/// Run one experiment of `report all` in a child process of this binary,
/// so every experiment starts from a fresh process — as when run alone —
/// whatever the ones before it left behind (threads, memory, a panic).
/// Returns the child's gate failures, or its exit status when it failed
/// without reporting any.
fn run_isolated(exp: &Experiment, smoke: bool, json_dir: Option<&Path>) -> Vec<String> {
    let mut child = Command::new(std::env::current_exe().expect("path of this binary"));
    child.arg(exp.name);
    if smoke {
        child.arg("--smoke");
    }
    if let Some(dir) = json_dir {
        child.arg("--json-dir").arg(dir);
    }
    let out = child
        .stdout(Stdio::inherit())
        .stderr(Stdio::piped())
        .output()
        .unwrap_or_else(|e| panic!("starting {}: {e}", exp.name));
    let stderr = String::from_utf8_lossy(&out.stderr);
    eprint!("{stderr}");
    let mut failures: Vec<String> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix(FAILED))
        .map(str::to_string)
        .collect();
    if failures.is_empty() && !out.status.success() {
        failures.push(format!(
            "{}: {} (see its output above)",
            exp.name, out.status
        ));
    }
    failures
}

fn usage(why: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("{why}\n{USAGE}\nexperiments: {}", names.join(" "));
    std::process::exit(2)
}

fn header(s: &str) {
    println!("\n==================================================================");
    println!("{s}");
    println!("==================================================================");
}

/// The bench-regression harness: compare freshly written telemetry
/// against the checked-in baselines and fail (exit 1) on regression.
fn check(baselines_path: &str, dir: &str) {
    header("CHECK: bench telemetry vs checked-in baselines");
    let baselines = std::fs::read_to_string(baselines_path)
        .unwrap_or_else(|e| panic!("reading {baselines_path}: {e}"));
    let report = unbundled_bench::baseline::check(&baselines, |file| {
        let path = std::path::Path::new(dir).join(file);
        std::fs::read_to_string(&path).map_err(|e| e.to_string())
    })
    .unwrap_or_else(|e| panic!("bench baseline check is misconfigured: {e}"));
    for o in &report.outcomes {
        let dir_mark = match o.direction {
            Direction::Higher => "↑",
            Direction::Lower => "↓",
        };
        println!(
            "{:<11} {:<14} {:<58} baseline {:>12.3} {} measured {:>12.3} (±{}%)",
            match o.verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSION",
            },
            o.file
                .trim_start_matches("BENCH_")
                .trim_end_matches(".json"),
            o.what,
            o.baseline,
            dir_mark,
            o.measured,
            o.tolerance_pct,
        );
    }
    for s in &report.skipped {
        println!("skipped     {s}");
    }
    let improved = report
        .outcomes
        .iter()
        .filter(|o| o.verdict == Verdict::Improved)
        .count();
    if improved > 0 && report.regressions() == 0 {
        println!(
            "\n{improved} metric(s) improved beyond their band — consider refreshing {baselines_path}:"
        );
        println!("{}", report.refreshed);
    }
    if report.regressions() > 0 {
        eprintln!(
            "\n{} metric(s) regressed beyond their tolerance band.",
            report.regressions()
        );
        eprintln!("If the change is intentional, replace the contents of {baselines_path} with:");
        eprintln!("{}", report.refreshed);
        std::process::exit(1);
    }
    println!(
        "\nbench baselines hold ({} metrics).",
        report.outcomes.len()
    );
}
