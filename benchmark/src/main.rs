//! `lrbench` — the one gated benchmark of this repository.
//!
//! ```sh
//! # what BENCHMARK.json runs: one workload, one pass, result as the last line
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload update-warm --seed 7 --seconds 12 --trace 0
//! # for a human: every workload, untraced then traced, every metric by name
//! cargo run --release --manifest-path benchmark/Cargo.toml
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric is for.

mod api;
mod client;
mod crash;
mod gen;
mod metrics;
mod oltp;
mod probes;
mod scenario;
mod stats;
mod trace;

use metrics::{MetricDef, Metrics, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// VLDB 2011 opened on August 29.
const DEFAULT_SEED: u64 = 20_110_829;

#[derive(Clone)]
pub struct Args {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Where `trace-<workload>.jsonl` goes.
    pub out: PathBuf,
    workload: Option<String>,
    /// `Some(false)`: the untraced pass only; `Some(true)`: the traced
    /// pass only; `None`: both, untraced first.
    trace: Option<bool>,
    repeat: Option<usize>,
}

/// What one pass over one workload measured and checked.
#[derive(Default)]
pub struct Report {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Transactions and recoveries attempted, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check and the first few failed operations. Empty on a
    /// correct run.
    pub errors: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Take over what a crash section counted and measured.
    pub fn absorb_crash(&mut self, c: crash::CrashOutcome) {
        self.note(format!(
            "crash section: {} recoveries in {} rounds of fork + recover per method, {} failed \
             (state checked against the committed rows once per method, and for Log1/SQL1 on 2 workers)",
            c.attempted, c.rounds, c.failed
        ));
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.errors.extend(c.errors);
        self.end_to_end.merge(c.end_to_end);
        self.per_layer.merge(c.per_layer);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

const USAGE: &str = "\
lrbench [--workload NAME] [--seed N] [--seconds N | --smoke] [--trace 0|1] [--out DIR] [--repeat N]

  --workload NAME  run one workload (default: all six, in BENCHMARK.json order)
  --seed N         seed of every generated input (default 20110829)
  --seconds N      length of the measured window (default: run_seconds of BENCHMARK.json)
  --smoke          2-second windows: for a quick look, never for recorded numbers
  --trace 0|1      0: untraced pass only (end-to-end metrics);
                   1: traced pass only (per-layer metrics);  default: both, untraced first
  --out DIR        where trace-<workload>.jsonl goes (default: benchmark/out)
  --repeat N       untraced pass N times with seeds seed..seed+N-1; prints each end-to-end
                   metric's min / median / max and spreads and writes benchmark/REPEATABILITY.md
  --benchmark-json print the text of BENCHMARK.json and exit";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        workload: None,
        trace: None,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|d| d.name == w) {
                    let names: Vec<_> = WORKLOADS.iter().map(|d| d.name).collect();
                    return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--smoke" => args.seconds = 2.0,
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs to show a spread".into());
                }
                args.repeat = Some(n);
            }
            "--benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

fn run_pass(workload: &str, traced: bool, args: &Args) -> Result<Report, String> {
    let report = if workload == scenario::NAME {
        if traced {
            scenario::run_traced(args)
        } else {
            scenario::run_untraced(args)
        }
    } else {
        let spec = oltp::spec(workload).expect("a workload of the table");
        if traced {
            oltp::run_traced(&spec, args)
        } else {
            oltp::run_untraced(&spec, args)
        }
    };
    report.map_err(|e| format!("{workload}: {e}"))
}

/// Print a pass: what was counted, every metric by name with its unit,
/// every failed check, and the contract's result line last.
fn print_pass(workload: &str, traced: bool, r: &Report) -> bool {
    let (defs, values): (&[MetricDef], _) =
        if traced { (&PER_LAYER, &r.per_layer) } else { (&END_TO_END, &r.end_to_end) };
    println!(
        "== {workload}: {} pass ==",
        if traced { "traced (per-layer metrics)" } else { "untraced (end-to-end metrics)" }
    );
    for n in &r.notes {
        println!("  {n}");
    }
    println!(
        "  failed share: {} failed / {} attempted (transactions and recoveries)",
        r.failed, r.attempted
    );
    for d in defs {
        match values.get(d.name) {
            Some(v) => println!("  {:<40} {v:>16.4} {}", d.name, d.unit),
            None => {
                println!("  {:<40} {:>16} {}   (layer idle on this workload)", d.name, 0, d.unit)
            }
        }
    }
    for e in &r.errors {
        println!("  FAILED: {e}");
    }
    match metrics::result_line(defs, values, r.correct(), r.attempted.max(1), r.failed) {
        Ok(line) => {
            println!("{line}");
            r.correct()
        }
        Err(e) => {
            println!("  FAILED: {e}");
            false
        }
    }
}

fn repeat(n: usize, workloads: &[&str], args: &Args) -> Result<bool, String> {
    use std::fmt::Write;
    let mut ok = true;
    let mut md = String::new();
    writeln!(
        md,
        "# Repeatability of the end-to-end metrics\n\n\
         Written by `lrbench --repeat {n} --seconds {}` (seeds {}..{}), {} CPUs. For every workload and\n\
         end-to-end metric: minimum, median and maximum over the {n} untraced runs, the range\n\
         (max − min) / median, and the interquartile spread (Q3 − Q1) / median with the quartiles of\n\
         Python's `statistics.quantiles(values, n=4)` — the spread the acceptance rule compares with\n\
         the metric's bound in `BENCHMARK.json`. A bound is three times the widest spread of\n\
         its metric below, rounded up and capped at the 0.25 the gate allows.\n",
        args.seconds,
        args.seed,
        args.seed + n as u64 - 1,
        std::thread::available_parallelism().map_or(0, usize::from),
    )
    .unwrap();
    let mut widest = vec![0.0f64; END_TO_END.len()];
    for w in workloads {
        let mut runs: Vec<Metrics> = Vec::new();
        for i in 0..n {
            let a = Args { seed: args.seed + i as u64, ..args.clone() };
            let r = run_pass(w, false, &a)?;
            ok &= print_pass(w, false, &r);
            runs.push(r.end_to_end);
        }
        writeln!(md, "## {w}\n\n| metric | unit | min | median | max | range | IQR spread | bound |\n|---|---|---|---|---|---|---|---|").unwrap();
        for (k, d) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().filter_map(|m| m.get(d.name)).collect();
            if values.len() < 2 {
                continue;
            }
            let [_, med, _] = stats::quartiles(&values);
            let (lo, hi) =
                values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let spread = stats::iqr_share(&values);
            widest[k] = widest[k].max(spread);
            writeln!(
                md,
                "| `{}` | {} | {lo:.4} | {med:.4} | {hi:.4} | {:.4} | {spread:.4} | {} |",
                d.name,
                d.unit,
                (hi - lo) / med,
                d.bound.expect("end-to-end bound"),
            )
            .unwrap();
        }
        md.push('\n');
    }
    writeln!(md, "## Widest interquartile spread per metric\n\n| metric | widest spread | bound | spread / bound |\n|---|---|---|---|").unwrap();
    for (d, w) in END_TO_END.iter().zip(&widest) {
        let bound = d.bound.expect("end-to-end bound");
        writeln!(md, "| `{}` | {w:.4} | {bound} | {:.2} |", d.name, w / bound).unwrap();
    }
    print!("{md}");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/REPEATABILITY.md");
    std::fs::write(path, md).map_err(|e| format!("{path}: {e}"))?;
    println!("written to {path}");
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|d| d.name).collect(),
    };
    if let Some(n) = args.repeat {
        return repeat(n, &workloads, args);
    }
    let mut ok = true;
    for w in workloads {
        if args.trace != Some(true) {
            let r = run_pass(w, false, args)?;
            ok &= print_pass(w, false, &r);
        }
        if args.trace != Some(false) {
            let r = run_pass(w, true, args)?;
            ok &= print_pass(w, true, &r);
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lrbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("lrbench: a correctness check failed (see FAILED lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lrbench: {e}");
            ExitCode::FAILURE
        }
    }
}
