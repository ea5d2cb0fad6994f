//! End-to-end and per-layer benchmark of the D2M simulator's sweep path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-thrash --seed 42 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` runs the workload's sweep repeatedly for `--seconds` and
//! reports the end-to-end metrics; `--trace 1` runs the per-cell layer
//! passes (see `traced.rs`) and reports the per-layer metrics. Either way
//! the last stdout line is one JSON object; the run exits nonzero when a
//! correctness check fails. See README.md for the workloads and metrics.

mod layers;
mod reference;
mod report;
mod spans;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use d2m_common::fnv1a_64;
use d2m_common::stats::gmean;
use d2m_sim::{
    run_sweep_checkpointed, run_sweep_observed_with_jobs, SweepResult, SweepSpec, SystemKind,
};

use report::{median, Metric, Report};
use workloads::{Entry, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: d2m-perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]";

/// Set-up rounds per run; `setup_s` is their median, each round rescaled to
/// nominal host speed (see reference.rs).
const SETUP_ROUNDS: usize = 25;
/// Fewest sweeps an untraced run measures, however short `--seconds` is.
const MIN_SWEEPS: usize = 3;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (known: {})", names.join(", "))
                })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("d2m-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("d2m-perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let (result, metrics) = if args.trace {
        (traced::run(&args, &out_dir), report::per_layer())
    } else {
        (untraced(&args, &out_dir), report::end_to_end())
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("d2m-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&report, &metrics);
    match report.render(&metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("d2m-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("d2m-perfbench: correctness check failed (see above)");
        ExitCode::FAILURE
    }
}

/// One human-readable line per metric, labelled host or simulated time.
fn print_table(report: &Report, metrics: &[Metric]) {
    for m in metrics {
        if let Some(v) = report.values.get(&m.name) {
            let clock = if m.name.starts_with("sim.") {
                "simulated"
            } else {
                "host"
            };
            println!("{:<44} {:>16.6} {:<8} [{clock}]", m.name, v, m.unit);
        }
    }
}

/// Worker threads for every sweep: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One call of a workload's sweep entry point.
pub struct SweepRun {
    pub result: SweepResult,
    /// Host seconds of the sweep call.
    pub wall: f64,
    /// `fnv1a_64` of the sweep JSON and, for observed sweeps, of the
    /// histograms JSON.
    pub digests: (u64, Option<u64>),
    /// Size of the checkpoint journal the call wrote, if it wrote one.
    pub journal_bytes: Option<u64>,
}

/// Runs `w`'s sweep entry point once on `jobs` workers; a checkpointed
/// sweep journals to a fresh file at `journal`.
pub fn run_entry(
    w: &Workload,
    spec: &SweepSpec,
    jobs: usize,
    journal: &Path,
) -> Result<SweepRun, String> {
    let started = Instant::now();
    match w.entry {
        Entry::Checkpointed => {
            let result =
                run_sweep_checkpointed(spec, jobs, journal, false).map_err(|e| e.to_string())?;
            let wall = started.elapsed().as_secs_f64();
            let journal_bytes = std::fs::metadata(journal)
                .map_err(|e| format!("{}: {e}", journal.display()))?
                .len();
            Ok(SweepRun {
                digests: (fnv1a_64(result.to_json_string().as_bytes()), None),
                result,
                wall,
                journal_bytes: Some(journal_bytes),
            })
        }
        Entry::Observed => {
            let observed = run_sweep_observed_with_jobs(spec, jobs);
            let wall = started.elapsed().as_secs_f64();
            let histograms = observed.histograms_json().to_string_pretty();
            Ok(SweepRun {
                digests: (
                    fnv1a_64(observed.result.to_json_string().as_bytes()),
                    Some(fnv1a_64(histograms.as_bytes())),
                ),
                result: observed.result,
                wall,
                journal_bytes: None,
            })
        }
    }
}

/// The correctness problems of one sweep run: failed cells and, at the
/// default seed, digests that differ from the recorded ones.
pub fn sweep_problems(w: &Workload, run: &SweepRun, seed: u64) -> Vec<String> {
    let mut problems: Vec<String> = run
        .result
        .failures()
        .iter()
        .map(|c| {
            format!(
                "cell {} failed: {}",
                c.index,
                c.error.as_deref().unwrap_or("")
            )
        })
        .collect();
    if seed == DEFAULT_SEED {
        let expected = (w.sweep_digest, w.histograms_digest);
        if run.digests != expected {
            problems.push(format!(
                "digests {} differ from the recorded {} at seed {seed}",
                hex(run.digests),
                hex(expected)
            ));
        }
    }
    problems
}

fn hex((sweep, histograms): (u64, Option<u64>)) -> String {
    match histograms {
        Some(h) => format!("sweep={sweep:#018x} histograms={h:#018x}"),
        None => format!("sweep={sweep:#018x}"),
    }
}

/// The end-to-end run: set-up rounds, then the workload's sweep repeated
/// for `--seconds`, with nothing traced.
fn untraced(args: &Args, out_dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut setup = Vec::with_capacity(SETUP_ROUNDS);
    let mut spec = None;
    for _ in 0..SETUP_ROUNDS {
        let reference_s = reference::setup_s();
        let started = Instant::now();
        spec = Some(w.setup(args.seed)?);
        let secs = started.elapsed().as_secs_f64();
        setup.push(secs * reference::SETUP_NOMINAL_S / reference_s);
    }
    let spec = spec.expect("at least one set-up round");

    let jobs = nproc();
    let journal = out_dir.join(format!("{}.journal", w.name));
    // The first sweep faults in the allocator's and the systems' memory and
    // runs slower than the rest; it is checked but not timed.
    let first = run_entry(w, &spec, jobs, &journal)?;
    let mut problems = sweep_problems(w, &first, args.seed);
    let mut attempted = first.result.cells.len() as u64;
    let mut failed = first.result.failures().len() as u64;
    let (mut throughput, mut reference_s, mut peak_rss) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while throughput.len() < MIN_SWEEPS || started.elapsed() < args.seconds {
        reference_s.push(reference::sweep_s(jobs));
        reset_peak_rss()?;
        let run = run_entry(w, &spec, jobs, &journal)?;
        peak_rss.push(peak_rss_mb()?);
        attempted += run.result.cells.len() as u64;
        failed += run.result.failures().len() as u64;
        let insts: u64 = run
            .result
            .cells
            .iter()
            .map(|c| spec.warmup_instructions + c.metrics.instructions)
            .sum();
        throughput.push(insts as f64 / run.wall / 1e6);
        if run.digests != first.digests {
            problems.push(format!(
                "sweep {} of the same spec gave {} after {}",
                throughput.len() + 1,
                hex(run.digests),
                hex(first.digests)
            ));
        }
    }
    // Best effort: a leftover journal is only disk space.
    let _ = std::fs::remove_file(&journal);
    let (raw, reference_s) = (median(&mut throughput), median(&mut reference_s));
    eprintln!(
        "d2m-perfbench: {} on {jobs} workers, {} sweeps of {} cells; \
         {raw:.3} Minst/s before rescaling, reference kernel {reference_s:.4} s",
        w.name,
        throughput.len(),
        spec.num_cells()
    );
    for p in &problems {
        eprintln!("d2m-perfbench: {p}");
    }

    let mut values = BTreeMap::new();
    // Rescaled to nominal host speed (see reference.rs).
    values.insert(
        "sim_minst_per_s".to_string(),
        raw * reference_s / reference::SWEEP_NOMINAL_S,
    );
    values.insert("setup_s".to_string(), median(&mut setup));
    values.insert("peak_rss_mb".to_string(), median(&mut peak_rss));
    values.insert(
        "cell_success_frac".to_string(),
        (attempted - failed) as f64 / attempted as f64,
    );
    values.extend(paired_ratios(&first.result, &spec));
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        values,
    })
}

/// Geometric means over the workload's catalog entries of D2M-NS-R's
/// speedup, traffic and EDP relative to Base-2L (simulated).
fn paired_ratios(result: &SweepResult, spec: &SweepSpec) -> Vec<(String, f64)> {
    let (mut speedup, mut traffic, mut edp) = (Vec::new(), Vec::new(), Vec::new());
    for wl in &spec.workloads {
        let cell = |kind| result.get("default", kind, &wl.name).map(|c| &c.metrics);
        if let (Some(base), Some(d2m)) = (cell(SystemKind::Base2L), cell(SystemKind::D2mNsR)) {
            speedup.push(d2m.speedup_vs(base));
            traffic.push(d2m.traffic_vs(base));
            edp.push(d2m.edp_vs(base));
        }
    }
    vec![
        ("sim.speedup.d2m-ns-r".to_string(), gmean(&speedup)),
        ("sim.traffic_ratio.d2m-ns-r".to_string(), gmean(&traffic)),
        ("sim.edp_ratio.d2m-ns-r".to_string(), gmean(&edp)),
    ]
}

/// Resets the process's peak resident set (`VmHWM`) to its current size, so
/// that each sweep's peak is read on its own. Which allocations of the two
/// workers overlap varies from run to run; one sweep's peak can differ from
/// the next by 10%, and the median over sweeps does not.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = args(&[
            "--workload",
            "sweep-thrash",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.name, "sweep-thrash");
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (7, Duration::from_secs(3), true)
        );
        let d = args(&["--workload", "sweep-resident"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sweep-thrash", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sweep-thrash", "--seed"]).is_err());
        assert!(args(&["--workload", "sweep-thrash", "--bogus", "1"]).is_err());
    }
}
