//! The traced run: per-layer host times from the benchmark's own spans.
//!
//! Every cell of the workload's sweep goes through these passes, each inside
//! its own span under the cell's span:
//!
//! * `runner` — `run_one_checked`, the untraced per-cell path sweeps use;
//! * `gen` — `TraceGen::new` + `next_batch`, pre-generating the cell's trace;
//! * `build` — `AnySystem::build`;
//! * `access` — the trace replayed through `AnySystem::access` with
//!   `run_core`'s clock model; its measured-window counters must equal the
//!   `runner` pass's, or the run fails;
//! * `access.sampled` (Base-2L and D2M-NS-R) — the same replay with every
//!   call timed on its own and bucketed by the level that serviced it;
//! * `observe` — `run_one_observed`;
//! * `oracle` (workloads that run the coherence oracle) — `run_one_checked`
//!   with the oracle off.
//!
//! Then the sweep runs once through the workload's entry point, once through
//! `run_sweep_with_jobs`, and (if the entry point is not already
//! checkpointed) once through `run_sweep_checkpointed`. All must serialize
//! to the same sweep JSON, and every cell's counters must equal the per-cell
//! passes'. Rounds repeat for `--seconds`; each metric is the median over
//! rounds. A metric of a system the workload does not run, or of an oracle
//! it does not run, reads 0.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use d2m_common::fnv1a_64;
use d2m_common::json::Json;
use d2m_common::stats::Counters;
use d2m_sim::{
    run_one_checked, run_one_observed, run_sweep_checkpointed, run_sweep_with_jobs, AnySystem,
    RunMetrics, SweepSpec, SystemKind,
};

use crate::layers::{self, CallSamples, Trace};
use crate::report::{layer, median, quantile, slug, Report, SAMPLED, SIM_PER_KINST};
use crate::spans::Tracer;
use crate::workloads::{Entry, Workload};
use crate::{nproc, run_entry, sweep_problems, Args};

/// Per-system sums over one round's cells.
#[derive(Default)]
struct SystemSums {
    access_s: f64,
    accesses: u64,
    build_s: Vec<f64>,
    kinst: f64,
    events: [f64; SIM_PER_KINST.len()],
    mem_service_frac: Vec<f64>,
}

impl SystemSums {
    fn add_sim_events(&mut self, m: &RunMetrics) {
        let c = &m.counters;
        self.kinst += m.instructions as f64 / 1000.0;
        let events = [
            c.get("l1i.misses") + c.get("l1d.misses"),
            m.md2_or_l2tag_accesses,
            m.dir_or_md3_accesses,
            c.get("noc.msg_total"),
            m.invalidations,
        ];
        for (sum, e) in self.events.iter_mut().zip(events) {
            *sum += e as f64;
        }
        self.mem_service_frac.push(m.mem_service_frac);
    }
}

/// Whole-round sums of host seconds.
#[derive(Default)]
struct RoundSums {
    runner_s: f64,
    gen_s: f64,
    build_s: f64,
    access_s: f64,
    accesses: u64,
    observe_s: f64,
    oracle_on_s: f64,
    oracle_off_s: f64,
    /// Sequential time of the cells the workload's own sweep runs, through
    /// the same per-cell call its entry point makes.
    sweep_cells_s: f64,
    /// Untimed and per-call-timed replays of the sampled systems.
    sampled_plain_s: f64,
    sampled_timed_s: f64,
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let spec = w.spec(w.systems, args.seed)?;
    let ctx = Context {
        w,
        seed: args.seed,
        jobs: nproc(),
        journal: out_dir.join(format!("{}.traced.journal", w.name)),
        timer_ns: layers::timer_ns(),
    };

    let mut tracer = Tracer::new();
    let mut rounds: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut problems = Vec::new();
    let mut failed = 0;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed() < args.seconds {
        let (metrics, failed_cells) = ctx.round(&spec, &mut tracer, &mut problems)?;
        rounds.push(metrics);
        failed += failed_cells;
    }
    // Best effort: a leftover journal is only disk space.
    let _ = std::fs::remove_file(&ctx.journal);
    for p in &problems {
        eprintln!("d2m-perfbench: {p}");
    }

    let mut values = BTreeMap::new();
    for key in rounds[0].keys() {
        let mut v: Vec<f64> = rounds.iter().map(|r| r[key]).collect();
        values.insert(key.clone(), median(&mut v));
    }
    let spans = Json::Obj(vec![
        ("workload".to_string(), Json::Str(w.name.to_string())),
        ("seed".to_string(), Json::U64(args.seed)),
        ("jobs".to_string(), Json::U64(ctx.jobs as u64)),
        ("spans".to_string(), tracer.to_json()),
    ]);
    let path = out_dir.join(format!("spans-{}-seed{}.json", w.name, args.seed));
    std::fs::write(&path, spans.to_string_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "d2m-perfbench: {} traced in {} rounds; spans in {}",
        w.name,
        rounds.len(),
        path.display()
    );
    Ok(Report {
        correct: problems.is_empty(),
        attempted: (rounds.len() * spec.num_cells()) as u64,
        failed,
        values,
    })
}

struct Context<'a> {
    w: &'a Workload,
    seed: u64,
    jobs: usize,
    journal: std::path::PathBuf,
    timer_ns: f64,
}

impl Context<'_> {
    /// One traced round over every cell of `sweep`, then the sweeps.
    /// Returns the round's metrics and how many sweep cells failed.
    fn round(
        &self,
        sweep: &SweepSpec,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Result<(BTreeMap<String, f64>, u64), String> {
        let root = tracer.open("workload", None, None);
        let cfg = &sweep.configs[0].config;
        let mut oracle_off = cfg.clone();
        oracle_off.check_coherence = false;

        let mut sums = RoundSums::default();
        let mut systems: BTreeMap<usize, SystemSums> = BTreeMap::new();
        let mut samples: Vec<CallSamples> = SAMPLED.iter().map(|_| CallSamples::new()).collect();
        let mut counters: BTreeMap<(String, usize), Counters> = BTreeMap::new();

        for i in 0..sweep.num_cells() {
            let (_, wi, si) = sweep.cell_coords(i);
            let (kind, spec, rc) = (
                sweep.systems[si],
                &sweep.workloads[wi],
                sweep.cell_run_config(i),
            );
            let id = Some(i as u64);
            let cell = tracer.open("cell", Some(root), id);
            let what = |e: String| format!("cell {i} ({}/{}): {e}", kind.name(), spec.name);

            let (m, runner_s) =
                tracer.time("runner", cell, id, || run_one_checked(kind, cfg, spec, &rc));
            let m = m.map_err(|e| what(e.to_string()))?;
            let (trace, gen_s) =
                tracer.time("gen", cell, id, || Trace::generate(spec, cfg.nodes, &rc));
            let (mut sys, build_s) =
                tracer.time("build", cell, id, || AnySystem::build(kind, cfg, rc.seed));
            let (replayed, access_s) = tracer.time("access", cell, id, || {
                trace.replay(&mut sys, cfg, spec, layers::plain)
            });
            let replayed = replayed.map_err(what)?;
            if replayed.counters != m.counters
                || replayed.cycles != m.cycles
                || trace.instructions != m.instructions
            {
                problems.push(what(
                    "traced replay's measured window differs from run_one_checked".to_string(),
                ));
            }
            if let Some(s) = SAMPLED.iter().position(|(k, _)| *k == kind) {
                let mut sys = AnySystem::build(kind, cfg, rc.seed);
                let calls = &mut samples[s];
                let (timed, timed_s) = tracer.time("access.sampled", cell, id, || {
                    trace.replay(&mut sys, cfg, spec, calls.timed())
                });
                timed.map_err(what)?;
                sums.sampled_plain_s += access_s;
                sums.sampled_timed_s += timed_s;
            }
            let accesses = trace.len() as u64;
            drop(trace);
            let (observed, observe_s) = tracer.time("observe", cell, id, || {
                run_one_observed(kind, cfg, spec, &rc)
            });
            let observed = observed.map_err(|e| what(e.to_string()))?;
            if observed.metrics.counters != m.counters {
                problems.push(what("observing the run changed its counters".to_string()));
            }
            if cfg.check_coherence {
                let (off, off_s) = tracer.time("oracle", cell, id, || {
                    run_one_checked(kind, &oracle_off, spec, &rc)
                });
                if off.map_err(|e| what(e.to_string()))?.counters != m.counters {
                    problems.push(what(
                        "turning the oracle off changed the counters".to_string(),
                    ));
                }
                sums.oracle_on_s += runner_s;
                sums.oracle_off_s += off_s;
            }
            tracer.close(cell);

            sums.runner_s += runner_s;
            sums.gen_s += gen_s;
            sums.build_s += build_s;
            sums.access_s += access_s;
            sums.accesses += accesses;
            sums.observe_s += observe_s;
            sums.sweep_cells_s += match self.w.entry {
                Entry::Checkpointed => runner_s,
                Entry::Observed => observe_s,
            };
            let s = systems.entry(kind_index(kind)).or_default();
            s.access_s += access_s;
            s.accesses += accesses;
            s.build_s.push(build_s);
            s.add_sim_events(&m);
            counters.insert((spec.name.clone(), kind_index(kind)), m.counters);
        }

        // The workload's own sweep, through its entry point and the others.
        let entry_span = tracer.open("sweep", Some(root), None);
        let entry = run_entry(self.w, sweep, self.jobs, &self.journal)?;
        tracer.close(entry_span);
        problems.extend(sweep_problems(self.w, &entry, self.seed));
        let (plain, plain_s) = tracer.time("sweep.plain", root, None, || {
            run_sweep_with_jobs(sweep, self.jobs)
        });
        let (checkpointed_s, journal_bytes) = match entry.journal_bytes {
            Some(bytes) => (entry.wall, bytes),
            None => {
                let (r, secs) = tracer.time("sweep.checkpointed", root, None, || {
                    run_sweep_checkpointed(sweep, self.jobs, &self.journal, false)
                });
                let r = r.map_err(|e| e.to_string())?;
                if r.to_json_string() != plain.to_json_string() {
                    problems.push("checkpointed and plain sweeps differ".to_string());
                }
                let bytes = std::fs::metadata(&self.journal)
                    .map_err(|e| format!("{}: {e}", self.journal.display()))?
                    .len();
                (secs, bytes)
            }
        };
        if fnv1a_64(plain.to_json_string().as_bytes()) != entry.digests.0 {
            problems.push("the plain sweep's JSON differs from the entry point's".to_string());
        }
        for c in &entry.result.cells {
            let key = (c.workload.clone(), kind_index(c.system));
            if counters.get(&key) != Some(&c.metrics.counters) {
                problems.push(format!(
                    "sweep cell {} ({}/{}) differs from its traced replay",
                    c.index,
                    c.system.name(),
                    c.workload
                ));
            }
        }
        tracer.close(root);

        let mut v = BTreeMap::new();
        let mut put = |k: String, x: f64| {
            v.insert(k, x);
        };
        put(
            "workloads.gen_ns_per_access".into(),
            sums.gen_s / sums.accesses as f64 * 1e9,
        );
        put("workloads.gen_share".into(), sums.gen_s / sums.runner_s);
        for kind in SystemKind::ALL {
            let name = slug(kind);
            // A system the workload does not run has all-zero sums.
            let s = systems.entry(kind_index(kind)).or_default();
            put(
                format!("{}.access_ns.{name}", layer(kind)),
                ratio(s.access_s * 1e9, s.accesses as f64),
            );
            for (event, count) in SIM_PER_KINST.iter().zip(s.events) {
                put(
                    format!("sim.{event}_per_kinst.{name}"),
                    ratio(count, s.kinst),
                );
            }
            let fracs = &s.mem_service_frac;
            put(
                format!("sim.mem_service_frac.{name}"),
                ratio(fracs.iter().sum(), fracs.len() as f64),
            );
        }
        for ((kind, classes), calls) in SAMPLED.iter().zip(&mut samples) {
            for class in *classes {
                let base = format!(
                    "{}.access_ns.{}.{}",
                    layer(*kind),
                    slug(*kind),
                    class.name()
                );
                let raw = &mut calls.by_class[class.index()];
                let n = raw.len();
                // A class no call reached has no latency to report: 0.
                let net = |x: f64| if n == 0 { 0.0 } else { x - self.timer_ns };
                put(format!("{base}.samples"), n as f64);
                put(format!("{base}.p99"), net(quantile(raw, 0.99)));
                put(base, net(median(raw)));
            }
        }
        let build_s: f64 = sweep
            .systems
            .iter()
            .map(|k| {
                let s = systems.get_mut(&kind_index(*k)).expect("every system ran");
                median(&mut s.build_s)
            })
            .sum();
        put("systems.build_s".into(), build_s);
        put(
            "runner.self_share".into(),
            (sums.runner_s - sums.gen_s - sums.build_s - sums.access_s) / sums.runner_s,
        );
        put(
            "runner.observe_overhead_frac".into(),
            sums.observe_s / sums.runner_s - 1.0,
        );
        let oracle = if cfg.check_coherence {
            sums.oracle_on_s / sums.oracle_off_s - 1.0
        } else {
            0.0
        };
        put("oracle.overhead_frac".into(), oracle);
        let jobs_used = self.jobs.min(sweep.num_cells()) as f64;
        put(
            "sweep.parallel_efficiency".into(),
            sums.sweep_cells_s / (jobs_used * entry.wall),
        );
        put("checkpoint.journal_s".into(), checkpointed_s - plain_s);
        put("checkpoint.journal_bytes".into(), journal_bytes as f64);
        put(
            "trace.overhead_frac".into(),
            sums.sampled_timed_s / sums.sampled_plain_s - 1.0,
        );
        put("trace.timer_ns".into(), self.timer_ns);
        Ok((v, entry.result.failures().len() as u64))
    }
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A system's position in `SystemKind::ALL` (`SystemKind` is not `Ord`).
fn kind_index(kind: SystemKind) -> usize {
    SystemKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every system is in SystemKind::ALL")
}
