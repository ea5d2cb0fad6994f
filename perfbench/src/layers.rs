//! A cell's trace, generated ahead of time and replayed through one system.
//!
//! Splitting `run_core` into "generate the whole trace" and "replay it"
//! lets the benchmark time trace generation and the access path apart. The
//! replay copies `run_core`'s clock model exactly, so its measured-window
//! counters must equal `run_one_checked`'s for the same cell; the benchmark
//! checks that they do before it reports any per-layer number.

use std::time::Instant;

use d2m_common::config::MachineConfig;
use d2m_common::stats::Counters;
use d2m_common::{AccessResult, ServicedBy};
use d2m_sim::metrics::counters_delta;
use d2m_sim::{AnySystem, RunConfig};
use d2m_workloads::{Access, TraceGen, WorkloadSpec};

/// Every access of one cell, split into generator batches.
pub struct Trace {
    accesses: Vec<Access>,
    /// End offset into `accesses` of each batch.
    batch_ends: Vec<usize>,
    /// Batches that belong to warmup.
    warm_batches: usize,
    /// Measured-window instructions.
    pub instructions: u64,
}

impl Trace {
    /// Generates the batches `run_core` would draw for a cell: warmup until
    /// `rc.warmup_instructions`, then measurement until `rc.instructions`.
    pub fn generate(spec: &WorkloadSpec, nodes: usize, rc: &RunConfig) -> Self {
        let mut gen = TraceGen::new(spec, nodes, rc.seed);
        let mut accesses = Vec::new();
        let mut batch_ends = Vec::new();
        let mut fill = |batch_ends: &mut Vec<usize>, target: u64| {
            let mut insts = 0;
            while insts < target {
                insts += gen.next_batch(&mut accesses);
                batch_ends.push(accesses.len());
            }
            insts
        };
        fill(&mut batch_ends, rc.warmup_instructions);
        let warm_batches = batch_ends.len();
        let instructions = fill(&mut batch_ends, rc.instructions);
        Self {
            accesses,
            batch_ends,
            warm_batches,
            instructions,
        }
    }

    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Replays the trace through `sys`, calling every access through
    /// `access`, and returns the measured window's counters and cycles.
    pub fn replay(
        &self,
        sys: &mut AnySystem,
        cfg: &MachineConfig,
        spec: &WorkloadSpec,
        mut access: impl FnMut(&mut AnySystem, &Access, u64) -> Result<AccessResult, String>,
    ) -> Result<Replayed, String> {
        let mut clocks = vec![0f64; cfg.nodes];
        let ipc = cfg.core.base_ipc;
        let l1_lat = cfg.lat.l1 as f64;
        let insts_per_fetch = spec.insts_per_fetch;
        let warm_end = self.batch_ends[..self.warm_batches]
            .last()
            .copied()
            .unwrap_or(0);
        let mut warm = None;
        for (i, a) in self.accesses.iter().enumerate() {
            if i == warm_end {
                warm = Some(snapshot(sys, &clocks));
            }
            // `run_core`'s clock model, unchanged.
            let n = a.node.index();
            let now = clocks[n] as u64;
            let r = access(sys, a, now)?;
            let is_i = a.kind.is_ifetch();
            if is_i {
                clocks[n] += insts_per_fetch / ipc;
            }
            if !r.l1_hit || r.late {
                let beyond = (r.latency as f64 - l1_lat).max(0.0);
                let blocking = if is_i {
                    cfg.core.ifetch_blocking
                } else {
                    cfg.core.data_blocking
                };
                clocks[n] += beyond * blocking;
            }
        }
        let (warm_counters, warm_cycles) = warm.unwrap_or_else(|| snapshot(sys, &clocks));
        let end_cycles = clocks.iter().cloned().fold(0f64, f64::max);
        Ok(Replayed {
            counters: counters_delta(&sys.counters(), &warm_counters),
            cycles: (end_cycles - warm_cycles).max(1.0) as u64,
        })
    }
}

fn snapshot(sys: &AnySystem, clocks: &[f64]) -> (Counters, f64) {
    (sys.counters(), clocks.iter().cloned().fold(0f64, f64::max))
}

/// What a replay produced over the measured window.
pub struct Replayed {
    pub counters: Counters,
    pub cycles: u64,
}

/// The plain access call, as `run_core` makes it.
pub fn plain(sys: &mut AnySystem, a: &Access, now: u64) -> Result<AccessResult, String> {
    sys.access(a, now).map_err(|e| e.to_string())
}

/// Per-call host times of individual `AnySystem::access` calls, in raw
/// nanoseconds (timer cost included), bucketed by [`ServicedBy`].
pub struct CallSamples {
    pub by_class: Vec<Vec<f64>>,
    seen_l1: u64,
}

/// L1 hits are the bulk of all calls; keep one in this many.
const L1_SAMPLE_EVERY: u64 = 16;

impl CallSamples {
    pub fn new() -> Self {
        Self {
            by_class: vec![Vec::new(); ServicedBy::ALL.len()],
            seen_l1: 0,
        }
    }

    /// An access call that times itself into `self`.
    pub fn timed<'a>(
        &'a mut self,
    ) -> impl FnMut(&mut AnySystem, &Access, u64) -> Result<AccessResult, String> + 'a {
        move |sys, a, now| {
            let t = Instant::now();
            let r = sys.access(a, now);
            let ns = t.elapsed().as_nanos() as f64;
            let r = r.map_err(|e| e.to_string())?;
            let class = r.serviced_by;
            if class != ServicedBy::L1 || self.seen_l1.is_multiple_of(L1_SAMPLE_EVERY) {
                self.by_class[class.index()].push(ns);
            }
            if class == ServicedBy::L1 {
                self.seen_l1 += 1;
            }
            Ok(r)
        }
    }
}

/// The median host cost of one `Instant` pair with nothing between, in
/// nanoseconds: what a per-call sample overstates by.
pub fn timer_ns() -> f64 {
    let mut v: Vec<f64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t.elapsed().as_nanos() as f64)
        })
        .collect();
    crate::report::median(&mut v)
}
