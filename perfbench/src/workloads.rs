//! The benchmark's three workloads and the sweep specs they drive.
//!
//! Each workload is a closed loop: one process runs a sweep on a pool of
//! `nproc` workers, and each worker pulls its next cell when the previous
//! one finishes. Why each workload exists, and which layer it is meant to
//! stress, is recorded in `why` and in README.md.

use d2m_common::config::MachineConfig;
use d2m_sim::{AnySystem, RunConfig, SweepSpec, SystemKind};
use d2m_workloads::{catalog, TraceGen};

/// Seed the recorded digests belong to; `--seed` defaults to it.
pub const DEFAULT_SEED: u64 = 42;
/// Measured instructions per cell.
pub const INSTRUCTIONS: u64 = 400_000;
/// Warmup instructions per cell, excluded from simulated metrics but
/// included in host throughput. A warmup much shorter than this leaves
/// sweep-resident's caches cold, so its misses go to memory about as often
/// as sweep-thrash's and the two workloads stop stressing different layers.
pub const WARMUP: u64 = 800_000;

/// Which sweep entry point a workload measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entry {
    /// `run_sweep_checkpointed` to a fresh journal.
    Checkpointed,
    /// `run_sweep_observed_with_jobs` (probe, traffic matrix, oracle on).
    Observed,
}

/// One named benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub entry: Entry,
    pub systems: &'static [SystemKind],
    pub catalog: &'static [&'static str],
    /// Turns on the value-coherence oracle (`MachineConfig::check_coherence`).
    pub check_coherence: bool,
    /// `fnv1a_64` of the sweep JSON at [`DEFAULT_SEED`].
    pub sweep_digest: u64,
    /// `fnv1a_64` of `ObservedSweep::histograms_json` at [`DEFAULT_SEED`]
    /// (observed workloads only).
    pub histograms_digest: Option<u64>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sweep-resident",
        why: "L1-resident traces: generation and the L1 lookup dominate, MD2/MD3 and the protocol barely run",
        entry: Entry::Checkpointed,
        systems: &SystemKind::ALL,
        catalog: &["swaptions", "blackscholes", "wikipedia", "mix2"],
        check_coherence: false,
        sweep_digest: 0xcac5_553b_cf4f_c6f4,
        histograms_digest: None,
    },
    Workload {
        name: "sweep-thrash",
        why: "miss-heavy traces: region eviction, MD2/MD3, NoC accounting and uneven cell costs dominate",
        entry: Entry::Checkpointed,
        systems: &SystemKind::ALL,
        catalog: &["canneal", "tpc-c", "cnn", "mix1", "lu_ncb"],
        check_coherence: false,
        sweep_digest: 0x7a40_b7e3_af00_daf9,
        histograms_digest: None,
    },
    Workload {
        name: "observed-sharing",
        why: "sharing patterns with the probe, traffic matrix and coherence oracle on, exercising invalidations",
        entry: Entry::Observed,
        systems: &[SystemKind::Base2L, SystemKind::D2mNsR],
        catalog: &["dedup", "fluidanimate", "raytrace", "ocean_cp"],
        check_coherence: true,
        sweep_digest: 0x3770_814c_350c_c839,
        histograms_digest: Some(0xec73_a7fd_99c5_0f79),
    },
];

/// The workload named `name`, if any.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The machine configuration every cell of this workload runs on.
    pub fn config(&self) -> MachineConfig {
        MachineConfig {
            check_coherence: self.check_coherence,
            ..MachineConfig::default()
        }
    }

    /// The sweep over `systems` × this workload's catalog entries, with
    /// every cell seed derived from `seed` as `SweepSpec.master_seed`.
    pub fn spec(&self, systems: &[SystemKind], seed: u64) -> Result<SweepSpec, String> {
        let specs = self
            .catalog
            .iter()
            .map(|n| catalog::by_name(n).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let rc = RunConfig {
            instructions: INSTRUCTIONS,
            warmup_instructions: WARMUP,
            seed,
        };
        Ok(SweepSpec::single(
            self.name,
            &self.config(),
            systems,
            &specs,
            &rc,
        ))
    }

    /// One round of the set-up a sweep of this workload needs: catalog
    /// lookup, `SweepSpec` construction, one `AnySystem::build` per system
    /// and one `TraceGen::new` per trace.
    pub fn setup(&self, seed: u64) -> Result<SweepSpec, String> {
        let spec = self.spec(self.systems, seed)?;
        let cfg = &spec.configs[0].config;
        for (si, &kind) in spec.systems.iter().enumerate() {
            std::hint::black_box(AnySystem::build(kind, cfg, spec.cell_seed(si)));
        }
        for (wi, w) in spec.workloads.iter().enumerate() {
            let seed = spec.cell_seed(wi * spec.systems.len());
            std::hint::black_box(TraceGen::new(w, cfg.nodes, seed));
        }
        Ok(spec)
    }
}
