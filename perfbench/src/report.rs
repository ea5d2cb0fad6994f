//! Metric names, units and the result line the benchmark prints.

use std::collections::BTreeMap;

use d2m_common::json::Json;
use d2m_common::ServicedBy;
use d2m_sim::SystemKind;

/// One reported metric. Which direction is better, and by how much it may
/// worsen, is declared in `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
    }
}

/// The systems whose individual access calls are sampled, with the
/// servicing levels reported for each.
pub const SAMPLED: [(SystemKind, &[ServicedBy]); 2] = [
    (
        SystemKind::D2mNsR,
        &[
            ServicedBy::L1,
            ServicedBy::LocalNs,
            ServicedBy::RemoteNs,
            ServicedBy::Llc,
            ServicedBy::RemoteNode,
            ServicedBy::Mem,
        ],
    ),
    (
        SystemKind::Base2L,
        &[
            ServicedBy::L1,
            ServicedBy::Llc,
            ServicedBy::RemoteNode,
            ServicedBy::Mem,
        ],
    ),
];

/// Metric-name form of a system (`Base-2L` → `base-2l`).
pub fn slug(kind: SystemKind) -> String {
    kind.name().to_ascii_lowercase()
}

/// The layer a system's access path belongs to.
pub fn layer(kind: SystemKind) -> &'static str {
    if kind.is_d2m() {
        "core"
    } else {
        "baseline"
    }
}

/// Simulated per-kilo-instruction event counts reported per system.
pub const SIM_PER_KINST: [&str; 5] = [
    "l1_miss",
    "md2_access",
    "md3_or_dir_access",
    "noc_msg",
    "invalidation",
];

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("sim_minst_per_s", "Minst/s"),
        metric("setup_s", "s"),
        metric("peak_rss_mb", "MB"),
        metric("cell_success_frac", "frac"),
        metric("sim.speedup.d2m-ns-r", "ratio"),
        metric("sim.traffic_ratio.d2m-ns-r", "ratio"),
        metric("sim.edp_ratio.d2m-ns-r", "ratio"),
    ]
}

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub fn per_layer() -> Vec<Metric> {
    let mut m = vec![
        metric("workloads.gen_ns_per_access", "ns"),
        metric("workloads.gen_share", "frac"),
    ];
    for kind in SystemKind::ALL {
        m.push(metric(
            format!("{}.access_ns.{}", layer(kind), slug(kind)),
            "ns",
        ));
    }
    for (kind, classes) in SAMPLED {
        for class in classes {
            let base = format!("{}.access_ns.{}.{}", layer(kind), slug(kind), class.name());
            m.push(metric(format!("{base}.p99"), "ns"));
            m.push(metric(format!("{base}.samples"), "count"));
            m.push(metric(base, "ns"));
        }
    }
    m.extend([
        metric("systems.build_s", "s"),
        metric("runner.self_share", "frac"),
        metric("runner.observe_overhead_frac", "frac"),
        metric("oracle.overhead_frac", "frac"),
        metric("sweep.parallel_efficiency", "frac"),
        metric("checkpoint.journal_s", "s"),
        metric("checkpoint.journal_bytes", "bytes"),
    ]);
    for kind in SystemKind::ALL {
        for event in SIM_PER_KINST {
            m.push(metric(
                format!("sim.{event}_per_kinst.{}", slug(kind)),
                "1/kinst",
            ));
        }
        m.push(metric(
            format!("sim.mem_service_frac.{}", slug(kind)),
            "frac",
        ));
    }
    m.push(metric("trace.overhead_frac", "frac"));
    m.push(metric("trace.timer_ns", "ns"));
    m
}

/// Why a metric name is not acceptable, if it is not: it must start with a
/// letter or digit and use at most 64 of `[A-Za-z0-9_.-]`.
pub fn name_error(name: &str) -> Option<String> {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    let chars_ok = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    if !first_ok || !chars_ok || name.len() > 64 {
        Some(format!("invalid metric name {name:?}"))
    } else {
        None
    }
}

/// The median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by nearest rank (sorted in place); 0 for an
/// empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The outcome of one benchmark run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// The result line: every metric of `metrics`, in order, with its
    /// unit. A metric with an invalid name, missing from `values` or not
    /// finite is an error.
    pub fn render(&self, metrics: &[Metric]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(metrics.len());
        for m in metrics {
            if let Some(e) = name_error(&m.name) {
                return Err(e);
            }
            let v = *self
                .values
                .get(&m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", m.name));
            }
            fields.push((
                m.name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::F64(v)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::U64(self.attempted)),
            ("failed".to_string(), Json::U64(self.failed)),
            ("metrics".to_string(), Json::Obj(fields)),
        ])
        .to_string_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid(metrics: &[Metric], limit: usize) {
        assert!(
            !metrics.is_empty() && metrics.len() <= limit,
            "{}",
            metrics.len()
        );
        let mut seen = std::collections::BTreeSet::new();
        for m in metrics {
            assert_eq!(name_error(&m.name), None);
            assert!(seen.insert(&m.name), "duplicate metric {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
        }
    }

    #[test]
    fn end_to_end_names_are_valid() {
        assert_valid(&end_to_end(), 16);
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn per_layer_names_are_valid() {
        assert_valid(&per_layer(), 128);
    }

    #[test]
    fn name_validation_rejects_bad_names() {
        assert!(name_error("core.access_ns.d2m-ns-r.mem").is_none());
        assert!(name_error("").is_some());
        assert!(name_error(".leading-dot").is_some());
        assert!(name_error("has space").is_some());
        assert!(name_error("slash/inside").is_some());
        assert!(name_error(&"x".repeat(65)).is_some());
    }

    /// BENCHMARK.json must declare exactly the metrics this code emits.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let declared =
            |key: &str| -> &[Json] { json.get(key).and_then(Json::as_array).expect("metric list") };
        let str_of = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
        let names_units = |list: &[Json]| -> Vec<[String; 2]> {
            list.iter()
                .map(|m| [str_of(m, "name"), str_of(m, "unit")])
                .collect()
        };
        let ours = |metrics: Vec<Metric>| -> Vec<[String; 2]> {
            metrics
                .into_iter()
                .map(|m| [m.name, m.unit.to_string()])
                .collect()
        };
        assert_eq!(names_units(declared("end_to_end")), ours(end_to_end()));
        assert_eq!(names_units(declared("per_layer")), ours(per_layer()));
        for m in declared("end_to_end").iter().chain(declared("per_layer")) {
            let better = str_of(m, "better");
            assert!(better == "higher" || better == "lower", "{better}");
        }
        // Every bound is at most 0.25, and set-up time has the largest.
        let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
        let setup = declared("end_to_end")
            .iter()
            .find(|m| str_of(m, "name") == "setup_s")
            .expect("setup_s is declared");
        assert_eq!(str_of(setup, "better"), "lower");
        for m in declared("end_to_end") {
            assert!(bound(m) > 0.0 && bound(m) <= bound(setup) && bound(setup) <= 0.25);
        }
        let workloads: Vec<[String; 2]> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| ["name", "why"].map(|k| w.get(k).and_then(Json::as_str).expect(k).to_string()))
            .collect();
        let ours: Vec<[String; 2]> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| [w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn render_requires_every_metric() {
        let report = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            values: BTreeMap::from([("setup_s".to_string(), 0.25)]),
        };
        let line = report.render(&[metric("setup_s", "s")]).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        assert!(report.render(&end_to_end()).is_err());
    }
}
