//! The names this benchmark answers to: workloads, end-to-end metrics
//! and per-layer metrics. `BENCHMARK.json` at the repo root lists the
//! same names in the same order; a unit test holds the two together.

use serde::Value;

use crate::json::{obj, text, texts};

/// How the driver starts one run; it appends `--workload`, `--seed`,
/// `--seconds` and `--trace`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// The directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];
/// How long one run measures.
pub const RUN_SECONDS: u64 = 10;

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric: name, unit, which direction is better, and (end-to-end
/// only) the share of the parent's median it may worsen by.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
    /// An exact count or a simulated-clock sum over the fixed leading ops
    /// of a run: two runs at one seed must print the same value
    /// (`agree.sh` checks it).
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// A per-layer metric that repeats bit for bit at one seed.
const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        exact: true,
        ..layer(name, unit, better)
    }
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "cold-cell",
        why: "One full Table-3 cell per op (rmat, 2D-GP layout, FillComplete, 100 SpMVs at p=256): the only path where generator and partitioner do most of the work and the executor little.",
    },
    WorkloadDef {
        name: "hot-2dgp",
        why: "One SpMV per op on a resident 2D-GP plan at p=64: few large messages, local CSR dominates, so partitioner and FillComplete changes must show only in setup_s and sim_time_s.",
    },
    WorkloadDef {
        name: "hot-1d-manyranks",
        why: "The same SpMV call on 1D-Random at p=4096: ~4 rows per rank, messages grow with p, so pack/unpack bookkeeping and ledger billing dominate and arithmetic is ~10%.",
    },
    WorkloadDef {
        name: "eigen-ks",
        why: "One Krylov-Schur solve per op (10 largest pairs of the normalized Laplacian to 1e-3, one fixed graph, seed-derived start vectors): time to solution, split between applies and orthogonalisation.",
    },
    WorkloadDef {
        name: "spgemm-aat",
        why: "One expand/fold SpGEMM plus one Sparse SUMMA of C=A*At per op on resident operands: sf2d-spgemm does all the work and the SpMV executor none.",
    },
    WorkloadDef {
        name: "serve-steady",
        why: "Queries through the resident Engine in bursts of 16,16,16,8,3,1 on one plan: batch coalescing, copies and reply assembly over the SpMM kernel, with FillComplete bypassed.",
    },
    WorkloadDef {
        name: "serve-churn",
        why: "The same query bursts with an effective edge mutation before every third burst: every epoch bump pays a CSR rebuild and a full FillComplete beside the reads.",
    },
];

/// Metrics a user of the system sees; reported by the untraced run, on
/// every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.15),
    e2e("ops_per_s", "1/s", "higher", 0.15),
    e2e("sim_overhead_ratio", "ratio", "lower", 0.15),
    e2e("sim_time_s", "s", "lower", 0.2),
    e2e("peak_mib", "MiB", "lower", 0.1),
];

/// Metrics of single layers, named `<crate>.<what>`; reported by the
/// traced run. A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("gen.rmat_ms", "ms", "lower"),
    layer("gen.edges_per_s", "1/s", "higher"),
    layer("graph.csr_floor_ns_per_nnz", "ns", "lower"),
    layer("graph.gustavson_floor_ms", "ms", "lower"),
    layer("graph.rebuild_csr_ms", "ms", "lower"),
    layer("partition.dist_ms", "ms", "lower"),
    layer("partition.gp_ms", "ms", "lower"),
    layer("partition.match_ms", "ms", "lower"),
    layer("partition.contract_ms", "ms", "lower"),
    layer("partition.initpart_ms", "ms", "lower"),
    layer("partition.refine_ms", "ms", "lower"),
    layer("partition.project_ms", "ms", "lower"),
    exact("partition.edge_cut", "count", "lower"),
    exact("partition.nnz_imbalance", "ratio", "lower"),
    layer("partition.par2_ratio", "ratio", "lower"),
    layer("spmv.fillcomplete_ms", "ms", "lower"),
    layer("spmv.fillcomplete_peak_mib", "MiB", "lower"),
    exact("spmv.plan_bytes", "bytes", "lower"),
    layer("spmv.compile_par2_ratio", "ratio", "lower"),
    layer("spmv.product_us", "us", "lower"),
    layer("spmv.ns_per_nnz", "ns", "lower"),
    layer("spmv.spmm16_us_per_col", "us", "lower"),
    layer("spmv.allocs_per_product", "count", "lower"),
    exact("sim.max_msgs", "count", "lower"),
    exact("sim.total_volume_doubles", "count", "lower"),
    exact("sim.supersteps_per_op", "count", "lower"),
    exact("sim.expand_s", "s", "lower"),
    exact("sim.compute_s", "s", "lower"),
    exact("sim.fold_s", "s", "lower"),
    exact("sim.sum_s", "s", "lower"),
    layer("sim.superstep_ns", "ns", "lower"),
    layer("spgemm.expand_fold_ms", "ms", "lower"),
    layer("spgemm.summa_ms", "ms", "lower"),
    layer("spgemm.ef_vs_gustavson_ratio", "ratio", "lower"),
    layer("spgemm.summa_vs_gustavson_ratio", "ratio", "lower"),
    exact("spgemm.flops_ef", "count", "lower"),
    exact("spgemm.flops_summa", "count", "lower"),
    exact("spgemm.max_msgs_ef", "count", "lower"),
    exact("spgemm.max_msgs_summa", "count", "lower"),
    exact("spgemm.volume_ef", "count", "lower"),
    exact("spgemm.volume_summa", "count", "lower"),
    layer("spgemm.allocs_per_multiply", "count", "lower"),
    layer("eigen.solve_ms", "ms", "lower"),
    layer("eigen.op_apply_ms", "ms", "lower"),
    layer("eigen.ortho_dense_ms", "ms", "lower"),
    exact("eigen.op_applies", "count", "lower"),
    exact("eigen.restarts", "count", "lower"),
    exact("eigen.max_residual", "ratio", "lower"),
    layer("serve.engine_new_ms", "ms", "lower"),
    layer("serve.submit_us", "us", "lower"),
    layer("serve.flush_b16_ms", "ms", "lower"),
    layer("serve.flush_b1_ms", "ms", "lower"),
    layer("serve.spmm_floor_b16_ms", "ms", "lower"),
    layer("serve.overhead_ratio", "ratio", "lower"),
    layer("serve.allocs_per_query", "count", "lower"),
    layer("serve.insert_edge_us", "us", "lower"),
    layer("serve.recompile_ms", "ms", "lower"),
    layer("serve.epoch_p50_ms", "ms", "lower"),
    exact("serve.epoch_bumps", "count", "lower"),
    exact("serve.repartitions", "count", "lower"),
    exact("serve.cache_hit_ratio", "ratio", "higher"),
    exact("serve.gather_amortization_ratio", "ratio", "higher"),
    layer("par.pool_utilization", "ratio", "higher"),
    layer("chaos.rate0_ratio", "ratio", "lower"),
    layer("obs.harness_trace_overhead_ratio", "ratio", "lower"),
    layer("obs.facade_on_ratio", "ratio", "lower"),
    layer("obs.unattributed_ratio", "ratio", "lower"),
    layer("harness.op_p99_ms", "ms", "lower"),
    layer("harness.op_samples", "count", "higher"),
    layer("harness.ops_verified", "count", "higher"),
];

/// The values of the per-layer metrics for one run; a name that is never
/// set reads 0 (the layer was not exercised).
#[derive(Default)]
pub struct Layers {
    vals: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Records `value` under a catalogued per-layer name.
    ///
    /// # Panics
    /// Panics on a name that `PER_LAYER` does not list: a typo would
    /// otherwise silently report 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a catalogued per-layer metric"
        );
        match self.vals.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.vals.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.vals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn metric_value(m: &MetricDef) -> Value {
    let mut entries = vec![
        ("name", text(m.name)),
        ("unit", text(m.unit)),
        ("better", text(m.better)),
    ];
    if let Some(bound) = m.bound {
        entries.push(("bound", Value::F64(bound)));
    }
    obj(entries)
}

/// The catalogue as the document `BENCHMARK.json` holds.
pub fn benchmark_json() -> Value {
    obj(vec![
        ("command", texts(COMMAND)),
        ("paths", texts(PATHS)),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(END_TO_END.iter().map(metric_value).collect()),
        ),
        (
            "per_layer",
            Value::Seq(PER_LAYER.iter().map(metric_value).collect()),
        ),
    ])
}

/// What `--catalog` prints: `BENCHMARK.json`'s content plus the names
/// `agree.sh` must find identical between two runs at one seed.
pub fn catalog_json() -> Value {
    obj(vec![
        ("benchmark", benchmark_json()),
        (
            "exact_per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .filter(|m| m.exact)
                    .map(|m| text(m.name))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(END_TO_END.iter().all(|m| !m.exact));
        assert!(PER_LAYER.iter().any(|m| m.exact));
    }

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let raw =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&raw).expect("valid JSON");
        assert_eq!(
            doc,
            benchmark_json(),
            "regenerate BENCHMARK.json from `--catalog` (see README.md)"
        );
        assert!(raw.len() <= 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "not a catalogued")]
    fn layers_reject_unknown_names() {
        Layers::default().set("spmv.prodcut_us", 1.0);
    }
}
