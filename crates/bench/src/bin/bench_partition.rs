//! Wall-clock partitioner tracker: times the deterministic multilevel
//! partitioners sequentially (`threads = 1`) against the task-parallel
//! path over a sweep of thread budgets, verifies every parallel result is
//! **byte-identical** to the sequential one (the determinism contract of
//! `sf2d-partition`), attributes where the wall time goes per pipeline
//! phase, and writes `BENCH_partition.json` (same `meta` header as the
//! other `BENCH_*.json` trackers) so successive PRs can track it.
//!
//! Run from the repo root:
//!
//! ```text
//! cargo run --release -p sf2d-bench --bin bench_partition
//! ```
//!
//! The file lands in the current directory (pass a path argument to put
//! it elsewhere). `--scales a,b,c` sets the R-MAT sweep (default
//! `12,14`), `--k N` the part count (default 64), `--threads a,b,c` the
//! thread budgets to sweep (default `1,2,4,8`), `--samples N` the timing
//! repeats per point (default 5, after one warmup).
//!
//! `--assert-min-speedup X` additionally requires every `gp` case at the
//! largest swept thread count to reach par/seq >= X — the CI speedup
//! smoke gate. On a host without real parallelism (`host_cpus < 2`) the
//! assertion is **skipped loudly** instead of failing: thread
//! oversubscription on one core cannot speed anything up, and a red CI
//! lane that only says "this runner has one core" would train people to
//! ignore it.
//!
//! **Exits nonzero if any parallel result differs from sequential** —
//! CI runs this as the determinism gate.

use sf2d_bench::BenchMeta;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_graph::Graph;
use sf2d_core::sf2d_partition::{
    mondriaan_report, partition_graph_multiconstraint_report, partition_graph_report, GpConfig,
    GpReport, GpStats, MondriaanConfig, PoolStats,
};

/// Per-phase nanoseconds — `gp` rows populate
/// `matching/contract/initpart/refine/project`, `mondriaan` rows
/// `split/assign`; fields outside a case's pipeline stay 0. Taken from
/// one representative (post-warmup) run, not the median sample:
/// attribution explains *where* a budget goes, the medians say *how
/// fast* it goes.
#[derive(serde::Serialize, Clone, Copy, Default)]
struct PhaseMap {
    matching: u64,
    contract: u64,
    initpart: u64,
    refine: u64,
    project: u64,
    split: u64,
    assign: u64,
}

#[derive(serde::Serialize)]
struct CaseResult {
    name: String,
    scale: u64,
    k: u64,
    /// Thread budget of the parallel runs in this row.
    threads: u64,
    median_ns_seq: u64,
    median_ns_par: u64,
    speedup: f64,
    identical: bool,
    samples: u64,
    phases_seq: PhaseMap,
    phases_par: PhaseMap,
    /// Coarsest-graph vertices handed to the sequential initial partition,
    /// summed over the run's bisections (`gp` rows; 0 for mondriaan).
    coarsest_vertices: u64,
    /// How many of those bisections stopped coarsening above `coarsen_to`.
    stalled_bisections: u64,
    /// Worker-pool utilization of one representative parallel run
    /// (per-worker busy/idle/park, jobs, epoch backoffs); `None` for
    /// sequential rows and the pool-less mondriaan pipeline.
    pool: Option<PoolStats>,
}

#[derive(serde::Serialize)]
struct BenchReport {
    meta: BenchMeta,
    description: String,
    /// Thread budgets swept (each gets a row per case).
    thread_sweep: Vec<u64>,
    /// What the host actually has — speedups are only meaningful when
    /// this is >= the thread budget (a 1-core container can only show
    /// overhead, never speedup).
    host_cpus: u64,
    cases: Vec<CaseResult>,
    identical_all: bool,
}

fn main() {
    let mut out_path = "BENCH_partition.json".to_string();
    let mut scales: Vec<u32> = vec![12, 14];
    let mut k = 64usize;
    let mut sweep: Vec<usize> = vec![1, 2, 4, 8];
    let mut samples = 5usize;
    let mut assert_min_speedup: Option<f64> = None;
    let mut trace: Option<std::path::PathBuf> = std::env::var_os("SF2D_TRACE").map(Into::into);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| -> &str {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value after {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--scales" => {
                scales = need_value(i)
                    .split(',')
                    .map(|t| t.parse().expect("numeric scale"))
                    .collect();
                i += 2;
            }
            "--k" => {
                k = need_value(i).parse().expect("numeric --k");
                i += 2;
            }
            "--threads" => {
                sweep = need_value(i)
                    .split(',')
                    .map(|t| t.parse().expect("numeric thread count"))
                    .collect();
                i += 2;
            }
            "--samples" => {
                samples = need_value(i).parse().expect("numeric --samples");
                i += 2;
            }
            "--assert-min-speedup" => {
                assert_min_speedup = Some(need_value(i).parse().expect("numeric min speedup"));
                i += 2;
            }
            "--trace" => {
                trace = Some(std::path::PathBuf::from(need_value(i)));
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown flag {flag}\nusage: bench_partition [OUT.json] \
                     --scales a,b,c --k N --threads a,b,c --samples N \
                     --assert-min-speedup X --trace FILE"
                );
                std::process::exit(2);
            }
            positional => {
                out_path = positional.to_string();
                i += 1;
            }
        }
    }
    assert!(!sweep.is_empty(), "--threads sweep must be non-empty");
    assert!(sweep.iter().all(|&t| t >= 1), "thread counts must be >= 1");
    sweep.sort_unstable();
    sweep.dedup();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut cases = Vec::new();
    for &scale in &scales {
        let a = rmat(&RmatConfig::graph500(scale), 7);
        let g = Graph::from_symmetric_matrix(&a);
        eprintln!(
            "bench_partition: scale {scale} ({} rows, {} nnz), k={k}, threads {sweep:?} \
             on {host_cpus} host cpu(s)",
            a.nrows(),
            a.nnz()
        );

        let cfg_t = |threads: usize| GpConfig {
            seed: 7,
            threads,
            ..GpConfig::default()
        };

        // gp: single-constraint k-way graph partitioning (the 1D/2D-GP path).
        {
            let seq = partition_graph_report(&g, k, &cfg_t(1));
            let seq_median = sf2d_bench::median_ns(samples, || {
                std::hint::black_box(partition_graph_report(&g, k, &cfg_t(1)));
            });
            for &t in &sweep {
                let par = partition_graph_report(&g, k, &cfg_t(t));
                let par_median = sf2d_bench::median_ns(samples, || {
                    std::hint::black_box(partition_graph_report(&g, k, &cfg_t(t)));
                });
                cases.push(case_row(
                    "gp",
                    scale,
                    k,
                    t,
                    samples,
                    seq.partition.part == par.partition.part,
                    seq_median,
                    par_median,
                    gp_phases(&seq),
                    gp_phases(&par),
                    par.stats,
                    par.pool.clone(),
                ));
            }
        }

        // gp-mc: multiconstraint (rows + nonzeros), ncon = 2.
        {
            let seq = partition_graph_multiconstraint_report(&g, k, &cfg_t(1));
            let seq_median = sf2d_bench::median_ns(samples, || {
                std::hint::black_box(partition_graph_multiconstraint_report(&g, k, &cfg_t(1)));
            });
            for &t in &sweep {
                let par = partition_graph_multiconstraint_report(&g, k, &cfg_t(t));
                let par_median = sf2d_bench::median_ns(samples, || {
                    std::hint::black_box(partition_graph_multiconstraint_report(&g, k, &cfg_t(t)));
                });
                cases.push(case_row(
                    "gp-mc",
                    scale,
                    k,
                    t,
                    samples,
                    seq.partition.part == par.partition.part,
                    seq_median,
                    par_median,
                    gp_phases(&seq),
                    gp_phases(&par),
                    par.stats,
                    par.pool.clone(),
                ));
            }
        }

        // mondriaan: nonzero-level recursive bisection.
        {
            let mcfg_t = |threads: usize| MondriaanConfig {
                seed: 7,
                threads,
                ..MondriaanConfig::default()
            };
            let (seq, seq_ph) = mondriaan_report(&a, k, &mcfg_t(1));
            let seq_median = sf2d_bench::median_ns(samples, || {
                std::hint::black_box(mondriaan_report(&a, k, &mcfg_t(1)));
            });
            for &t in &sweep {
                let (par, par_ph) = mondriaan_report(&a, k, &mcfg_t(t));
                let par_median = sf2d_bench::median_ns(samples, || {
                    std::hint::black_box(mondriaan_report(&a, k, &mcfg_t(t)));
                });
                cases.push(case_row(
                    "mondriaan",
                    scale,
                    k,
                    t,
                    samples,
                    seq.owners() == par.owners(),
                    seq_median,
                    par_median,
                    mondriaan_phases(&seq_ph),
                    mondriaan_phases(&par_ph),
                    GpStats::default(),
                    None,
                ));
            }
        }
    }

    let identical_all = cases.iter().all(|c| c.identical);
    let report = BenchReport {
        meta: BenchMeta::collect("bench_partition", sweep.iter().copied().max().unwrap_or(1)),
        description: format!(
            "median wall-clock ns per full k-way partitioning call over {samples} samples \
             (1 warmup); seq = threads 1, par = each swept thread budget; identical = \
             parallel result byte-identical to sequential; phases_* = per-phase ns of one \
             representative run"
        ),
        thread_sweep: sweep.iter().map(|&t| t as u64).collect(),
        host_cpus: host_cpus as u64,
        cases,
        identical_all,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_partition.json");
    for c in &report.cases {
        eprintln!(
            "bench_partition: {} scale {} x{}: seq {:.1} ms, par {:.1} ms, {:.2}x, identical={}",
            c.name,
            c.scale,
            c.threads,
            c.median_ns_seq as f64 / 1e6,
            c.median_ns_par as f64 / 1e6,
            c.speedup,
            c.identical
        );
    }
    eprintln!("bench_partition: -> {out_path}");

    // Traced run strictly after the timed loops: one gp partitioning at
    // the largest swept scale and thread budget with the facade on. The
    // rb pool mirrors its per-worker batch spans into the trace, so the
    // Chrome file gets one track per pool worker with batches labeled by
    // phase (match/contract/initpart/refine/project/kway) — the medians
    // above never pay for the instrumentation.
    if let Some(path) = trace {
        let scale = *scales.iter().max().unwrap();
        let threads = *sweep.iter().max().unwrap();
        let a = rmat(&RmatConfig::graph500(scale), 7);
        let g = Graph::from_symmetric_matrix(&a);
        let machine = sf2d_core::sf2d_sim::Machine::cab();
        let cfg = GpConfig {
            seed: 7,
            threads,
            ..GpConfig::default()
        };
        let (_, n) = sf2d_bench::capture_trace(&path, &machine, || {
            std::hint::black_box(partition_graph_report(&g, k, &cfg));
        });
        eprintln!(
            "bench_partition: trace of gp scale {scale} x{threads} ({n} events) -> {} (+ .md summary)",
            path.display()
        );
    }

    if !identical_all {
        eprintln!("bench_partition: FAIL — parallel result differs from sequential");
        std::process::exit(1);
    }
    if let Some(min) = assert_min_speedup {
        if host_cpus < 2 {
            eprintln!(
                "bench_partition: SKIPPING --assert-min-speedup {min}: host has {host_cpus} \
                 cpu(s); thread oversubscription on one core cannot demonstrate speedup. \
                 Run on a multi-core host to enforce the gate."
            );
        } else {
            let top = *report.thread_sweep.iter().max().unwrap();
            let mut failed = false;
            for c in report
                .cases
                .iter()
                .filter(|c| c.name == "gp" && c.threads == top)
            {
                if c.speedup < min {
                    eprintln!(
                        "bench_partition: FAIL — gp scale {} at {} threads: speedup {:.2} < {min}",
                        c.scale, c.threads, c.speedup
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            eprintln!("bench_partition: speedup gate passed (gp at {top} threads >= {min}x)");
        }
    }
}

fn gp_phases(r: &GpReport) -> PhaseMap {
    let p = r.phases;
    PhaseMap {
        matching: p.matching,
        contract: p.contract,
        initpart: p.initpart,
        refine: p.refine,
        project: p.project,
        ..PhaseMap::default()
    }
}

fn mondriaan_phases(p: &sf2d_core::sf2d_partition::MondriaanPhases) -> PhaseMap {
    PhaseMap {
        split: p.split,
        assign: p.assign,
        ..PhaseMap::default()
    }
}

/// Packages one (case, thread budget) row.
#[allow(clippy::too_many_arguments)]
fn case_row(
    name: &str,
    scale: u32,
    k: usize,
    threads: usize,
    samples: usize,
    identical: bool,
    median_ns_seq: u64,
    median_ns_par: u64,
    phases_seq: PhaseMap,
    phases_par: PhaseMap,
    stats: GpStats,
    pool: Option<PoolStats>,
) -> CaseResult {
    CaseResult {
        name: name.to_string(),
        scale: scale as u64,
        k: k as u64,
        threads: threads as u64,
        median_ns_seq,
        median_ns_par,
        speedup: median_ns_seq as f64 / median_ns_par.max(1) as f64,
        identical,
        samples: samples as u64,
        phases_seq,
        phases_par,
        coarsest_vertices: stats.coarsest_vertices,
        stalled_bisections: stats.stalled_bisections,
        pool,
    }
}
