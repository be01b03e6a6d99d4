//! SpGEMM workload tracker: runs **both** distributed `C = A·Aᵀ` kernels
//! — the expand/fold path and the Sparse SUMMA stage-broadcast path — on
//! an R-MAT graph under all six layouts of the SpMV study, prints a
//! table3-style metrics row per (layout, algo), and writes
//! `BENCH_spgemm.json` with the per-row message / volume / flop /
//! predicted-time columns, wall-clock medians, resident workspace bytes
//! and the live-heap peak of one product of both 2D-GP kernels for perf
//! tracking (the binary installs `CountingAlloc` as its global
//! allocator), and the headline
//! communication-avoiding comparison: SUMMA's worst per-rank send count
//! over the layouts (bounded by the grid, not the layout) against
//! expand/fold's (which degrades to `p − 1` under 1D layouts).
//!
//! Run from the repo root:
//!
//! ```text
//! cargo run --release -p sf2d-bench --bin bench_spgemm
//! ```
//!
//! The file lands in the current directory (pass a path argument to put
//! it elsewhere). `--scale N` shrinks/grows the R-MAT problem (default
//! 10); `--p N` sets the rank count (default 64).

use sf2d_core::experiment::{labeled_spgemm, spgemm_experiment, summa_experiment, SpgemmRow};
use sf2d_core::prelude::*;
use sf2d_core::report::fmt_secs;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_obs::mem;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

const SAMPLES: usize = 5;

#[derive(serde::Serialize)]
struct BenchReport {
    meta: sf2d_bench::BenchMeta,
    description: String,
    matrix: String,
    p: u64,
    /// One row per (layout, algo): max messages per exchange, total
    /// volume (doubles), per-rank max and total flops, predicted seconds.
    /// `algo` is `"expand_fold"` or `"summa"`.
    rows: Vec<SpgemmRow>,
    /// Median wall-clock ns for one compiled SpGEMM on the 2D-GP layout.
    wall_ns_2d_gp: u64,
    /// Median wall-clock ns for one Sparse SUMMA SpGEMM on 2D-GP.
    wall_ns_2d_gp_summa: u64,
    /// Bytes the expand/fold workspace keeps reserved after a 2D-GP
    /// product: a deterministic footprint, gated like `plan_bytes`.
    workspace_bytes_2d_gp: u64,
    /// Bytes the SUMMA workspace keeps reserved after a 2D-GP product.
    workspace_bytes_2d_gp_summa: u64,
    /// Live-heap peak of one sequential expand/fold product on 2D-GP from
    /// a fresh workspace, above the heap live before it: workspace and
    /// output together. Serial and deterministic, so it repeats to the
    /// byte and gates as a footprint.
    peak_live_bytes_2d_gp: u64,
    /// The same peak for one sequential SUMMA product.
    peak_live_bytes_2d_gp_summa: u64,
    /// Predicted-time ratio 1D-GP / 2D-GP (the worked comparison in
    /// EXPERIMENTS.md).
    ratio_1d_gp_over_2d_gp: f64,
    /// Headline: worst-over-layouts max per-rank sends for expand/fold
    /// (hits `p − 1` on the 1D layouts).
    msgs_worst_layout_expand_fold: u64,
    /// Headline: worst-over-layouts max per-rank sends for SUMMA — grid-
    /// bounded, so it stays near `√p` no matter the layout.
    msgs_worst_layout_summa: u64,
    /// Worst per-rank sends in any *single* SUMMA stage across all rows;
    /// must respect the communication-avoiding `(pr − 1) + (pc − 1)`
    /// bound (asserted in `tests/tests/paper_claims.rs`).
    msgs_summa_stage_max: u64,
}

/// Live-heap peak of `product` above the heap live before it.
fn peak_live_bytes(product: impl FnOnce()) -> u64 {
    let before = mem::snapshot().live_bytes;
    mem::reset_peak();
    product();
    mem::snapshot().peak_live_bytes - before
}

fn main() {
    let mut out_path = "BENCH_spgemm.json".to_string();
    let mut scale = 10u32;
    let mut p = 64usize;
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
            "--scale" => {
                scale = need_value(i).parse().expect("numeric --scale");
                i += 2;
            }
            "--p" => {
                p = need_value(i).parse().expect("numeric --p");
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}\nusage: bench_spgemm [OUT.json] --scale N --p N");
                std::process::exit(2);
            }
            positional => {
                out_path = positional.to_string();
                i += 1;
            }
        }
    }

    let a = rmat(&RmatConfig::graph500(scale), 7);
    let mut builder = LayoutBuilder::new(&a, 0);
    eprintln!(
        "bench_spgemm: C = A*A^T, {} rows, {} nnz, p={p}, six layouts",
        a.nrows(),
        a.nnz()
    );

    println!(
        "| p | method | algo | max msgs (exp/fold) | stage msgs | volume | max flops | time |"
    );
    println!("|---:|---|---|---:|---:|---:|---:|---:|");
    let mut rows = Vec::new();
    for m in Method::spmv_set(false) {
        let dist = builder.dist(m, p);
        for row in [
            labeled_spgemm(spgemm_experiment(&a, &dist, Machine::cab()), "rmat", m),
            labeled_spgemm(summa_experiment(&a, &dist, Machine::cab()), "rmat", m),
        ] {
            println!(
                "| {p} | {} | {} | {}/{} | {} | {} | {} | {} |",
                row.method,
                row.algo,
                row.expand_max_msgs,
                row.fold_max_msgs,
                row.stage_max_msgs,
                row.total_volume,
                row.max_flops,
                fmt_secs(row.sim_time),
            );
            rows.push(row);
        }
    }

    // Wall-clock both kernels on the paper's layout of interest,
    // workspaces reused across samples as an iterative caller would.
    let dist = builder.dist(Method::TwoDGp, p);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let b = a.transpose();
    let threads = sf2d_core::sf2d_sim::sf2d_par::threads_from_env();
    let mut ws = SpgemmWorkspace::with_threads(threads);
    let wall_ns_2d_gp = sf2d_bench::median_ns(SAMPLES, || {
        let mut ledger = CostLedger::new(Machine::cab());
        let c = spgemm_with(&dm, &b, &mut ledger, &mut ws);
        std::hint::black_box(c.nnz);
    });
    let mut sws = SummaWorkspace::with_threads(threads);
    let wall_ns_2d_gp_summa = sf2d_bench::median_ns(SAMPLES, || {
        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_with(&dm, &dist, &b, &mut ledger, &mut sws);
        std::hint::black_box(c.nnz);
    });

    let peak_live_bytes_2d_gp = peak_live_bytes(|| {
        let mut ledger = CostLedger::new(Machine::cab());
        let c = spgemm_with(&dm, &b, &mut ledger, &mut SpgemmWorkspace::new());
        std::hint::black_box(c.nnz);
    });
    let peak_live_bytes_2d_gp_summa = peak_live_bytes(|| {
        let mut ledger = CostLedger::new(Machine::cab());
        let c = summa_with(&dm, &dist, &b, &mut ledger, &mut SummaWorkspace::new());
        std::hint::black_box(c.nnz);
    });

    let worst_msgs = |algo: &str| {
        rows.iter()
            .filter(|r| r.algo == algo)
            .map(|r| r.expand_max_msgs + r.fold_max_msgs)
            .max()
            .unwrap_or(0)
    };
    let msgs_worst_layout_expand_fold = worst_msgs("expand_fold");
    let msgs_worst_layout_summa = worst_msgs("summa");
    let msgs_summa_stage_max = rows.iter().map(|r| r.stage_max_msgs).max().unwrap_or(0);

    let time_of = |name: &str| {
        rows.iter()
            .find(|r| r.method == name && r.algo == "expand_fold")
            .map(|r| r.sim_time)
            .unwrap_or(f64::NAN)
    };
    let ratio = time_of("1D-GP") / time_of("2D-GP");
    let report = BenchReport {
        meta: sf2d_bench::BenchMeta::collect("bench_spgemm", threads),
        description: format!(
            "C = A*A^T on rmat graph500 scale {scale}, p = {p}: simulated traffic/work/time \
             per (layout, algo) for expand/fold and Sparse SUMMA, plus median wall-clock ns \
             over {SAMPLES} samples for both kernels on 2D-GP"
        ),
        matrix: format!("rmat graph500 scale {scale} ({} nnz)", a.nnz()),
        p: p as u64,
        rows,
        wall_ns_2d_gp,
        wall_ns_2d_gp_summa,
        workspace_bytes_2d_gp: ws.resident_bytes(),
        workspace_bytes_2d_gp_summa: sws.resident_bytes(),
        peak_live_bytes_2d_gp,
        peak_live_bytes_2d_gp_summa,
        ratio_1d_gp_over_2d_gp: ratio,
        msgs_worst_layout_expand_fold,
        msgs_worst_layout_summa,
        msgs_summa_stage_max,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_spgemm.json");
    eprintln!(
        "bench_spgemm: 1D-GP/2D-GP predicted-time ratio {ratio:.2}, worst-layout max sends \
         expand/fold {msgs_worst_layout_expand_fold} vs summa {msgs_worst_layout_summa} \
         (stage max {msgs_summa_stage_max}), 2D-GP wall {wall_ns_2d_gp} ns \
         (summa {wall_ns_2d_gp_summa} ns), workspaces {} / {} bytes, product peaks \
         {peak_live_bytes_2d_gp} / {peak_live_bytes_2d_gp_summa} bytes -> {out_path}",
        report.workspace_bytes_2d_gp, report.workspace_bytes_2d_gp_summa,
    );
}
