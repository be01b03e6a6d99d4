//! Paper-scale sweep tracker: drives the flat-plan compiler and the
//! bounded-memory wave scheduler up to p = 16,384 ranks on a scale-20
//! R-MAT generator and writes `BENCH_scale.json` — the artefact that
//! shows the paper's 1D-vs-2D communication crossover at rank counts the
//! per-layout benches never reach.
//!
//! Run from the repo root:
//!
//! ```text
//! cargo run --release -p sf2d-bench --bin bench_scale
//! ```
//!
//! Per (layout, p) row it records the crossover ingredients — max
//! messages per rank and total exchanged volume for expand and fold —
//! plus the cost-model `sim_time` of one budget-waved SpMV, the plan
//! compile wall-clock, the compiled plan's footprint (`plan_bytes`), and
//! the allocator's peak-live-bytes / allocation-count deltas for the row
//! (this binary installs [`sf2d_obs::mem::CountingAlloc`] as its global
//! allocator).
//!
//! Flags: positional `OUT.json` (default `BENCH_scale.json`), `--scale N`
//! (R-MAT scale, default 20), `--procs a,b,c` (rank counts, default
//! `64,256,1024,4096,16384`), `--pmax N` (drop swept rank counts above
//! N), `--budget-mb N` (wave-scheduler live-workspace budget, default
//! 64), `--threads N` (compile thread budget, default 4), `--samples N`
//! (timing repeats for the compile-speedup gate, default 3), `--trace
//! FILE` (untimed traced SpMV after the sweep).
//!
//! `--assert-compile-speedup X` requires parallel FillComplete at
//! p = min(4096, largest swept p) to reach serial/parallel >= X. On a
//! host without real parallelism (`host_cpus < 2`) the assertion is
//! **skipped loudly** instead of failing: thread oversubscription on one
//! core cannot speed anything up. The byte-identity of the parallel
//! compile is asserted unconditionally — that gate has no hardware
//! excuse.

use std::path::PathBuf;
use std::sync::Arc;

use sf2d_core::prelude::*;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_obs::mem;
use sf2d_core::sf2d_sim::sf2d_par::Pool;
use sf2d_core::sf2d_spmv::{spmv_with, SpmvWorkspace};

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

#[derive(serde::Serialize)]
struct ScaleRow {
    /// Layout family.
    name: String,
    p: u64,
    scale: u64,
    /// Max expand messages any rank sends (the paper's O(p) vs O(sqrt p)
    /// axis).
    expand_max_msgs: u64,
    /// Max fold messages any rank sends (0 for 1D layouts).
    fold_max_msgs: u64,
    /// Total expand volume, vector entries.
    expand_volume: u64,
    /// Total fold volume, vector entries.
    fold_volume: u64,
    /// Modeled seconds of one SpMV under the wave budget.
    sim_time: f64,
    /// Rank waves the budget split the superstep into.
    waves: u64,
    /// FillComplete (distribute + compile) wall clock, one shot.
    compile_wall_ns: u64,
    /// The compiled plan's heap footprint.
    plan_bytes: u64,
    /// Allocator high-water mark over this row (matrix build + compile +
    /// budgeted SpMV), bytes.
    peak_live_bytes: u64,
    /// Allocations over this row.
    allocs: u64,
}

#[derive(serde::Serialize)]
struct CompileGate {
    /// Rank count the gate compiles at: min(4096, largest swept p).
    p: u64,
    threads: u64,
    median_ns_serial: u64,
    median_ns_parallel: u64,
    /// serial / parallel wall clock.
    compile_speedup: f64,
    /// Parallel result byte-identical to serial (hard gate).
    compile_identical: bool,
    samples: u64,
}

#[derive(serde::Serialize)]
struct BenchReport {
    meta: sf2d_bench::BenchMeta,
    description: String,
    matrix: String,
    scale: u64,
    budget_mb: u64,
    host_cpus: u64,
    /// Smallest swept p where the best 2D layout's max expand messages
    /// beat the best 1D layout's (null if never).
    msg_crossover_p: Option<u64>,
    /// Smallest swept p where the best 2D layout's modeled SpMV time
    /// beats the best 1D layout's (null if never).
    sim_crossover_p: Option<u64>,
    rows: Vec<ScaleRow>,
    compile_gate: CompileGate,
}

fn layout(name: &str, n: usize, p: usize) -> MatrixDist {
    let (pr, pc) = grid_shape(p);
    match name {
        "1D-Block" => MatrixDist::block_1d(n, p),
        "1D-Random" => MatrixDist::random_1d(n, p, 5),
        "2D-Block" => MatrixDist::block_2d(n, pr, pc),
        "2D-Random" => MatrixDist::random_2d(n, pr, pc, 5),
        other => unreachable!("unknown layout {other}"),
    }
}

const LAYOUTS: [&str; 4] = ["1D-Block", "1D-Random", "2D-Block", "2D-Random"];

fn main() {
    let mut out_path = "BENCH_scale.json".to_string();
    let mut scale = 20u32;
    let mut procs: Vec<usize> = vec![64, 256, 1024, 4096, 16384];
    let mut pmax = usize::MAX;
    let mut budget_mb = 64u64;
    let mut threads = 4usize;
    let mut samples = 3usize;
    let mut assert_compile_speedup: Option<f64> = None;
    let mut trace: Option<PathBuf> = std::env::var_os("SF2D_TRACE").map(PathBuf::from);
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
            "--procs" => {
                procs = need_value(i)
                    .split(',')
                    .map(|t| t.parse().expect("numeric proc count"))
                    .collect();
                i += 2;
            }
            "--pmax" => {
                pmax = need_value(i).parse().expect("numeric --pmax");
                i += 2;
            }
            "--budget-mb" => {
                budget_mb = need_value(i).parse().expect("numeric --budget-mb");
                i += 2;
            }
            "--threads" => {
                threads = need_value(i).parse().expect("numeric --threads");
                i += 2;
            }
            "--samples" => {
                samples = need_value(i).parse().expect("numeric --samples");
                i += 2;
            }
            "--assert-compile-speedup" => {
                assert_compile_speedup = Some(need_value(i).parse().expect("numeric min speedup"));
                i += 2;
            }
            "--trace" => {
                trace = Some(PathBuf::from(need_value(i)));
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown flag {flag}\nusage: bench_scale [OUT.json] --scale N \
                     --procs a,b,c --pmax N --budget-mb N --threads N --samples N \
                     --assert-compile-speedup X --trace FILE"
                );
                std::process::exit(2);
            }
            positional => {
                out_path = positional.to_string();
                i += 1;
            }
        }
    }
    procs.retain(|&p| p <= pmax);
    procs.sort_unstable();
    procs.dedup();
    assert!(!procs.is_empty(), "no rank counts left after --pmax");
    let threads = threads.max(1);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let budget_bytes = budget_mb * (1 << 20);

    let a = rmat(&RmatConfig::graph500(scale), 7);
    eprintln!(
        "bench_scale: rmat scale {scale} ({} rows, {} nnz), p sweep {procs:?}, \
         budget {budget_mb} MiB, {threads} compile thread(s) on {host_cpus} host cpu(s)",
        a.nrows(),
        a.nnz()
    );
    let pool = Pool::new(threads);

    let mut rows: Vec<ScaleRow> = Vec::new();
    for &p in &procs {
        for name in LAYOUTS {
            let dist = layout(name, a.nrows(), p);
            mem::reset_peak();
            let base = mem::snapshot();

            let t0 = std::time::Instant::now();
            let dm = DistCsrMatrix::from_global_with(&a, &dist, threads, Some(&pool));
            let compile_wall_ns = t0.elapsed().as_nanos() as u64;

            // One budget-waved SpMV: the modeled time is the crossover
            // curve, the wave count proves the scheduler engaged.
            let x = DistVector::random(Arc::clone(&dm.vmap), 1);
            let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
            let mut ws = SpmvWorkspace::with_threads(threads).with_budget(budget_bytes);
            let mut ledger = CostLedger::new(Machine::cab());
            spmv_with(&dm, &x, &mut y, &mut ledger, &mut ws);

            let snap = mem::snapshot();
            let row = ScaleRow {
                name: name.to_string(),
                p: p as u64,
                scale: scale as u64,
                expand_max_msgs: dm.import.max_send_msgs() as u64,
                fold_max_msgs: dm.export.max_send_msgs() as u64,
                expand_volume: dm.import.total_volume() as u64,
                fold_volume: dm.export.total_volume() as u64,
                sim_time: ledger.total,
                waves: ws.wave_count() as u64,
                compile_wall_ns,
                plan_bytes: dm.compiled.plan_bytes(),
                peak_live_bytes: snap.peak_live_bytes,
                allocs: snap.allocs - base.allocs,
            };
            eprintln!(
                "bench_scale: {:>9} p={:<5} msgs {:>5}/{:<5} sim {:>9.4}s waves {:>3} \
                 compile {:>7.1}ms plans {:>6.1}MiB peak {:>7.1}MiB",
                row.name,
                row.p,
                row.expand_max_msgs,
                row.fold_max_msgs,
                row.sim_time,
                row.waves,
                row.compile_wall_ns as f64 / 1e6,
                row.plan_bytes as f64 / (1 << 20) as f64,
                row.peak_live_bytes as f64 / (1 << 20) as f64,
            );
            rows.push(row);
        }
    }

    // Crossover detection: best-in-family comparison per swept p. The
    // paper's claim is about the *family* (2D bounds messages by the grid
    // dimensions), so comparing family minima is the honest reading.
    let best = |rows: &[ScaleRow], p: u64, one_d: bool, f: &dyn Fn(&ScaleRow) -> f64| {
        rows.iter()
            .filter(|r| r.p == p && r.name.starts_with("1D") == one_d)
            .map(f)
            .fold(f64::INFINITY, f64::min)
    };
    let crossover = |f: &dyn Fn(&ScaleRow) -> f64| {
        procs
            .iter()
            .map(|&p| p as u64)
            .find(|&p| best(&rows, p, false, f) < best(&rows, p, true, f))
    };
    let msg_crossover_p = crossover(&|r| r.expand_max_msgs.max(r.fold_max_msgs) as f64);
    let sim_crossover_p = crossover(&|r| r.sim_time);

    // Compile-speedup gate: serial vs pooled FillComplete at the largest
    // swept p capped at 4096 (the acceptance point; 16K serial would
    // dominate the tracker's runtime for no extra information).
    let gate_p = procs
        .iter()
        .copied()
        .filter(|&p| p <= 4096)
        .max()
        .unwrap_or(procs[0]);
    let gate_dist = layout("2D-Random", a.nrows(), gate_p);
    let serial_dm = DistCsrMatrix::from_global(&a, &gate_dist);
    let parallel_dm = DistCsrMatrix::from_global_with(&a, &gate_dist, threads, Some(&pool));
    let compile_identical = serial_dm.compiled == parallel_dm.compiled
        && serial_dm.import == parallel_dm.import
        && serial_dm.export == parallel_dm.export;
    drop(parallel_dm);
    drop(serial_dm);
    let median_ns_serial = sf2d_bench::median_ns(samples, || {
        std::hint::black_box(DistCsrMatrix::from_global(&a, &gate_dist));
    });
    let median_ns_parallel = sf2d_bench::median_ns(samples, || {
        std::hint::black_box(DistCsrMatrix::from_global_with(
            &a,
            &gate_dist,
            threads,
            Some(&pool),
        ));
    });
    let compile_gate = CompileGate {
        p: gate_p as u64,
        threads: threads as u64,
        median_ns_serial,
        median_ns_parallel,
        compile_speedup: median_ns_serial as f64 / median_ns_parallel.max(1) as f64,
        compile_identical,
        samples: samples as u64,
    };
    eprintln!(
        "bench_scale: compile gate at p={gate_p}: serial {:.1}ms, parallel x{threads} {:.1}ms, \
         {:.2}x, identical={}",
        median_ns_serial as f64 / 1e6,
        median_ns_parallel as f64 / 1e6,
        compile_gate.compile_speedup,
        compile_identical
    );

    let report = BenchReport {
        meta: sf2d_bench::BenchMeta::collect("bench_scale", threads),
        description: format!(
            "1D-vs-2D crossover sweep on an R-MAT scale-{scale} generator: per (layout, p) \
             row, max messages + volume per exchange, modeled SpMV seconds under a \
             {budget_mb} MiB wave budget, FillComplete wall clock, plan bytes, and \
             allocator peak/count deltas; compile gate = serial vs \
             {threads}-thread FillComplete medians over {samples} samples"
        ),
        matrix: format!("rmat graph500 scale {scale} ({} nnz)", a.nnz()),
        scale: scale as u64,
        budget_mb,
        host_cpus: host_cpus as u64,
        msg_crossover_p,
        sim_crossover_p,
        rows,
        compile_gate,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_scale.json");
    eprintln!(
        "bench_scale: msg crossover at p={:?}, sim crossover at p={:?} -> {out_path}",
        report.msg_crossover_p, report.sim_crossover_p
    );

    // Traced run strictly after the timed sweep: one budgeted SpMV at the
    // largest swept p with the facade on; the allocator snapshot lands in
    // the trace's metrics registry via the mem.* gauges.
    if let Some(path) = trace {
        let p = *procs.iter().max().unwrap();
        let dist = layout("2D-Random", a.nrows(), p);
        let dm = DistCsrMatrix::from_global_with(&a, &dist, threads, Some(&pool));
        let x = DistVector::random(Arc::clone(&dm.vmap), 1);
        let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut ws = SpmvWorkspace::with_threads(threads).with_budget(budget_bytes);
        let machine = Machine::cab();
        let (_, n) = sf2d_bench::capture_trace(&path, &machine, || {
            let mut ledger = CostLedger::new(machine);
            spmv_with(&dm, &x, &mut y, &mut ledger, &mut ws);
            let stats = mem::snapshot();
            sf2d_core::sf2d_obs::with_registry(|r| mem::record_mem_stats(r, 0, &stats));
        });
        eprintln!(
            "bench_scale: trace of 2D-Random p={p} ({n} events) -> {} (+ .md summary)",
            path.display()
        );
    }

    if !compile_identical {
        eprintln!("bench_scale: FAIL — parallel FillComplete differs from serial");
        std::process::exit(1);
    }
    if let Some(min) = assert_compile_speedup {
        if host_cpus < 2 {
            eprintln!(
                "bench_scale: SKIPPING --assert-compile-speedup {min}: host has {host_cpus} \
                 cpu(s); thread oversubscription on one core cannot demonstrate speedup. \
                 Run on a multi-core host to enforce the gate."
            );
        } else if report.compile_gate.compile_speedup < min {
            eprintln!(
                "bench_scale: FAIL — compile at p={gate_p}: speedup {:.2} < {min}",
                report.compile_gate.compile_speedup
            );
            std::process::exit(1);
        } else {
            eprintln!(
                "bench_scale: compile speedup gate passed ({:.2}x >= {min}x at p={gate_p})",
                report.compile_gate.compile_speedup
            );
        }
    }
}
