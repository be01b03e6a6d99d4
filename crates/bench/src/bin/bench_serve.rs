//! Serving SLO tracker: drives the resident `sf2d-serve` engine through
//! a deterministic query stream in two scenarios — **steady** (the plan
//! compiled at construction serves every batch) and **mutating** (edge
//! churn between bursts forces epoch bumps, in-place plan patches, and
//! possibly drift repartitions) — and writes `BENCH_serve.json` with per-scenario
//! request-level numbers: p50/p99 per-query latency (a query's latency
//! is its batch's flush wall time), throughput in queries per second,
//! the batch-size histogram, and the deterministic amortization ratios
//! (`cache_hit_ratio`, `gather_amortization_ratio`) that the CI
//! `perf_diff --relative-only` gate holds across machines.
//!
//! Run from the repo root:
//!
//! ```text
//! cargo run --release -p sf2d-bench --bin bench_serve
//! ```
//!
//! The file lands in the current directory (pass a path argument to put
//! it elsewhere). `--scale N` sizes the R-MAT graph (default 10);
//! `--p N` sets the rank count (default 64).

use std::time::Instant;

use sf2d_core::experiment::ServeRow;
use sf2d_core::prelude::*;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_graph::CsrMatrix;
use sf2d_core::sf2d_obs::Histogram;
use sf2d_serve::{Engine, EngineConfig};

/// Flush rounds per scenario.
const ROUNDS: usize = 24;
/// SpMM batch width cap.
const MAX_BATCH: usize = 16;

/// Deterministic burst widths: mostly full batches with a sprinkling of
/// partial ones, so the batch-size histogram has real shape.
fn burst_for(round: usize) -> usize {
    match round % 6 {
        0..=2 => MAX_BATCH,
        3 => MAX_BATCH / 2,
        4 => 3,
        _ => 1,
    }
}

fn query_vec(n: usize, q: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 31 + q * 17) % 23) as f64 - 11.0)
        .collect()
}

/// Runs one scenario to a [`ServeRow`] plus the engine's batch-size
/// buckets. `mutate` interleaves an effective edge upsert before every
/// other burst — each one an epoch bump and (lazily) a plan patch.
fn run_scenario(
    a: &CsrMatrix,
    cfg: EngineConfig,
    matrix: &str,
    scenario: &str,
    mutate: bool,
) -> (ServeRow, Vec<(u64, u64)>) {
    let mut engine = Engine::new(a, cfg.clone());
    let n = engine.n();
    let mut latency = Histogram::default();
    let mut next_q = 0usize;
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        if mutate && round % 2 == 1 {
            let i = (round as u32).wrapping_mul(13) % n as u32;
            let j = (round as u32).wrapping_mul(29).wrapping_add(7) % n as u32;
            // A fresh weight each round: always an effective change.
            engine.insert_edge(i, j, 100.0 + round as f64);
        }
        for _ in 0..burst_for(round) {
            engine.submit(query_vec(n, next_q));
            next_q += 1;
        }
        let t = Instant::now();
        let replies = engine.flush();
        let flush_ns = t.elapsed().as_nanos() as u64;
        // One burst <= MAX_BATCH, so the whole flush is this query's
        // batch: bill its wall time to every query it answered.
        for reply in &replies {
            std::hint::black_box(reply.y.len());
            latency.observe(flush_ns);
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let m = &engine.metrics;
    let row = ServeRow {
        matrix: matrix.to_string(),
        method: cfg.method.name().to_string(),
        p: cfg.p,
        scenario: scenario.to_string(),
        max_batch: cfg.max_batch,
        queries: m.queries,
        batches: m.batches,
        latency_p50_ns: latency.p50().unwrap_or(0.0).round() as u64,
        latency_p99_ns: latency.p99().unwrap_or(0.0).round() as u64,
        qps: m.queries as f64 / wall_secs,
        gather_amortization_ratio: m.gather_amortization_ratio(),
        cache_hit_ratio: m.cache_hit_ratio(),
        epoch_bumps: m.epoch_bumps,
        sim_time: engine.ledger.total,
    };
    (row, engine.metrics.batch_sizes.nonzero_buckets())
}

/// One merged batch-size histogram bucket.
#[derive(serde::Serialize)]
struct Bucket {
    /// Bucket upper bound (batch width).
    le: u64,
    /// Batches that landed in this bucket.
    count: u64,
}

#[derive(serde::Serialize)]
struct BenchReport {
    meta: sf2d_bench::BenchMeta,
    description: String,
    matrix: String,
    p: u64,
    max_batch: u64,
    /// One row per scenario ("steady", "mutating").
    serve: Vec<ServeRow>,
    /// Merged batch-size histogram over both scenarios.
    batch_size_buckets: Vec<Bucket>,
}

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
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
                eprintln!("unknown flag {flag}\nusage: bench_serve [OUT.json] --scale N --p N");
                std::process::exit(2);
            }
            positional => {
                out_path = positional.to_string();
                i += 1;
            }
        }
    }

    let a = rmat(&RmatConfig::graph500(scale), 7);
    let matrix = format!("rmat-s{scale}");
    let threads = RuntimeConfig::from_env().threads;
    let cfg = EngineConfig::new(Method::TwoDGp, p)
        .with_threads(threads)
        .with_max_batch(MAX_BATCH);
    eprintln!(
        "bench_serve: {} rows, {} nnz, p={p}, max_batch={MAX_BATCH}, {ROUNDS} rounds/scenario",
        a.nrows(),
        a.nnz()
    );

    let (steady, steady_buckets) = run_scenario(&a, cfg.clone(), &matrix, "steady", false);
    let (mutating, mut_buckets) = run_scenario(&a, cfg, &matrix, "mutating", true);

    let mut buckets = std::collections::BTreeMap::new();
    for (b, c) in steady_buckets.into_iter().chain(mut_buckets) {
        *buckets.entry(b).or_insert(0u64) += c;
    }

    println!("| scenario | queries | batches | p50 | p99 | qps | hit ratio | amortization |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|");
    for row in [&steady, &mutating] {
        println!(
            "| {} | {} | {} | {} ns | {} ns | {:.0} | {:.3} | {:.2} |",
            row.scenario,
            row.queries,
            row.batches,
            row.latency_p50_ns,
            row.latency_p99_ns,
            row.qps,
            row.cache_hit_ratio,
            row.gather_amortization_ratio,
        );
    }

    let report = BenchReport {
        meta: sf2d_bench::BenchMeta::collect("bench_serve", threads),
        description: format!(
            "Resident serving engine on rmat graph500 scale {scale}, 2D-GP, p = {p}: \
             {ROUNDS} deterministic query bursts per scenario at max_batch {MAX_BATCH}; \
             steady keeps one current plan, mutating upserts an edge before every other \
             burst (epoch bump + lazy in-place plan patch). Latency quantiles and qps are \
             machine-local; the *_ratio columns are deterministic and gate under \
             --relative-only."
        ),
        matrix: format!("rmat graph500 scale {scale} ({} nnz)", a.nnz()),
        p: p as u64,
        max_batch: MAX_BATCH as u64,
        serve: vec![steady, mutating],
        batch_size_buckets: buckets
            .into_iter()
            .map(|(le, count)| Bucket { le, count })
            .collect(),
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_serve.json");
    let (s, m) = (&report.serve[0], &report.serve[1]);
    eprintln!(
        "bench_serve: steady p50 {} ns / p99 {} ns at {:.0} qps (hit ratio {:.3}); \
         mutating p50 {} ns / p99 {} ns at {:.0} qps (hit ratio {:.3}, {} epoch bumps) \
         -> {out_path}",
        s.latency_p50_ns,
        s.latency_p99_ns,
        s.qps,
        s.cache_hit_ratio,
        m.latency_p50_ns,
        m.latency_p99_ns,
        m.qps,
        m.cache_hit_ratio,
        m.epoch_bumps
    );
}
