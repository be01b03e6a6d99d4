//! The repo benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! It builds the workload's inputs from the seed and measures three
//! segments — each a fresh set-up (`setup_s` is their median) and ops for
//! a third of `--seconds`, every output verified — then prints each
//! metric by name with its unit and ends with one JSON line: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace
//! 1`, which also writes a Chrome trace and `layers.json` under
//! `benchmark/out/<workload>/`). See `README.md`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Value;
use sf2d_core::sf2d_obs::mem::CountingAlloc;

mod catalog;
mod inputs;
mod json;
mod measure;
mod probes;
mod provenance;
mod stats;
mod trace;
mod workloads;

use catalog::{Layers, MetricDef, END_TO_END, PER_LAYER};
use json::{obj, render, text};
use measure::{Segment, StepRecord};
use provenance::Provenance;
use stats::{highest_reportable_tail, median, p99_reportable, quantile};
use trace::Recorder;
use workloads::cold_cell::ColdCell;
use workloads::eigen::EigenKs;
use workloads::hot::{Hot, OneDManyRanks, TwoDGp};
use workloads::serve::Serve;
use workloads::spgemm::SpgemmAat;
use workloads::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A run is this many segments: each sets the workload up afresh and
/// measures it for an equal share of `--seconds` (see `measure.rs`).
const SEGMENTS: usize = 3;
/// Share of a traced op's wall the harness itself may account for.
const MAX_UNATTRIBUTED: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One set-up and only the leading fixed steps: a quick pass with
    /// all verification on, for `check.sh`.
    smoke: bool,
}

type Runner = fn(&Args, &Provenance) -> Outcome;

/// The workloads by name, in `WORKLOADS` order.
const RUNNERS: &[(&str, Runner)] = &[
    (ColdCell::NAME, run::<ColdCell>),
    (Hot::<TwoDGp>::NAME, run::<Hot<TwoDGp>>),
    (Hot::<OneDManyRanks>::NAME, run::<Hot<OneDManyRanks>>),
    (EigenKs::NAME, run::<EigenKs>),
    (SpgemmAat::NAME, run::<SpgemmAat>),
    (Serve::<false>::NAME, run::<Serve<false>>),
    (Serve::<true>::NAME, run::<Serve<true>>),
];

fn usage() -> ! {
    let names: Vec<&str> = RUNNERS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: sf2d-benchmark --workload <{}> --seed <u64> --seconds <n> --trace <0|1> [--smoke]\n       sf2d-benchmark --catalog",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (Args, Runner) {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--catalog" {
            println!("{}", render(&catalog::catalog_json()));
            std::process::exit(0);
        }
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        let parsed = match flag.as_str() {
            "--workload" => {
                args.workload = value;
                true
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v| args.seconds = v)
                .is_ok_and(|()| args.seconds.is_finite() && args.seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    args.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !parsed {
            usage();
        }
    }
    match RUNNERS.iter().find(|(name, _)| *name == args.workload) {
        Some((_, runner)) => (args, *runner),
        None => usage(),
    }
}

/// Everything one run measured.
struct Outcome {
    metrics: Vec<(&'static MetricDef, f64)>,
    attempted: u64,
    failed: u64,
    correct: bool,
    notes: Vec<String>,
}

/// What repeats exactly at one seed: read once, from the first segment.
struct Exact {
    sim_time_s: f64,
    bounds_hold: bool,
    layers: Layers,
}

/// Sets `W` up from the seed and measures it for `budget` (and for at
/// least `SIM_STEPS` steps), the serial floor read on either side. The
/// first segment also reads the simulated clock and the exact counts
/// after its leading `SIM_STEPS` steps.
fn measure_segment<W: Workload>(
    args: &Args,
    rec: &mut Recorder,
    first_op: u64,
    budget: Duration,
    mut exact: Option<&mut Exact>,
) -> (W, Segment) {
    rec.set_on(args.trace);
    rec.set_op(trace::SETUP_OP);
    let t0 = Instant::now();
    let mut w = W::set_up(args.seed, rec);
    let setup_s = t0.elapsed().as_secs_f64();
    rec.set_on(false);
    let floor_before = w.measure_floor();

    let mut steps = Vec::new();
    let mut failed = 0;
    let deadline = Instant::now() + budget;
    loop {
        let i = steps.len() as u64;
        let traced = args.trace && (i / W::TRACE_BLOCK).is_multiple_of(2);
        rec.set_on(traced);
        rec.set_op(first_op + i);
        let out = w.step(i, rec);
        rec.set_on(false);
        steps.push(StepRecord::new(&out, traced));
        failed += u64::from(out.failed);
        if i + 1 == W::SIM_STEPS {
            if let Some(exact) = exact.as_deref_mut() {
                exact.sim_time_s = w.sim_s();
                exact.bounds_hold = w.exact_counts(&mut exact.layers);
            }
        }
        if i + 1 >= W::SIM_STEPS && (i + 1).is_multiple_of(W::CYCLE) && Instant::now() >= deadline {
            break;
        }
    }
    let floors = [floor_before, w.measure_floor()];
    let segment = Segment {
        setup_s,
        steps,
        failed,
        floors,
    };
    (w, segment)
}

fn run<W: Workload>(args: &Args, prov: &Provenance) -> Outcome {
    let mut rec = Recorder::new();
    let mut notes = Vec::new();
    let mut exact = Exact {
        sim_time_s: 0.0,
        bounds_hold: true,
        layers: Layers::default(),
    };

    // A smoke run is one segment of only the leading fixed steps.
    let (count, seconds) = if args.smoke {
        (1, 0.0)
    } else {
        (SEGMENTS, args.seconds)
    };
    let budget = Duration::from_secs_f64(seconds / count as f64);
    let mut segments: Vec<Segment> = Vec::new();
    let mut last: Option<W> = None;
    for k in 0..count {
        // The previous set-up's state goes before the next one is timed.
        drop(last.take());
        let first_op = segments.iter().map(|s| s.steps.len() as u64).sum();
        let first = (k == 0).then_some(&mut exact);
        let (w, segment) = measure_segment::<W>(args, &mut rec, first_op, budget, first);
        last = Some(w);
        segments.push(segment);
    }
    let mut w = last.expect("at least one segment");
    let Exact {
        sim_time_s,
        bounds_hold,
        mut layers,
    } = exact;
    if !bounds_hold {
        notes.push("layout exceeds its message bound (pr + pc - 2 on 2D)".to_string());
    }

    let attempted: u64 = segments.iter().map(Segment::ops).sum();
    let failed: u64 = segments.iter().map(|s| s.failed).sum();
    let summary = measure::summarize(&segments, W::CYCLE as usize);
    let mut correct = failed == 0 && bounds_hold;
    let metrics: Vec<(&'static MetricDef, f64)> = if args.trace {
        let spans = trace::summarize(&rec.spans);
        layers.set("graph.csr_floor_ns_per_nnz", summary.floor.csr_ns_per_nnz);
        layers.set("harness.op_samples", summary.untraced_ms.len() as f64);
        layers.set("harness.ops_verified", attempted as f64);
        if p99_reportable(summary.untraced_ms.len()) {
            layers.set("harness.op_p99_ms", quantile(&summary.untraced_ms, 0.99));
        }
        layers.set("obs.harness_trace_overhead_ratio", summary.trace_overhead);
        layers.set("obs.unattributed_ratio", spans.unattributed_ratio());
        if spans.unattributed_ratio() > MAX_UNATTRIBUTED {
            correct = false;
            notes.push(format!(
                "harness self time is {:.1}% of the traced ops' wall (limit {:.0}%)",
                spans.unattributed_ratio() * 100.0,
                MAX_UNATTRIBUTED * 100.0
            ));
        }
        w.layer_metrics(&rec, &mut layers);
        let values: Vec<(&'static MetricDef, f64)> =
            PER_LAYER.iter().map(|m| (m, layers.get(m.name))).collect();
        write_trace_files(args, prov, &rec, &values, &mut notes);
        values
    } else {
        if let Some(p) = highest_reportable_tail(summary.untraced_ms.len()) {
            notes.push(format!(
                "op p{} = {:.4} ms over all {} samples (highest percentile with at least ten beyond it)",
                p * 100.0,
                quantile(&summary.untraced_ms, p),
                summary.untraced_ms.len()
            ));
        }
        notes.push(format!(
            "over all samples: op p50 {:.4} ms; quietest of {} windows is reported",
            median(&summary.untraced_ms),
            summary.windows
        ));
        notes.push(format!(
            "floor (quietest of {} readings): csr {:.3} ns/nnz, unit {:.4} ms",
            2 * segments.len(),
            summary.floor.csr_ns_per_nnz,
            summary.floor.unit_s * 1e3
        ));
        for (k, s) in segments.iter().enumerate() {
            notes.push(format!(
                "segment {k}: set-up {:.3} s, {} ops at {:.2} ops/s, floor unit {:.4} / {:.4} ms",
                s.setup_s,
                s.ops(),
                s.ops() as f64 / s.timed_wall_s(),
                s.floors[0].unit_s * 1e3,
                s.floors[1].unit_s * 1e3
            ));
        }
        let value = |name: &str| match name {
            "setup_s" => summary.setup_s,
            "op_p50_ms" => summary.op_p50_ms,
            "ops_per_s" => summary.ops_per_s,
            "sim_overhead_ratio" => summary.over_floor,
            "sim_time_s" => sim_time_s,
            "peak_mib" => rec.peak_timed_mib(),
            other => unreachable!("no measurement for end-to-end metric {other}"),
        };
        END_TO_END.iter().map(|m| (m, value(m.name))).collect()
    };
    notes.push(format!(
        "{} ops in {} steps over {} segment(s), {:.3} s timed",
        attempted,
        segments.iter().map(|s| s.steps.len()).sum::<usize>(),
        segments.len(),
        segments.iter().map(Segment::timed_wall_s).sum::<f64>()
    ));
    if metrics.iter().any(|(_, v)| !v.is_finite()) {
        correct = false;
        notes.push("a metric is not finite".to_string());
    }
    Outcome {
        metrics,
        attempted,
        failed,
        correct,
        notes,
    }
}

fn provenance_value(args: &Args, prov: &Provenance) -> Value {
    obj(vec![
        ("workload", text(&args.workload)),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("git_rev", text(&prov.git_rev)),
        ("dirty", Value::Bool(prov.dirty)),
        ("nproc", Value::U64(prov.nproc as u64)),
        ("thread_budget", Value::U64(1)),
        ("rustc", text(&prov.rustc)),
        (
            "caveats",
            Value::Seq(prov.caveats().into_iter().map(text).collect()),
        ),
    ])
}

fn metrics_value(metrics: &[(&'static MetricDef, f64)]) -> Vec<(String, Value)> {
    metrics
        .iter()
        .map(|(m, v)| {
            (
                m.name.to_string(),
                obj(vec![("value", Value::F64(*v)), ("unit", text(m.unit))]),
            )
        })
        .collect()
}

/// Writes the Chrome trace and `layers.json`; a failure to write is a
/// note, not a failed run.
fn write_trace_files(
    args: &Args,
    prov: &Provenance,
    rec: &Recorder,
    metrics: &[(&'static MetricDef, f64)],
    notes: &mut Vec<String>,
) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(&args.workload);
    let mut layers = trace::layers_json(&rec.spans, metrics_value(metrics));
    if let Value::Map(entries) = &mut layers {
        entries.insert(0, ("provenance".to_string(), provenance_value(args, prov)));
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let trace = trace::chrome_trace(&rec.spans);
        std::fs::write(dir.join("trace.json"), render(&trace) + "\n")?;
        std::fs::write(dir.join("layers.json"), render(&layers) + "\n")
    });
    match written {
        Ok(()) => notes.push(format!(
            "{} spans -> {}/{{trace,layers}}.json",
            rec.spans.len(),
            dir.display()
        )),
        Err(e) => notes.push(format!("could not write trace files: {e}")),
    }
}

fn main() {
    let (args, runner) = parse_args();
    // Every end-to-end number is single-threaded; the layout builder
    // reads its thread budget from the environment.
    std::env::set_var("SF2D_THREADS", "1");
    let prov = Provenance::collect();

    println!(
        "# sf2d benchmark: workload={} seed={} seconds={} trace={}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );
    println!(
        "# git_rev={}{} nproc={} thread_budget=1 rustc=\"{}\"",
        prov.git_rev,
        if prov.dirty { "+dirty" } else { "" },
        prov.nproc,
        prov.rustc
    );
    for caveat in prov.caveats() {
        println!("# NOT A RESULT: {caveat}");
    }

    let outcome = runner(&args, &prov);

    for (m, v) in &outcome.metrics {
        println!("{:<36} {:>18.6} {}", m.name, v, m.unit);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# verified {} ops, {} failed (failed_ratio {})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let line = obj(vec![
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        ("metrics", Value::Map(metrics_value(&outcome.metrics))),
    ]);
    println!("{}", render(&line));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogued_workload_has_a_runner() {
        let runners: Vec<&str> = RUNNERS.iter().map(|(name, _)| *name).collect();
        let catalogued: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(runners, catalogued);
    }
}
