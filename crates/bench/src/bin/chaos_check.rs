//! Chaos gate: proves the fault-injection engine's headline guarantees
//! on three published seeds, and writes a recovery-trace artifact.
//!
//! For each `(seed, rate)` below this harness:
//!
//! 1. runs the 100-step SpMV loop (Table 3's iteration count) fault-free
//!    and under injection, and requires the recovered iterate to match
//!    the fault-free bits with the retransmit/recovery surcharge
//!    itemized;
//! 2. re-runs the degraded loop with the threaded chaos transport and
//!    requires the *identical* fault schedule, costs, and bits
//!    (`SF2D_THREADS` independence);
//! 3. solves for the paper's ten largest eigenpairs with the resilient
//!    Krylov–Schur under the same fault plan and requires bit-identical
//!    eigenvalues and Ritz vectors.
//!
//! Artifacts: `chaos_report.jsonl` (one row per seed × cell) and
//! `chaos_recovery_trace.md` (per-seed fault ledger and phase times).
//! Exits nonzero on any failure, so CI can gate on it.

use std::cell::RefCell;
use std::fmt::Write as _;

use sf2d_bench::{write_jsonl, HarnessOpts};
use sf2d_core::experiment::labeled_chaos;
use sf2d_core::prelude::*;
use sf2d_core::report::fmt_secs;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_graph::normalized_laplacian;

/// The published chaos seeds (see README "Resilience & fault injection").
/// Each pairs a seed with a rate; together they cover drop/duplicate/
/// bit-flip/delay mixes, rank stalls, and checkpoint restores.
const PUBLISHED: [(u64, f64); 3] = [(0xC0FFEE, 0.25), (0xDEAD_BEEF, 0.30), (42, 0.15)];

fn main() {
    let opts = HarnessOpts::from_args();
    let a = rmat(&RmatConfig::graph500(9), 6);
    let mut builder = LayoutBuilder::new(&a, 0);
    let dist = builder.dist(Method::TwoDGp, 16);
    let machine = Machine::cab();

    let mut rows = Vec::new();
    let mut trace = String::from("# Chaos recovery trace\n\n");
    let mut failures = 0usize;

    for &(seed, rate) in &PUBLISHED {
        println!("== seed {seed:#x}, rate {rate} ==");
        let _ = writeln!(trace, "## seed {seed:#x}, rate {rate}\n");

        // 1. SpMV loop: recover to gold bits, surcharge itemized.
        let mut rt = ChaosRuntime::seeded(seed, rate);
        let row = labeled_chaos(
            spmv_experiment_chaos(&a, &dist, machine, 100, &mut rt),
            "rmat-s9",
            Method::TwoDGp,
        );
        let ok = row.recovered && row.retransmit_time > 0.0 && row.sim_time > row.gold_time;
        println!(
            "  spmv x100: recovered={} gold={} degraded={} (retransmit {}, recovery {})",
            row.recovered,
            fmt_secs(row.gold_time),
            fmt_secs(row.sim_time),
            fmt_secs(row.retransmit_time),
            fmt_secs(row.recovery_time),
        );
        let _ = writeln!(
            trace,
            "- spmv loop: {} drops, {} duplicates, {} bit-flips, {} delays, {} stalls, \
             {} crashes; {} extra msgs / {} extra bytes retransmitted; \
             retransmit {}, recovery {}, recovered: **{}**",
            row.drops,
            row.duplicates,
            row.bit_flips,
            row.delays,
            row.stalls,
            row.crashes,
            row.retransmit_msgs,
            row.retransmit_bytes,
            fmt_secs(row.retransmit_time),
            fmt_secs(row.recovery_time),
            row.recovered,
        );
        failures += usize::from(!ok);

        // 2. Same plan through the threaded transport: identical schedule.
        let mut rt_thr = ChaosRuntime::seeded(seed, rate).with_threads(8);
        let row_thr = spmv_experiment_chaos(&a, &dist, machine, 100, &mut rt_thr);
        let same = row_thr.sim_time.to_bits() == row.sim_time.to_bits()
            && rt_thr.stats == rt.stats
            && row_thr.recovered;
        println!("  threaded transport: bit-identical schedule = {same}");
        let _ = writeln!(trace, "- threaded transport bit-identical: **{same}**");
        failures += usize::from(!same);
        rows.push(row);

        // 3. Ten largest eigenpairs under the same plan, bit-for-bit.
        let l = normalized_laplacian(&a).unwrap();
        let ldist = LayoutBuilder::new(&l, 0).dist(Method::TwoDBlock, 4);
        let dm = DistCsrMatrix::from_global(&l, &ldist);
        let cfg = KrylovSchurConfig::paper(1);
        let mut led_gold = CostLedger::new(machine);
        let gold = krylov_schur_largest(&PlainSpmvOp::new(dm.clone()), &cfg, &mut led_gold);
        let rt = RefCell::new(ChaosRuntime::seeded(seed, rate));
        let op = ChaosSpmvOp::new(&dm, &rt);
        let mut ledger = CostLedger::new(machine);
        let res = krylov_schur_largest_resilient(&op, &cfg, &mut ledger, &rt);
        let bits_ok = res.values == gold.values
            && res
                .vectors
                .iter()
                .zip(&gold.vectors)
                .all(|(v, w)| v.locals == w.locals);
        let stats = rt.borrow().stats;
        println!(
            "  krylov-schur nev=10: bit-identical={} ({} applies vs {} gold, {} crashes)",
            bits_ok, res.op_applies, gold.op_applies, stats.crashes
        );
        let _ = writeln!(
            trace,
            "- krylov-schur (nev=10): bit-identical **{bits_ok}**, {} op applies \
             (gold {}), {} crashes recovered, solve {} (gold {})\n",
            res.op_applies,
            gold.op_applies,
            stats.crashes,
            fmt_secs(ledger.total),
            fmt_secs(led_gold.total),
        );
        failures += usize::from(!bits_ok);
    }

    let out = opts.out_file("chaos_report.jsonl");
    let _ = std::fs::remove_file(&out);
    write_jsonl(&out, &rows);
    let trace_path = opts.out_file("chaos_recovery_trace.md");
    std::fs::write(&trace_path, &trace).expect("write recovery trace");
    println!();
    println!("report -> {}", out.display());
    println!("trace  -> {}", trace_path.display());

    if failures > 0 {
        eprintln!("chaos_check: {failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!(
        "chaos_check: all checks passed on {} seeds",
        PUBLISHED.len()
    );
}
