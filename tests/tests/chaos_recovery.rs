//! The chaos battery: workspace-level properties of the fault-injection
//! engine (see `crates/chaos` and `sf2d_sim::fault`).
//!
//! * **Identity** — chaos at rate 0 is byte-identical to the plain
//!   runtime: same delivered values, same ledger totals, same superstep
//!   count, for sequential and threaded transports at p ∈ {4, 16, 64}.
//! * **Determinism** — a fixed (seed, rate) produces the identical fault
//!   schedule, costs, and recovered results for any transport thread
//!   count (the `SF2D_THREADS` independence guarantee).
//! * **Recovery** — a scripted drop + rank crash into the Table 3 SpMV
//!   cell recovers output matching the fault-free gold byte-for-byte,
//!   with the retransmission surcharge visible in the ledger's phase
//!   breakdown.
//! * **Serving** — the resident engine's batches ride the same chaos
//!   wire: rate 0 is byte-identical (replies *and* ledger) on the new
//!   spmv expand/fold wire paths, and a scripted drop + crash mid-batch
//!   heals to the fault-free bits with the crash replay itemized.

use std::sync::Arc;

use sf2d_core::prelude::*;
use sf2d_gen::{rmat, RmatConfig};
use sf2d_serve::{Engine, EngineConfig};
use sf2d_sim::sf2d_chaos::{FaultKind, FaultScript};
use sf2d_sim::{ChaosRuntime, Phase};
use sf2d_spmv::reference::spmv_ref;

fn dist_matrix(p: usize) -> DistCsrMatrix {
    let a = rmat(&RmatConfig::graph500(8), 3);
    let dist = LayoutBuilder::new(&a, 0).dist(Method::TwoDBlock, p);
    DistCsrMatrix::from_global(&a, &dist)
}

#[test]
fn rate_zero_spmv_is_byte_identical_to_plain_for_all_p() {
    for p in [4usize, 16, 64] {
        let dm = dist_matrix(p);
        let x = DistVector::random(Arc::clone(&dm.vmap), 5);
        let mut y_plain = DistVector::zeros(Arc::clone(&dm.vmap));
        let mut led_plain = CostLedger::new(Machine::cab());
        spmv_ref(&dm, &x, &mut y_plain, &mut led_plain);

        for threads in [1usize, 8] {
            let mut rt = ChaosRuntime::seeded(0xFEED, 0.0).with_threads(threads);
            let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
            let mut ledger = CostLedger::new(Machine::cab());
            spmv_chaos(&dm, &x, &mut y, &mut ledger, &mut rt);
            assert_eq!(y.locals, y_plain.locals, "p={p} threads={threads}");
            assert_eq!(
                ledger.total.to_bits(),
                led_plain.total.to_bits(),
                "p={p} threads={threads}"
            );
            assert_eq!(ledger.steps, led_plain.steps, "p={p} threads={threads}");
            assert_eq!(
                ledger.by_phase, led_plain.by_phase,
                "p={p} threads={threads}"
            );
            assert!(!rt.stats.any(), "rate 0 must inject nothing");
        }
    }
}

#[test]
fn fixed_seed_and_rate_is_schedule_identical_across_thread_counts() {
    // The determinism guarantee: the fault schedule is a pure function of
    // (seed, coordinates), so transport threading — the knob SF2D_THREADS
    // turns — cannot shift a single fault, cost, or output bit.
    let dm = dist_matrix(16);
    let x0 = DistVector::random(Arc::clone(&dm.vmap), 9);

    let mut gold_led = CostLedger::new(Machine::cab());
    let gold = power_iterate(&dm, &x0, 30, &mut gold_led);

    let mut reference: Option<(Vec<Vec<f64>>, u64, usize, sf2d_sim::sf2d_chaos::FaultStats)> = None;
    for threads in [1usize, 2, 8] {
        let mut rt = ChaosRuntime::seeded(0xC0FFEE, 0.25).with_threads(threads);
        let mut ledger = CostLedger::new(Machine::cab());
        let got = power_iterate_chaos(&dm, &x0, 30, &mut ledger, &mut rt);
        assert_eq!(
            got.locals, gold.locals,
            "threads={threads} must recover gold"
        );
        let total_bits = ledger.total.to_bits();
        match &reference {
            None => reference = Some((got.locals, total_bits, ledger.steps, rt.stats)),
            Some((locals, bits, steps, stats)) => {
                assert_eq!(&got.locals, locals, "threads={threads}");
                assert_eq!(total_bits, *bits, "threads={threads}");
                assert_eq!(ledger.steps, *steps, "threads={threads}");
                assert_eq!(&rt.stats, stats, "threads={threads}");
            }
        }
    }
}

#[test]
fn golden_recovery_scripted_drop_and_crash_into_table3_cell() {
    // The Table 3 cell: 2D-GP layout, 100-iteration SpMV loop. Script one
    // message drop into the very first expand superstep plus a rank crash
    // at iteration 5, and require byte-for-byte recovery with the
    // surcharge itemized in the phase breakdown.
    let a = rmat(&RmatConfig::graph500(8), 3);
    let dist = LayoutBuilder::new(&a, 0).dist(Method::TwoDGp, 16);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let x0 = DistVector::random(Arc::clone(&dm.vmap), 7);

    let mut gold_led = CostLedger::new(Machine::cab());
    let gold = power_iterate(&dm, &x0, 100, &mut gold_led);

    let (src, dst) = dm
        .import
        .sends
        .iter()
        .enumerate()
        .find_map(|(r, out)| out.first().map(|(d, _)| (r as u32, *d)))
        .expect("2D-GP expand moves something at p=16");
    let script = FaultScript::default()
        .fault(0, src, dst, 0, FaultKind::Drop)
        .crash(5);
    let mut rt = ChaosRuntime::scripted(script);
    let mut ledger = CostLedger::new(Machine::cab());
    let got = power_iterate_chaos(&dm, &x0, 100, &mut ledger, &mut rt);

    assert_eq!(
        got.locals, gold.locals,
        "recovered output != fault-free gold"
    );
    assert_eq!(rt.stats.drops, 1);
    assert_eq!(rt.stats.crashes, 1);

    // The surcharge is visible — and exclusive: every other phase's
    // share matches the gold breakdown except for the replayed work.
    let breakdown = ledger.phase_breakdown();
    let retransmit = breakdown
        .iter()
        .find(|(ph, _)| *ph == Phase::Retransmit)
        .map(|(_, t)| *t)
        .expect("retransmit phase present in breakdown");
    assert!(retransmit > 0.0);
    let recovery = breakdown
        .iter()
        .find(|(ph, _)| *ph == Phase::Recovery)
        .map(|(_, t)| *t)
        .expect("recovery phase present in breakdown");
    assert!(recovery > 0.0);
    assert!(gold_led
        .phase_breakdown()
        .iter()
        .all(|(ph, _)| *ph != Phase::Retransmit && *ph != Phase::Recovery));
    assert!(ledger.total > gold_led.total);
}

#[test]
fn experiment_row_reports_the_surcharge() {
    // The core-level driver seen by the table3 harness: rate 0 is free
    // and bit-equal; a seeded run recovers with honest accounting.
    let a = rmat(&RmatConfig::graph500(7), 4);
    let dist = LayoutBuilder::new(&a, 0).dist(Method::TwoDGp, 16);

    let mut rt = ChaosRuntime::seeded(3, 0.0);
    let row = spmv_experiment_chaos(&a, &dist, Machine::cab(), 50, &mut rt);
    assert!(row.recovered);
    assert_eq!(row.sim_time.to_bits(), row.gold_time.to_bits());
    assert_eq!(row.retransmit_msgs, 0);

    let mut rt = ChaosRuntime::seeded(3, 0.3);
    let row = spmv_experiment_chaos(&a, &dist, Machine::cab(), 50, &mut rt);
    assert!(row.recovered);
    assert!(row.retransmit_time > 0.0);
    assert!(row.retransmit_bytes > 0);
    assert!(row.sim_time > row.gold_time);
}

#[test]
fn golden_recovery_scripted_drop_into_spgemm_exchange() {
    // The SpGEMM analogue of the Table 3 recovery cell: script a drop
    // into the product's expand exchange (routing step 0) and a
    // corruption into its fold exchange (step 1), and require the
    // recovered C to match the fault-free bits with the surcharge billed.
    let a = rmat(&RmatConfig::graph500(8), 3);
    let dist = LayoutBuilder::new(&a, 0).dist(Method::TwoDGp, 16);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let b = a.transpose();

    let mut gold_led = CostLedger::new(Machine::cab());
    let gold = spgemm_dist(&dm, &b, &mut gold_led);

    let (src, dst) = dm
        .import
        .sends
        .iter()
        .enumerate()
        .find_map(|(r, out)| out.first().map(|(d, _)| (r as u32, *d)))
        .expect("2D-GP expand moves something at p=16");
    let (fsrc, fdst) = dm
        .export
        .recvs
        .iter()
        .enumerate()
        .find_map(|(r, inbound)| inbound.first().map(|(o, _)| (r as u32, *o)))
        .expect("2D-GP fold moves something at p=16");
    let script = FaultScript::default()
        .fault(0, src, dst, 0, FaultKind::Drop)
        .fault(1, fsrc, fdst, 0, FaultKind::BitFlip);
    let mut rt = ChaosRuntime::scripted(script);
    let mut ledger = CostLedger::new(Machine::cab());
    let got = spgemm_chaos(&dm, &b, &mut ledger, &mut rt);

    assert_eq!(got.locals, gold.locals, "recovered C != fault-free gold");
    for (g, c) in gold.locals.iter().zip(&got.locals) {
        let gb: Vec<u64> = g.values().iter().map(|v| v.to_bits()).collect();
        let cb: Vec<u64> = c.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, cb, "value bits must survive recovery");
    }
    assert_eq!(rt.stats.drops, 1);
    assert_eq!(rt.stats.bit_flips, 1);
    assert!(
        ledger
            .phase_breakdown()
            .iter()
            .any(|(ph, t)| *ph == Phase::Retransmit && *t > 0.0),
        "retransmit surcharge must be itemized"
    );
    assert!(ledger.total > gold_led.total);

    // And at rate 0 the chaos path stays byte-identical, ledger included.
    let mut rt = ChaosRuntime::seeded(5, 0.0);
    let mut l0 = CostLedger::new(Machine::cab());
    let clean = spgemm_chaos(&dm, &b, &mut l0, &mut rt);
    assert_eq!(clean.locals, gold.locals);
    assert_eq!(l0.total.to_bits(), gold_led.total.to_bits());
    assert_eq!(l0.history, gold_led.history);
}

fn serve_queries(n: usize) -> Vec<Vec<f64>> {
    (0..6)
        .map(|q| {
            (0..n)
                .map(|i| ((i * (q + 2) + q) % 9) as f64 - 4.0)
                .collect()
        })
        .collect()
}

/// Fault-free serving gold: replies + ledger from a plain flush.
fn serve_gold(
    a: &sf2d_graph::CsrMatrix,
    cfg: &EngineConfig,
) -> (Vec<sf2d_serve::ServeReply>, CostLedger) {
    let mut engine = Engine::new(a, cfg.clone());
    for q in serve_queries(a.nrows()) {
        engine.submit(q);
    }
    let replies = engine.flush();
    (replies, engine.ledger)
}

#[test]
fn serve_rate_zero_is_byte_identical_on_the_new_wire_paths() {
    // The serving frontend routes every batch's expand *and* fold
    // exchange through the chaos wire — new wire paths this PR adds to
    // the spmv executor. Rate 0 must be byte-identical to the plain
    // flush: same reply bits, same phase history, same ledger total, for
    // several rank counts and transport thread counts.
    let a = rmat(&RmatConfig::graph500(8), 3);
    for p in [4usize, 16, 64] {
        let cfg = EngineConfig::new(Method::TwoDBlock, p).with_max_batch(4);
        let (want, gold_led) = serve_gold(&a, &cfg);
        for threads in [1usize, 8] {
            let mut rt = ChaosRuntime::seeded(0xFEED, 0.0).with_threads(threads);
            let mut engine = Engine::new(&a, cfg.clone());
            for q in serve_queries(a.nrows()) {
                engine.submit(q);
            }
            let got = engine.flush_chaos(&mut rt);
            assert_eq!(got, want, "p={p} threads={threads}: replies");
            assert_eq!(
                engine.ledger.history, gold_led.history,
                "p={p} threads={threads}: phase history"
            );
            assert_eq!(
                engine.ledger.total.to_bits(),
                gold_led.total.to_bits(),
                "p={p} threads={threads}: ledger total"
            );
            assert!(!rt.stats.any(), "rate 0 must inject nothing");
            assert_eq!(engine.metrics.crash_replays, 0);
        }
    }
}

#[test]
fn serve_scripted_drop_and_crash_mid_batch_heal_to_fault_free_bits() {
    // Script a drop into the first serving batch's expand exchange
    // (routing step 0) and crash that same batch (chaos-batch 0): the
    // batch replays from the retained queue, and every reply still
    // matches the fault-free gold bit-for-bit, with Retransmit and
    // Recovery itemized in the breakdown.
    let a = rmat(&RmatConfig::graph500(8), 3);
    let cfg = EngineConfig::new(Method::TwoDGp, 16).with_max_batch(3);
    let (want, gold_led) = serve_gold(&a, &cfg);

    let mut engine = Engine::new(&a, cfg);
    let (src, dst) = engine
        .active()
        .import
        .sends
        .iter()
        .enumerate()
        .find_map(|(r, out)| out.first().map(|(d, _)| (r as u32, *d)))
        .expect("2D-GP expand moves something at p=16");
    let script = FaultScript::default()
        .fault(0, src, dst, 0, FaultKind::Drop)
        .crash(0);
    let mut rt = ChaosRuntime::scripted(script);
    for q in serve_queries(a.nrows()) {
        engine.submit(q);
    }
    let got = engine.flush_chaos(&mut rt);
    assert_eq!(got, want, "healed replies != fault-free gold");
    assert_eq!(rt.stats.drops, 1);
    assert_eq!(rt.stats.crashes, 1);
    assert_eq!(engine.metrics.crash_replays, 1);
    let breakdown = engine.ledger.phase_breakdown();
    assert!(
        breakdown
            .iter()
            .any(|(ph, t)| *ph == Phase::Retransmit && *t > 0.0),
        "retransmit surcharge must be itemized"
    );
    assert!(
        breakdown
            .iter()
            .any(|(ph, t)| *ph == Phase::Recovery && *t > 0.0),
        "crash-replay restore must be itemized"
    );
    assert!(engine.ledger.total > gold_led.total);
}

#[test]
fn serve_seeded_faults_heal_identically_across_thread_counts() {
    // A seeded fault storm over the whole serving flush: every reply
    // heals to the fault-free bits, and the entire outcome — replies,
    // billed history, fault schedule — is a pure function of (seed, rate)
    // regardless of transport threads.
    let a = rmat(&RmatConfig::graph500(8), 3);
    let cfg = EngineConfig::new(Method::TwoDGp, 16).with_max_batch(4);
    let (want, gold_led) = serve_gold(&a, &cfg);

    let mut reference: Option<(
        Vec<sf2d_serve::ServeReply>,
        u64,
        sf2d_sim::sf2d_chaos::FaultStats,
    )> = None;
    for threads in [1usize, 2, 8] {
        let mut rt = ChaosRuntime::seeded(0xC0FFEE, 0.3).with_threads(threads);
        let mut engine = Engine::new(&a, cfg.clone());
        for q in serve_queries(a.nrows()) {
            engine.submit(q);
        }
        let got = engine.flush_chaos(&mut rt);
        assert_eq!(got, want, "threads={threads} must heal to gold");
        assert!(rt.stats.any(), "rate 0.3 should inject something");
        assert!(engine.ledger.total > gold_led.total);
        let bits = engine.ledger.total.to_bits();
        match &reference {
            None => reference = Some((got, bits, rt.stats)),
            Some((g, b, stats)) => {
                assert_eq!(&got, g, "threads={threads}: replies");
                assert_eq!(bits, *b, "threads={threads}: ledger bits");
                assert_eq!(&rt.stats, stats, "threads={threads}: fault schedule");
            }
        }
    }
}

/// What a seeded run leaves behind: the fault counters in declaration
/// order, the ledger's superstep count and total bits, and the chaos
/// runtime's next routing step.
fn golden_cell(rt: &ChaosRuntime, ledger: &CostLedger) -> ([u64; 8], usize, u64, u64) {
    let s = &rt.stats;
    (
        [
            s.drops,
            s.duplicates,
            s.bit_flips,
            s.delays,
            s.stalls,
            s.crashes,
            s.retransmit_msgs,
            s.retransmit_bytes,
        ],
        ledger.steps,
        ledger.total.to_bits(),
        rt.step(),
    )
}

#[test]
fn golden_seeded_cells_pin_every_fault_coordinate() {
    // Recovery tests pass whatever the schedule, because every fault
    // heals. These cells were recorded at 4a87a35 and fail when a message
    // changes its (step, src, dst, seq) coordinate or its payload length:
    // a different draw moves the counters and the billed total.
    let a = rmat(&RmatConfig::graph500(8), 3);
    let mut builder = LayoutBuilder::new(&a, 0);
    let seeded = || ChaosRuntime::seeded(0xC0FFEE, 0.25);

    let mut power = |method: Method| {
        let dm = DistCsrMatrix::from_global(&a, &builder.dist(method, 16));
        let x0 = DistVector::random(Arc::clone(&dm.vmap), 7);
        let (mut rt, mut ledger) = (seeded(), CostLedger::new(Machine::cab()));
        power_iterate_chaos(&dm, &x0, 30, &mut ledger, &mut rt);
        golden_cell(&rt, &ledger)
    };
    assert_eq!(
        power(Method::TwoDBlock),
        (
            [627, 353, 400, 306, 125, 5, 2407, 130752],
            545,
            0x3f720586fd8aafcc,
            120
        )
    );
    assert_eq!(
        power(Method::OneDRandom),
        (
            [1494, 872, 1093, 821, 125, 5, 6046, 222272],
            524,
            0x3f7c1428abf0b422,
            120
        )
    );

    let dist = builder.dist(Method::TwoDBlock, 16);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    let b = a.transpose();
    let (mut rt, mut ledger) = (seeded(), CostLedger::new(Machine::cab()));
    spgemm_chaos(&dm, &b, &mut ledger, &mut rt);
    assert_eq!(
        golden_cell(&rt, &ledger),
        ([11, 9, 10, 6, 3, 0, 51, 279976], 7, 0x3f2b8b8a14f4e248, 2)
    );
    let (mut rt, mut ledger) = (seeded(), CostLedger::new(Machine::cab()));
    summa_chaos(&dm, &dist, &b, &mut ledger, &mut rt);
    assert_eq!(
        golden_cell(&rt, &ledger),
        (
            [16, 15, 17, 8, 8, 0, 81, 273608],
            29,
            0x3f38939d89c6c656,
            11
        )
    );
}

/// Long soak across a seed × rate grid — not part of tier-1
/// (`cargo test -- --ignored` runs it; CI's chaos job keeps it out of
/// the default suite).
#[test]
#[ignore = "long soak; run with --ignored"]
fn soak_many_seeds_and_rates_always_recover() {
    let dm = dist_matrix(16);
    let x0 = DistVector::random(Arc::clone(&dm.vmap), 1);
    let mut gold_led = CostLedger::new(Machine::cab());
    let gold = power_iterate(&dm, &x0, 60, &mut gold_led);
    for seed in 0..20u64 {
        for &rate in &[0.05, 0.2, 0.35, 0.5] {
            let mut rt = ChaosRuntime::seeded(seed, rate);
            let mut ledger = CostLedger::new(Machine::cab());
            let got = power_iterate_chaos(&dm, &x0, 60, &mut ledger, &mut rt);
            assert_eq!(
                got.locals, gold.locals,
                "seed {seed} rate {rate} failed to recover"
            );
        }
    }
}
