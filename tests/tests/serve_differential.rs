//! The serving differential battery: every answer the resident
//! [`Engine`] produces — batched, budgeted, on a current or a freshly
//! patched plan — must be **bitwise equal** to a from-scratch one-shot
//! [`sf2d_spmv::spmv`] of the same query against the same matrix.
//!
//! The sweep crosses batch widths {1, 3, 16} × p ∈ {1, 4, 16, 64} × all
//! six layouts × three generator families (R-MAT, Chung–Lu,
//! Erdős–Rényi). On top of the per-reply bits, each cell demands
//! **ledger/phase-shape identity**: the engine's billed history must
//! equal, superstep for superstep and bit for bit, a hand-rolled oracle
//! that chunks the same queries into the same SpMM batches — the engine
//! adds no hidden cost and loses no billed phase. Dedicated tests below
//! pin the current-plan vs patched-plan paths (same bits either way),
//! mutations landing between `multiply`/`multiply_summa` calls and
//! between chaos-mode batches, and the budgeted wave-scheduled cell.

use sf2d_core::prelude::*;
use sf2d_core::sf2d_gen::{chung_lu, erdos_renyi, powerlaw_degrees, rmat, RmatConfig};
use sf2d_graph::CsrMatrix;
use sf2d_serve::{Engine, EngineConfig};
use std::sync::Arc;

const PROCS: [usize; 4] = [1, 4, 16, 64];
const BATCHES: [usize; 3] = [1, 3, 16];
const SEED: u64 = 0;
const NQUERIES: usize = 7;

fn queries_for(n: usize) -> Vec<Vec<f64>> {
    (0..NQUERIES)
        .map(|q| {
            (0..n)
                .map(|i| ((i * (q + 3) + 2 * q) % 11) as f64 - 5.0)
                .collect()
        })
        .collect()
}

/// One-shot oracle: a fresh distributed spmv of `x`, no engine anywhere.
fn one_shot(dm: &DistCsrMatrix, x: &[f64]) -> Vec<f64> {
    let xd = DistVector::from_global(Arc::clone(&dm.vmap), x);
    let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
    spmv(dm, &xd, &mut y, &mut CostLedger::new(Machine::cab()));
    y.to_global()
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
    let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
    assert_eq!(gb, wb, "{what}");
}

/// One differential cell: an engine at (`method`, `p`, `max_batch`)
/// versus the one-shot spmv oracle per reply, and versus a hand-batched
/// spmm oracle for the ledger phase shape.
fn check_cell(a: &CsrMatrix, dm: &DistCsrMatrix, want: &[Vec<f64>], method: Method, p: usize) {
    let queries = queries_for(a.nrows());
    for max_batch in BATCHES {
        let label = format!("{} p={p} batch={max_batch}", method.name());
        let cfg = EngineConfig::new(method, p)
            .with_seed(SEED)
            .with_max_batch(max_batch);
        let mut engine = Engine::new(a, cfg);
        let ids: Vec<u64> = queries.iter().map(|q| engine.submit(q.clone())).collect();
        let replies = engine.flush();
        assert_eq!(replies.len(), queries.len(), "{label}: reply count");
        for (reply, (id, w)) in replies.iter().zip(ids.iter().zip(want)) {
            assert_eq!(reply.id, *id, "{label}: submission order");
            assert_bits_eq(
                &reply.y,
                w,
                &format!("{label}: reply {id} vs one-shot spmv"),
            );
        }
        let nbatches = queries.len().div_ceil(max_batch) as u64;
        assert_eq!(engine.metrics.batches, nbatches, "{label}: batch count");
        assert_eq!(engine.metrics.cache_misses, 1, "{label}: warm plan only");
        assert_eq!(engine.metrics.cache_hits, nbatches, "{label}: all hits");

        // Ledger/phase-shape identity: chunk the same queries into the
        // same batches by hand and bill them on a fresh workspace. The
        // engine's history must match superstep-for-superstep.
        let mut ledger = CostLedger::new(Machine::cab());
        let mut ws = SpmvWorkspace::with_threads(1);
        for chunk in queries.chunks(max_batch) {
            let x = DistMultiVector::from_columns(Arc::clone(&dm.vmap), chunk);
            let mut y = DistMultiVector::zeros(Arc::clone(&dm.vmap), chunk.len());
            spmm_with(dm, &x, &mut y, &mut ledger, &mut ws);
        }
        assert_eq!(
            engine.ledger.history, ledger.history,
            "{label}: phase shape"
        );
        assert_eq!(
            engine.ledger.total.to_bits(),
            ledger.total.to_bits(),
            "{label}: ledger total bits"
        );
    }
}

fn sweep(a: &CsrMatrix) {
    let queries = queries_for(a.nrows());
    for p in PROCS {
        for method in Method::spmv_set(false) {
            // The oracle derives the layout exactly as the engine does:
            // same matrix, same seed, same LayoutBuilder.
            let dist = LayoutBuilder::new(a, SEED).dist(method, p);
            let dm = DistCsrMatrix::from_global(a, &dist);
            let want: Vec<Vec<f64>> = queries.iter().map(|q| one_shot(&dm, q)).collect();
            check_cell(a, &dm, &want, method, p);
        }
    }
}

#[test]
fn rmat_replies_match_one_shot_spmv_on_all_layouts_procs_and_batches() {
    sweep(&rmat(&RmatConfig::graph500(7), 11));
}

#[test]
fn chung_lu_replies_match_one_shot_spmv_on_all_layouts_procs_and_batches() {
    let degs = powerlaw_degrees(160, 2.2, 2, 40, 5);
    sweep(&chung_lu(&degs, 500, 0, 0.0, 5));
}

#[test]
fn erdos_renyi_replies_match_one_shot_spmv_on_all_layouts_procs_and_batches() {
    sweep(&erdos_renyi(150, 450, 13));
}

/// The two plan-resolution paths answer with the same bits: a hit (the
/// plan is current), then a mutation forcing the miss path that patches
/// it in place, then a hit on the patched plan — each compared to its
/// own from-scratch oracle.
#[test]
fn cache_hit_and_cache_miss_paths_are_bitwise_identical() {
    let a = rmat(&RmatConfig::graph500(7), 11);
    let queries = queries_for(a.nrows());
    let cfg = EngineConfig::new(Method::TwoDGp, 16)
        .with_seed(SEED)
        .with_max_batch(4)
        .with_auto_repartition(false);
    let mut engine = Engine::new(&a, cfg);

    // Hit path: the construction-time plan serves the batch.
    let got = engine.query(&queries[0]);
    assert_eq!(engine.metrics.cache_hits, 1);
    let dist = LayoutBuilder::new(&a, SEED).dist(Method::TwoDGp, 16);
    let dm = DistCsrMatrix::from_global(&a, &dist);
    assert_bits_eq(&got, &one_shot(&dm, &queries[0]), "hit path");

    // Miss path: a mutation bumps the epoch; the next batch patches the
    // plan.
    let (i, mut j) = (0u32, 1u32);
    while engine.has_edge(i, j) {
        j += 1;
    }
    assert!(engine.insert_edge(i, j, 3.25));
    assert!(engine.active_is_stale());
    let misses = engine.metrics.cache_misses;
    let got = engine.query(&queries[1]);
    assert_eq!(
        engine.metrics.cache_misses,
        misses + 1,
        "took the miss path"
    );
    let mutated = engine.global_matrix();
    let dm = DistCsrMatrix::from_global(&mutated, &dist);
    assert_bits_eq(&got, &one_shot(&dm, &queries[1]), "miss path");

    // Hit on the patched plan: same bits as the miss that patched it.
    let hits = engine.metrics.cache_hits;
    let again = engine.query(&queries[1]);
    assert_eq!(engine.metrics.cache_hits, hits + 1, "took the hit path");
    assert_bits_eq(&again, &got, "hit after miss");
}

/// Mutations between repeated multiplies and between chaos-mode batches:
/// both SpGEMM kernels read `blocks`/`import`/`export` of the patched
/// plan, the chaos wire reads its compiled schedule, and each must see
/// exactly what a from-scratch FillComplete of the mutated matrix gives.
#[test]
fn mutations_between_multiplies_and_chaos_batches_match_rebuilt_oracles() {
    let a = rmat(&RmatConfig::graph500(7), 11);
    let queries = queries_for(a.nrows());
    let n = a.nrows() as u32;
    for method in [Method::TwoDGp, Method::OneDRandom] {
        let cfg = EngineConfig::new(method, 16)
            .with_seed(SEED)
            .with_max_batch(3)
            .with_auto_repartition(false);
        let mut engine = Engine::new(&a, cfg);
        let dist = LayoutBuilder::new(&a, SEED).dist(method, 16);
        let mut rt = ChaosRuntime::seeded(7, 0.3);
        let mut oracle_ledger = CostLedger::new(Machine::cab());
        for round in 0..6u32 {
            // Insert, re-weight, remove, and a diagonal entry, in turn.
            let (i, j) = ((round * 37 + 3) % n, (round * 59 + 10) % n);
            match round % 4 {
                0 | 1 => engine.insert_edge(i, j, 1.5 + round as f64),
                2 => engine.remove_edge((i + n - 37) % n, (j + n - 59) % n),
                _ => engine.insert_edge(i, i, 0.25),
            };
            let mutated = engine.global_matrix();
            let fresh = DistCsrMatrix::from_global(&mutated, &dist);
            let b = mutated.transpose();
            let label = format!("{} round {round}", method.name());

            let want = spgemm_dist(&fresh, &b, &mut oracle_ledger);
            assert_eq!(engine.multiply().locals, want.locals, "{label}: multiply");
            let want_summa = summa_dist(&fresh, &dist, &b, &mut oracle_ledger);
            let got_summa = engine.multiply_summa();
            assert_eq!(got_summa.locals, want_summa.locals, "{label}: summa");
            assert_eq!(got_summa.bcast, want_summa.bcast, "{label}: summa traffic");

            // A mutation between two chaos-mode batches of one stream.
            engine.submit(queries[0].clone());
            engine.submit(queries[1].clone());
            let mut replies = engine.flush_chaos(&mut rt);
            assert!(engine.insert_edge(i, (j + 1) % n, 2.5 + round as f64));
            engine.submit(queries[2].clone());
            replies.extend(engine.flush_chaos(&mut rt));
            let after = DistCsrMatrix::from_global(&engine.global_matrix(), &dist);
            for (reply, (dm, q)) in replies.iter().zip([(&fresh, 0), (&fresh, 1), (&after, 2)]) {
                assert_bits_eq(&reply.y, &one_shot(dm, &queries[q]), &label);
            }
        }
        assert!(rt.stats.any(), "the storm injected faults");
        assert_eq!(engine.metrics.full_compiles, 1, "every epoch was a patch");
    }
}

/// The budgeted cell: a scratch budget small enough to force multi-wave
/// scheduling changes nothing observable — replies and the billed ledger
/// are byte-identical to the unbudgeted engine.
#[test]
fn budgeted_engine_is_bitwise_and_ledger_identical_to_unbudgeted() {
    let a = rmat(&RmatConfig::graph500(7), 11);
    let queries = queries_for(a.nrows());
    let base = EngineConfig::new(Method::TwoDBlock, 6)
        .with_seed(SEED)
        .with_max_batch(3);

    let mut plain = Engine::new(&a, base.clone());
    for q in &queries {
        plain.submit(q.clone());
    }
    let want = plain.flush();

    // 64 KiB is far below the width-3 working set of all six ranks at
    // once, so the wave scheduler must actually split.
    let mut tight = Engine::new(&a, base.with_budget(64 * 1024));
    for q in &queries {
        tight.submit(q.clone());
    }
    let got = tight.flush();
    assert_eq!(got, want, "budgeted replies");
    assert_eq!(
        tight.ledger.history, plain.ledger.history,
        "budgeted phase shape"
    );
    assert_eq!(
        tight.ledger.total.to_bits(),
        plain.ledger.total.to_bits(),
        "budgeted ledger total bits"
    );
}
