//! The serving property suite: for **random interleavings** of
//! {query, edge insert, edge delete, flush, forced repartition}, the
//! resident [`Engine`] must answer every query bitwise equal to a
//! from-scratch oracle evaluated at the query's submission epoch — and
//! do so for any `SF2D_THREADS`-style thread count, with a byte-identical
//! ledger.
//!
//! The oracle keeps a shadow edge map and a shadow layout basis (the
//! matrix the layout was last derived from — updated only on
//! repartition, exactly the engine's contract) and answers each query by
//! rebuilding everything from scratch: CSR from the shadow edges, layout
//! from `LayoutBuilder::new(basis, seed)`, a fresh [`DistCsrMatrix`],
//! one one-shot [`sf2d_spmv::spmv`]. Matching it pins the three
//! invariants the engine promises: mutations are epoch barriers (a query
//! answers against its submit-time state), plan swaps are atomic (no
//! batch ever mixes epochs), and epochs are monotonic (a plan behind the
//! epoch is never executed). The engine keeps up by patching its
//! resident plan in place; the oracle rebuilding everything is what makes
//! that a checked claim, and `full_compiles == 1 + repartitions` pins
//! that no epoch bump fell back to a rebuild.

use proptest::prelude::*;
use sf2d_core::prelude::*;
use sf2d_core::sf2d_gen::erdos_renyi;
use sf2d_graph::{CooMatrix, CsrMatrix};
use sf2d_serve::{Engine, EngineConfig, ServeReply};
use std::collections::BTreeMap;
use std::sync::Arc;

const SEED: u64 = 0;
const THREADS: [usize; 3] = [1, 2, 8];

#[derive(Debug, Clone)]
enum Op {
    /// Submit query vector `k` (answered at the *current* epoch, whenever
    /// the batch actually executes).
    Query(usize),
    /// Set edge `(i, j)` (and `(j, i)`) to weight `w`.
    Insert(u32, u32, f64),
    /// Delete edge `(i, j)` (and `(j, i)`) if present.
    Remove(u32, u32),
    /// Drain the queue into batches now.
    Flush,
    /// Force a layout rebuild + atomic plan swap.
    Repartition,
}

/// Weighted op mix (the vendored proptest shim has no `prop_oneof!`, so
/// the weights live in a selector range): 4/12 query, 3/12 insert, 2/12
/// remove, 2/12 flush, 1/12 repartition.
fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
    (0u32..12, 0u32..n, 0u32..n, 1u32..6, 0usize..4).prop_map(|(sel, i, j, w, k)| match sel {
        0..=3 => Op::Query(k),
        4..=6 => Op::Insert(i, j, w as f64 / 2.0),
        7..=8 => Op::Remove(i, j),
        9..=10 => Op::Flush,
        _ => Op::Repartition,
    })
}

fn queries_for(n: usize) -> Vec<Vec<f64>> {
    (0..4)
        .map(|q| {
            (0..n)
                .map(|i| ((i * (q + 2) + 3 * q) % 13) as f64 - 6.0)
                .collect()
        })
        .collect()
}

fn matrix_from(edges: &BTreeMap<(u32, u32), f64>, n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for (&(i, j), &w) in edges {
        coo.push(i, j, w);
    }
    CsrMatrix::from_coo(&coo)
}

fn one_shot(dm: &DistCsrMatrix, x: &[f64]) -> Vec<f64> {
    let xd = DistVector::from_global(Arc::clone(&dm.vmap), x);
    let mut y = DistVector::zeros(Arc::clone(&dm.vmap));
    spmv(dm, &xd, &mut y, &mut CostLedger::new(Machine::cab()));
    y.to_global()
}

/// Replays `ops` on a real engine. Returns the replies (execution order),
/// the billed history, the ledger-total bits, and the final epoch.
#[allow(clippy::type_complexity)]
fn run_engine(
    a: &CsrMatrix,
    ops: &[Op],
    method: Method,
    p: usize,
    threads: usize,
) -> (Vec<ServeReply>, Vec<(sf2d_sim::Phase, f64)>, u64, u64) {
    let queries = queries_for(a.nrows());
    let cfg = EngineConfig::new(method, p)
        .with_seed(SEED)
        .with_threads(threads)
        .with_max_batch(3)
        .with_auto_repartition(false);
    let mut engine = Engine::new(a, cfg);
    let mut replies = Vec::new();
    for op in ops {
        match *op {
            Op::Query(k) => {
                engine.submit(queries[k].clone());
            }
            Op::Insert(i, j, w) => {
                engine.insert_edge(i, j, w);
            }
            Op::Remove(i, j) => {
                engine.remove_edge(i, j);
            }
            Op::Flush => replies.extend(engine.flush()),
            Op::Repartition => engine.repartition_now(),
        }
    }
    replies.extend(engine.flush());

    // Shadow edge-map cross-check: the engine's resident matrix must be
    // exactly the CSR the mutation history implies.
    let shadow = shadow_edges(a, ops);
    assert_eq!(
        engine.global_matrix(),
        matrix_from(&shadow, a.nrows()),
        "resident matrix drifted from the mutation history"
    );
    assert_eq!(
        engine.metrics.full_compiles,
        1 + engine.metrics.repartitions,
        "an epoch bump ran a full FillComplete"
    );
    (
        replies,
        engine.ledger.history.clone(),
        engine.ledger.total.to_bits(),
        engine.epoch(),
    )
}

/// The final shadow edge map after `ops` (mirroring the engine's
/// effective-mutation rules: bit-equal re-insert and absent delete are
/// no-ops; both orientations; self-loops single).
fn shadow_edges(a: &CsrMatrix, ops: &[Op]) -> BTreeMap<(u32, u32), f64> {
    let mut edges = BTreeMap::new();
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (j, v) in cols.iter().zip(vals) {
            edges.insert((i as u32, *j), *v);
        }
    }
    for op in ops {
        match *op {
            Op::Insert(i, j, w) => {
                let unchanged = edges
                    .get(&(i, j))
                    .is_some_and(|old: &f64| old.to_bits() == w.to_bits());
                if !unchanged {
                    edges.insert((i, j), w);
                    edges.insert((j, i), w);
                }
            }
            Op::Remove(i, j) => {
                edges.remove(&(i, j));
                edges.remove(&(j, i));
            }
            _ => {}
        }
    }
    edges
}

/// Replays `ops` against the from-scratch oracle: every query's expected
/// answer is computed at submit time (mutations are barriers, so that is
/// exactly when the engine's state is the query's state), rebuilding the
/// layout from the shadow basis and the matrix from the shadow edges.
/// Returns `(id, y)` in submission order plus the expected epoch count.
fn run_oracle(a: &CsrMatrix, ops: &[Op], method: Method, p: usize) -> (Vec<(u64, Vec<f64>)>, u64) {
    let n = a.nrows();
    let queries = queries_for(n);
    let mut edges = shadow_edges(a, &[]);
    let mut basis = a.clone();
    let mut expected = Vec::new();
    let mut next_id = 0u64;
    let mut epoch = 0u64;
    for op in ops {
        match *op {
            Op::Query(k) => {
                let m = matrix_from(&edges, n);
                let dist = LayoutBuilder::new(&basis, SEED).dist(method, p);
                let dm = DistCsrMatrix::from_global(&m, &dist);
                expected.push((next_id, one_shot(&dm, &queries[k])));
                next_id += 1;
            }
            Op::Insert(i, j, w) => {
                let unchanged = edges
                    .get(&(i, j))
                    .is_some_and(|old: &f64| old.to_bits() == w.to_bits());
                if !unchanged {
                    edges.insert((i, j), w);
                    edges.insert((j, i), w);
                    epoch += 1;
                }
            }
            Op::Remove(i, j) => {
                if edges.remove(&(i, j)).is_some() {
                    edges.remove(&(j, i));
                    epoch += 1;
                }
            }
            Op::Flush => {}
            Op::Repartition => {
                basis = matrix_from(&edges, n);
                epoch += 1;
            }
        }
    }
    (expected, epoch)
}

/// First-thread-count reference: (replies, ledger history, total bits).
type Gold = (Vec<ServeReply>, Vec<(sf2d_sim::Phase, f64)>, u64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any interleaving, any thread count: replies bitwise equal to the
    /// submit-time oracle, ledger byte-identical across threads, epoch
    /// counter exactly the effective-mutation count.
    #[test]
    fn interleaved_ops_match_the_from_scratch_oracle_for_any_threads(
        n in 24usize..48,
        edge_factor in 2usize..5,
        graph_seed in 0u64..500,
        m_idx in 0usize..6,
        p_idx in 0usize..3,
        ops in proptest::collection::vec(op_strategy(24), 1..28),
    ) {
        let a = erdos_renyi(n, n * edge_factor, graph_seed);
        let method = Method::spmv_set(false)[m_idx];
        let p = [1usize, 4, 9][p_idx];
        let (expected, want_epoch) = run_oracle(&a, &ops, method, p);

        let mut gold: Option<Gold> = None;
        for threads in THREADS {
            let (replies, history, total_bits, epoch) = run_engine(&a, &ops, method, p, threads);
            prop_assert_eq!(epoch, want_epoch, "epoch = effective mutations (t={})", threads);
            prop_assert_eq!(replies.len(), expected.len(), "every query answered");
            for (reply, (id, want)) in replies.iter().zip(&expected) {
                prop_assert_eq!(reply.id, *id, "execution preserves submission order");
                let gb: Vec<u64> = reply.y.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(gb, wb, "reply {} vs submit-time oracle (t={})", id, threads);
            }
            match &gold {
                None => gold = Some((replies, history, total_bits)),
                Some((g_replies, g_history, g_bits)) => {
                    prop_assert_eq!(&replies, g_replies, "replies differ at t={}", threads);
                    prop_assert_eq!(&history, g_history, "history differs at t={}", threads);
                    prop_assert_eq!(total_bits, *g_bits, "ledger bits differ at t={}", threads);
                }
            }
        }
    }
}
