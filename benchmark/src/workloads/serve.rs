//! `serve-steady` and `serve-churn`: queries through the resident
//! `Engine`, one closed-loop client sending bursts of 16,16,16,8,3,1
//! (`max_batch` 16). An op is one query — `submit` until its reply is
//! available — so its latency is its burst's submits plus the `flush`.
//! The churn variant makes an effective edge mutation before every third
//! burst (insert a new edge / re-weight it / remove it), and each one
//! costs the next burst a CSR rebuild and a full FillComplete.
//!
//! Every third, not every other: mutated bursts then alternate between
//! widths 16 and 1, so 17 queries in 60 wait for a recompile and the
//! median query sits in the middle of the undisturbed 16-wide bursts.
//! With every other burst mutated it sat on the edge between the two
//! groups and jumped from run to run. The recompiles still take three
//! quarters of the wall, which `ops_per_s` sees.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sf2d_core::prelude::*;
use sf2d_core::sf2d_gen::{rmat, RmatConfig};
use sf2d_core::sf2d_obs::mem;
use sf2d_serve::{Engine, EngineConfig, ServeReply};

use super::{
    common_span_metrics, graph_seed, layout_counts, layout_seed, sim_split, vectors_agree, Floor,
    StepOut, Workload,
};
use crate::catalog::Layers;
use crate::inputs::{dense_vector, mutation_pair};
use crate::probes;
use crate::stats::median;
use crate::trace::Recorder;

const SCALE: u32 = 14;
const P: usize = 64;
const MAX_BATCH: usize = 16;
/// Burst widths, cycled: mostly full batches, some partial ones.
const WIDTHS: [usize; 6] = [16, 16, 16, 8, 3, 1];
/// Under churn, the burst before which a mutation lands: every third.
const MUTATE_EVERY: u64 = 3;
/// Distinct query vectors the client cycles through.
const QUERY_POOL: usize = 4;

pub struct Serve<const CHURN: bool> {
    seed: u64,
    engine: Engine,
    /// The resident matrix at the engine's current epoch, for references.
    global: CsrMatrix,
    queries: Vec<Vec<f64>>,
    /// `A·q` for each pooled query at the current epoch; cleared by every
    /// mutation.
    refs: Vec<Option<Vec<f64>>>,
    next_query: usize,
    mutations: u64,
    /// The edge the current insert / re-weight / remove cycle works on.
    edge: (u32, u32),
    /// Engine ledger totals when set-up ended (after the warm-up burst).
    base: CostLedger,
    /// Wall from entering a mutation to the next burst's replies.
    epoch_ms: Vec<f64>,
}

fn diff(now: &CostLedger, base: &CostLedger) -> CostLedger {
    let mut d = CostLedger::new(Machine::cab());
    d.total = now.total - base.total;
    d.steps = now.steps - base.steps;
    for (phase, t) in &now.by_phase {
        let before = base.by_phase.get(phase).copied().unwrap_or(0.0);
        d.by_phase.insert(*phase, t - before);
    }
    d
}

impl<const CHURN: bool> Serve<CHURN> {
    fn reference(&mut self, q: usize) -> &[f64] {
        let global = &self.global;
        let query = &self.queries[q];
        self.refs[q].get_or_insert_with(|| global.spmv_dense(query))
    }

    /// Submits `inputs` and flushes; spans when `rec` records.
    fn burst(
        engine: &mut Engine,
        inputs: Vec<Vec<f64>>,
        flush_span: &'static str,
        rec: &mut Recorder,
    ) -> Vec<ServeReply> {
        let width = inputs.len() as u64;
        let root = rec.begin_with("harness.op", width);
        for x in inputs {
            let s = rec.begin("serve.submit");
            engine.submit(x);
            rec.end(s);
        }
        let s = rec.begin_with(flush_span, width);
        let replies = engine.flush();
        rec.end(s);
        rec.end(root);
        replies
    }

    /// The next mutation of the insert / re-weight / remove cycle. Every
    /// one is effective, and three in a row restore the original graph.
    fn mutate(&mut self, rec: &mut Recorder) -> (bool, Duration) {
        let kind = self.mutations % 3;
        if kind == 0 {
            let n = self.engine.n();
            let cycle = self.mutations / 3;
            self.edge = (0..)
                .map(|k| mutation_pair(self.seed, cycle, k, n))
                .find(|&(i, j)| i != j && !self.engine.has_edge(i, j))
                .expect("an absent off-diagonal pair exists");
        }
        self.mutations += 1;
        let (i, j) = self.edge;
        let engine = &mut self.engine;
        rec.timed(|rec| {
            let s = rec.begin_with("serve.mutate", kind);
            let effective = match kind {
                0 => engine.insert_edge(i, j, 2.0),
                1 => engine.insert_edge(i, j, 3.0),
                _ => engine.remove_edge(i, j),
            };
            rec.end(s);
            effective
        })
    }
}

impl<const CHURN: bool> Workload for Serve<CHURN> {
    const NAME: &'static str = if CHURN { "serve-churn" } else { "serve-steady" };
    /// Three cycles of burst widths; with churn, two full mutation cycles
    /// (six mutations, each kind before a 16-wide and a 1-wide burst).
    const SIM_STEPS: u64 = 18;
    const TRACE_BLOCK: u64 = 6;
    const CYCLE: u64 = WIDTHS.len() as u64;

    fn set_up(seed: u64, rec: &mut Recorder) -> Serve<CHURN> {
        let s = rec.begin("gen.rmat");
        let a = rmat(&RmatConfig::graph500(SCALE), graph_seed(seed));
        rec.end(s);
        let cfg = EngineConfig::new(Method::TwoDGp, P)
            .with_seed(layout_seed(seed))
            .with_threads(1)
            .with_max_batch(MAX_BATCH);
        let s = rec.begin("serve.engine_new");
        let mut engine = Engine::new(&a, cfg);
        rec.end(s);
        let queries: Vec<Vec<f64>> = (0..QUERY_POOL)
            .map(|k| dense_vector(seed, k as u64, a.nrows()))
            .collect();
        let warm = (0..MAX_BATCH)
            .map(|k| queries[k % QUERY_POOL].clone())
            .collect();
        let replies = Self::burst(&mut engine, warm, "serve.flush", &mut Recorder::new());
        std::hint::black_box(replies.len());
        let base = engine.ledger.clone();
        Serve {
            seed,
            engine,
            global: a,
            queries,
            refs: vec![None; QUERY_POOL],
            next_query: 0,
            mutations: 0,
            edge: (0, 0),
            base,
            epoch_ms: Vec::new(),
        }
    }

    /// One floor unit is one serial CSR sweep: one query column.
    fn measure_floor(&mut self) -> Floor {
        Floor::csr(&self.global, &self.queries[0])
    }

    fn step(&mut self, i: u64, rec: &mut Recorder) -> StepOut {
        let width = WIDTHS[(i % WIDTHS.len() as u64) as usize];
        let mutate = CHURN && i % MUTATE_EVERY == MUTATE_EVERY - 1;
        let mut extra = Duration::ZERO;
        let mut mutation_ok = true;
        if mutate {
            (mutation_ok, extra) = self.mutate(rec);
            self.global = self.engine.global_matrix();
            self.refs.fill(None);
        }

        let picks: Vec<usize> = (0..width)
            .map(|k| (self.next_query + k) % QUERY_POOL)
            .collect();
        self.next_query += width;
        let inputs: Vec<Vec<f64>> = picks.iter().map(|&q| self.queries[q].clone()).collect();
        let flush_span = if mutate {
            "serve.flush_recompile"
        } else {
            "serve.flush"
        };
        let engine = &mut self.engine;
        let (replies, latency) = rec.timed(|rec| Self::burst(engine, inputs, flush_span, rec));
        if mutate {
            self.epoch_ms.push((extra + latency).as_secs_f64() * 1e3);
        }

        // Replies come back in submission order, one per query.
        let mut failed = 0;
        if replies.len() != width || !mutation_ok {
            failed = width as u32;
        } else {
            for (reply, &q) in replies.iter().zip(&picks) {
                if !vectors_agree(&reply.y, self.reference(q)) {
                    failed += 1;
                }
            }
        }
        StepOut {
            latency,
            ops: width as u32,
            extra,
            floor_units: width as f64,
            failed,
        }
    }

    fn sim_s(&self) -> f64 {
        self.engine.ledger.total - self.base.total
    }

    fn exact_counts(&mut self, out: &mut Layers) -> bool {
        sim_split(&diff(&self.engine.ledger, &self.base), Self::SIM_STEPS, out);
        // The engine's own counters also cover the warm-up burst.
        let m = &self.engine.metrics;
        out.set("serve.epoch_bumps", m.epoch_bumps as f64);
        out.set("serve.repartitions", m.repartitions as f64);
        out.set("serve.cache_hit_ratio", m.cache_hit_ratio());
        out.set(
            "serve.gather_amortization_ratio",
            m.gather_amortization_ratio(),
        );
        layout_counts(&self.global, self.engine.dist(), out)
    }

    fn layer_metrics(&mut self, rec: &Recorder, out: &mut Layers) {
        common_span_metrics(rec, self.global.nnz(), out);
        out.set("serve.engine_new_ms", rec.median_ms("serve.engine_new"));
        out.set("serve.submit_us", rec.median_ms("serve.submit") * 1e3);
        let flush_ms = |name: &str, width: u64| rec.median_ms_where(name, Some(width));
        let flush16 = flush_ms("serve.flush", 16);
        out.set("serve.flush_b16_ms", flush16);
        // Under churn every 1-wide burst follows a mutation.
        let flush1_span = if CHURN {
            "serve.flush_recompile"
        } else {
            "serve.flush"
        };
        out.set("serve.flush_b1_ms", flush_ms(flush1_span, 1));
        if CHURN {
            // Of the widths that follow a mutation only 16 also occurs
            // without one, so it alone gives the difference.
            out.set(
                "serve.recompile_ms",
                flush_ms("serve.flush_recompile", 16) - flush16,
            );
            out.set("serve.insert_edge_us", rec.median_ms("serve.mutate") * 1e3);
            out.set("serve.epoch_p50_ms", median(&self.epoch_ms));
        }

        // The same 16 columns straight through `spmm_with` on the active
        // plan: what a flush costs beyond the kernel is the engine's.
        let cols: Vec<Vec<f64>> = (0..MAX_BATCH)
            .map(|k| self.queries[k % QUERY_POOL].clone())
            .collect();
        let active = self.engine.active();
        let xm = DistMultiVector::from_columns(Arc::clone(&active.vmap), &cols);
        let mut ym = DistMultiVector::zeros(Arc::clone(&active.vmap), MAX_BATCH);
        let mut ws = SpmvWorkspace::with_threads(1);
        let mut ledger = CostLedger::new(Machine::cab());
        spmm_with(active, &xm, &mut ym, &mut ledger, &mut ws);
        let floor: Vec<f64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                spmm_with(active, &xm, &mut ym, &mut ledger, &mut ws);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let floor16 = median(&floor);
        out.set("serve.spmm_floor_b16_ms", floor16);
        out.set("serve.overhead_ratio", flush16 / floor16);

        let allocs0 = mem::snapshot().allocs;
        let replies = Self::burst(&mut self.engine, cols, "serve.flush", &mut Recorder::new());
        // The input columns were allocated before the snapshot: this is
        // what `submit` and `flush` allocate themselves.
        out.set(
            "serve.allocs_per_query",
            (mem::snapshot().allocs - allocs0) as f64 / MAX_BATCH as f64,
        );
        drop(replies);

        let rebuild: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(self.engine.global_matrix());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("graph.rebuild_csr_ms", median(&rebuild));

        // The graph the engine was built on: the resident one is wherever
        // the mutation cycle happened to stop.
        let original = rmat(&RmatConfig::graph500(SCALE), graph_seed(self.seed));
        probes::partition_probe(&original, layout_seed(self.seed), P, out);
        probes::superstep_probe(P, out);
    }
}
