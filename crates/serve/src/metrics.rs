//! Request-level serving metrics: how well the engine amortizes setup.
//!
//! Everything here is deterministic given the request stream — counters
//! and the batch-size distribution, no wall clocks — so the benchmark can
//! gate on these values across machines while latency quantiles stay
//! machine-local.

use sf2d_obs::{Histogram, MetricsRegistry};

/// Counters and distributions maintained by the [`Engine`](crate::Engine)
/// across its lifetime.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Queries answered (one column of some SpMM batch each).
    pub queries: u64,
    /// SpMM batches executed — `queries / batches` is the gather
    /// amortization won by coalescing.
    pub batches: u64,
    /// Batches (and multiplies) that found the resident plan current.
    pub cache_hits: u64,
    /// Times the plan had to be brought up to date: the warm-start
    /// compile at construction, every repartition, and every batch that
    /// found the plan behind the epoch and patched it.
    pub cache_misses: u64,
    /// Epoch advances: one per effective mutation, plus one per
    /// repartition (a repartition starts a new plan generation).
    pub epoch_bumps: u64,
    /// Layout rebuilds (drift-triggered or forced).
    pub repartitions: u64,
    /// In-place plan updates: one per batch that found the plan behind,
    /// however many mutations it folded in.
    pub plan_patches: u64,
    /// Full `FillComplete` runs: construction plus one per repartition —
    /// never an epoch bump.
    pub full_compiles: u64,
    /// Ranks a patch dirtied — block written or schedule lowered again —
    /// one observation per patch.
    pub dirty_ranks: Histogram,
    /// Chaos-mode batches replayed after a mid-batch crash.
    pub crash_replays: u64,
    /// Largest queue depth observed at submit time.
    pub queue_depth_peak: u64,
    /// Distribution of executed batch widths.
    pub batch_sizes: Histogram,
}

impl EngineMetrics {
    /// Fraction of plan lookups that found the plan current, in `[0, 1]`
    /// — on a request stream, how many batches ran per plan update.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean queries per executed batch — the factor by which coalescing
    /// divides the expand-gather count (1.0 = no amortization).
    pub fn gather_amortization_ratio(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }

    /// Publishes the counters, the current queue depth, and the
    /// batch-size and dirty-rank distributions into a [`MetricsRegistry`]
    /// under `serve_*` names (all on rank 0 — these are frontend-level,
    /// not per-rank, quantities).
    pub fn publish(&self, reg: &mut MetricsRegistry, queue_depth: usize) {
        reg.add("serve_queries", 0, self.queries);
        reg.add("serve_batches", 0, self.batches);
        reg.add("serve_cache_hits", 0, self.cache_hits);
        reg.add("serve_cache_misses", 0, self.cache_misses);
        reg.add("serve_epoch_bumps", 0, self.epoch_bumps);
        reg.add("serve_repartitions", 0, self.repartitions);
        reg.add("serve_plan_patches", 0, self.plan_patches);
        reg.add("serve_full_compiles", 0, self.full_compiles);
        reg.add("serve_crash_replays", 0, self.crash_replays);
        reg.set_gauge("serve_queue_depth", 0, queue_depth as f64);
        reg.set_gauge("serve_queue_depth_peak", 0, self.queue_depth_peak as f64);
        reg.set_gauge("serve_cache_hit_ratio", 0, self.cache_hit_ratio());
        reg.merge_histogram("serve_batch_size", &self.batch_sizes);
        reg.merge_histogram("serve_dirty_ranks", &self.dirty_ranks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_and_typical_cases() {
        let mut m = EngineMetrics::default();
        assert_eq!(m.cache_hit_ratio(), 0.0);
        assert_eq!(m.gather_amortization_ratio(), 1.0);
        m.queries = 12;
        m.batches = 3;
        m.cache_hits = 3;
        m.cache_misses = 1;
        assert_eq!(m.cache_hit_ratio(), 0.75);
        assert_eq!(m.gather_amortization_ratio(), 4.0);
    }

    #[test]
    fn publish_lands_in_the_registry() {
        let mut m = EngineMetrics {
            queries: 5,
            batches: 2,
            ..EngineMetrics::default()
        };
        m.batch_sizes.observe(3);
        m.batch_sizes.observe(2);
        let mut reg = MetricsRegistry::default();
        m.publish(&mut reg, 4);
        assert_eq!(reg.counter("serve_queries", 0), 5);
        assert_eq!(reg.gauge("serve_queue_depth", 0), Some(4.0));
        let h = reg.histogram("serve_batch_size").expect("histogram");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 5);
    }
}
