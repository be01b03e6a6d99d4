//! Distributed SpGEMM (`C = A·B`) on the 2D-layout SpMV infrastructure.
//!
//! The paper's thesis is that one 2D data distribution serves *all* the
//! matrix computations of a graph-analysis pipeline, not just SpMV. This
//! crate demonstrates that on sparse matrix-matrix multiplication: the
//! kernel runs row-wise Gustavson locally and moves every remote B row
//! and partial C row through the **same compiled expand/fold schedules**
//! the SpMV uses ([`CompiledSpmv`](sf2d_spmv::compiled::CompiledSpmv)),
//! so the per-rank message count of one SpGEMM is bounded by the SpMV's
//! (≤ pr + pc − 2 sends under a 2D layout) and every layout the
//! experiment suite knows (1D/2D × Block/Random/GP) works unchanged.
//!
//! - [`spgemm_dist`] / [`spgemm_with`]: the kernel, one-shot or through a
//!   reusable [`SpgemmWorkspace`] (SPA accumulators + the partial rows
//!   owners read in place, multi-threaded over ranks with bit-identical
//!   results).
//! - [`DistSpgemm`]: the distributed product — per-rank owned row blocks
//!   plus measured per-phase traffic ([`ExchangeStats`]) and work.
//! - [`spgemm_chaos`]: the same driver with a
//!   [`ChaosRuntime`](sf2d_sim::ChaosRuntime) passed in; heals every
//!   fault and proves bit-equality with the fault-free run.
//! - [`summa_dist`] / [`summa_with`] / [`summa_chaos`]: the
//!   communication-avoiding alternative — Sparse SUMMA over the same
//!   grid ([`crate::summa`]), `√p` stages of row/column block broadcasts
//!   with DCSC-style hypersparse local storage, bounding every rank at
//!   `(pr − 1) + (pc − 1)` sends *per stage* for **any** layout (where
//!   expand/fold degrades to `p − 1` sends under 1D distributions).
//!   Same owned-row output blocks, so the two paths compare bitwise.
//!
//! Every exchange reads the sender's rows where they live; no payload is
//! serialized except onto the chaos wire (`wire.rs`). Costs are charged
//! per call (Expand / Multiply / Fold / Merge / Collective supersteps) at
//! each row's framed length, because SpGEMM row sizes depend on B and C,
//! unlike the SpMV's frozen one-double-per-gid costs. The distributed
//! result is **bitwise equal** to the serial Gustavson oracle
//! ([`sf2d_graph::spgemm`]) whenever row sums are exact — the
//! differential test suite in `tests/` pins this across layouts, process
//! counts, and thread counts.

#![warn(missing_docs)]

pub mod kernel;
pub mod summa;
mod wire;
pub mod workspace;

pub use kernel::{spgemm_chaos, spgemm_dist, spgemm_with, DistSpgemm, ExchangeStats};
pub use summa::{summa_chaos, summa_dist, summa_with, SummaGrid, SummaSpgemm};
pub use workspace::{SpgemmWorkspace, SummaWorkspace};
