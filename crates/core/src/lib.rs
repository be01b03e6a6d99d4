#![warn(missing_docs)]

//! # sf2d-core
//!
//! The user-facing façade of the **sf2d** workspace — a Rust reproduction
//! of Boman, Devine & Rajamanickam, *"Scalable Matrix Computations on Large
//! Scale-Free Graphs Using 2D Graph Partitioning"* (SC'13).
//!
//! ```
//! use sf2d_core::prelude::*;
//!
//! // A small scale-free graph.
//! let a = sf2d_gen::rmat(&sf2d_gen::RmatConfig::graph500(8), 42);
//!
//! // The paper's contribution: 2D Cartesian graph partitioning on 16 ranks.
//! let mut builder = LayoutBuilder::new(&a, 0);
//! let dist = builder.dist(Method::TwoDGp, 16);
//!
//! // Simulated 100x SpMV on an Infiniband-class machine.
//! let row = spmv_experiment(&a, &dist, Machine::cab(), 100);
//! assert!(row.sim_time > 0.0);
//! assert!(row.max_msgs <= 2 * 4 - 2); // the 2D bound: pr + pc - 2
//! ```
//!
//! Sub-crates are re-exported so downstream users need only this crate:
//! [`sf2d_graph`], [`sf2d_gen`], [`sf2d_partition`], [`sf2d_sim`],
//! [`sf2d_spmv`], [`sf2d_eigen`], [`sf2d_obs`].

pub mod experiment;
pub mod layout;
pub mod report;

pub use sf2d_eigen;
pub use sf2d_gen;
pub use sf2d_graph;
pub use sf2d_obs;
pub use sf2d_partition;
pub use sf2d_sim;
pub use sf2d_spgemm;
pub use sf2d_spmv;

pub use experiment::{
    eigen_experiment, spgemm_experiment, spmv_experiment, spmv_experiment_chaos, summa_experiment,
    ChaosSpmvRow, EigenRow, SpgemmRow, SpmvRow,
};
pub use layout::{LayoutBuilder, Method};

/// Everything most programs need.
pub mod prelude {
    pub use crate::experiment::{
        eigen_experiment, spgemm_experiment, spmv_experiment, spmv_experiment_chaos,
        summa_experiment, ChaosSpmvRow, EigenRow, SpgemmRow, SpmvRow,
    };
    pub use crate::layout::{LayoutBuilder, Method};
    pub use sf2d_eigen::{
        conjugate_gradient, krylov_schur_largest, krylov_schur_largest_resilient, lobpcg_largest,
        pagerank, CgConfig, KrylovSchurConfig, LobpcgConfig,
    };
    pub use sf2d_gen::{proxy_matrix, ProxyConfig, PAPER_MATRICES};
    pub use sf2d_graph::{CooMatrix, CsrMatrix, Graph};
    pub use sf2d_obs::{
        analyze, CriticalPathReport, MetricsRegistry, PhaseKind, TraceConfig, TraceEvent,
        TraceFormat,
    };
    pub use sf2d_partition::{grid_shape, LayoutMetrics, MatrixDist, NonzeroLayout};
    pub use sf2d_sim::{ChaosRuntime, CostLedger, Machine};
    pub use sf2d_spgemm::{
        spgemm_chaos, spgemm_dist, spgemm_with, summa_chaos, summa_dist, summa_with, DistSpgemm,
        SpgemmWorkspace, SummaGrid, SummaSpgemm, SummaWorkspace,
    };
    pub use sf2d_spmv::{
        power_iterate, power_iterate_chaos, spmm, spmm_chaos_with, spmm_with, spmv, spmv_chaos,
        spmv_chaos_with, spmv_with, ChaosSpmvOp, DistCsrMatrix, DistMultiVector, DistVector,
        LinearOperator, MigrationPlan, NormalizedLaplacianOp, PlainSpmvOp, SpmvWorkspace,
    };
}
