#![warn(missing_docs)]
// Loops that index several parallel arrays at once are clearer as range
// loops than as the zipped-iterator rewrites clippy suggests.
#![allow(clippy::needless_range_loop)]

//! # sf2d-spmv
//!
//! Epetra-style distributed sparse matrices and the 4-phase parallel SpMV
//! of the paper's §2.1 and §4, executed on `sf2d-sim`'s logical ranks.
//!
//! The Epetra concepts map over directly:
//!
//! | Epetra | here |
//! |---|---|
//! | `Epetra_Map` (vector / domain / range map) | [`VectorMap`] |
//! | row map / column map of `Epetra_CrsMatrix` | [`RankBlock::rowmap` / `colmap`](distmat::RankBlock) |
//! | `Epetra_Import` (expand) / `Epetra_Export` (fold) | [`CompiledSpmv`], lowered from the maps ([`CommPlan`] is the oracle's gid form) |
//! | `FillComplete()` | [`DistCsrMatrix::from_global`](distmat::DistCsrMatrix::from_global) |
//!
//! As in Epetra, the four maps fully determine the communication; the
//! importer and exporter are constructed transparently from them, and the
//! communication is point-to-point.

pub mod compiled;
pub mod diagnose;
pub mod distmat;
pub mod map;
pub mod migrate;
pub mod multivec;
pub mod operator;
pub mod plan;
pub mod reference;
pub mod resilient;
pub mod spmv;

pub use compiled::{CompiledSpmv, PackEntry, PhasePlan, RankPlan, SpmvWorkspace, UnpackEntry};
pub use diagnose::{diagnose_spmv, Bottleneck, PhaseDiagnosis};
pub use distmat::{DeltaReport, DistCsrMatrix, EntryDelta, RankBlock, SPMM_CHUNK};
pub use map::VectorMap;
pub use migrate::MigrationPlan;
pub use multivec::{DistMultiVector, DistVector};
pub use operator::{ChaosSpmvOp, LinearOperator, NormalizedLaplacianOp, PlainSpmvOp, ShiftedOp};
pub use plan::CommPlan;
pub use resilient::{power_iterate, power_iterate_chaos, CHECKPOINT_EVERY};
pub use spmv::{
    gather_executions, spmm, spmm_chaos_with, spmm_with, spmv, spmv_chaos, spmv_chaos_with,
    spmv_with,
};
