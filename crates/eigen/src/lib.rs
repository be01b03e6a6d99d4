#![warn(missing_docs)]
// Loops that index several parallel arrays at once are clearer as range
// loops than as the zipped-iterator rewrites clippy suggests.
#![allow(clippy::needless_range_loop)]

//! # sf2d-eigen
//!
//! Distributed eigensolvers and iterative methods for the SC'13
//! reproduction:
//!
//! * [`krylov_schur`] — thick-restart Lanczos, i.e. **Block Krylov–Schur
//!   with block size 1** on a symmetric operator: exactly the Anasazi
//!   configuration the paper runs for the ten largest eigenpairs of the
//!   normalized Laplacian (§4, §5.3);
//! * [`power`] — power method and PageRank (§1's motivating workload);
//! * [`cg`] — distributed conjugate gradients (the paper's "applies
//!   immediately to iterative methods for linear systems" claim);
//! * [`ortho`] — batched CGS2 orthogonalization, the vector-bound kernel
//!   whose cost exposes vector imbalance (Table 5);
//! * [`dense`] — the small dense eigensolvers for the projected problems.
//!
//! Every kernel executes on `sf2d-sim` logical ranks and charges an exact
//! α-β-γ cost ledger, so solve-time comparisons across data layouts
//! reproduce the paper's Tables 4 and 5.

pub mod block_lanczos;
pub mod cg;
pub mod dense;
pub mod krylov_schur;
pub mod lobpcg;
pub mod ortho;
pub mod power;

pub use block_lanczos::{block_lanczos, BlockLanczosResult};
pub use cg::{conjugate_gradient, CgConfig, CgResult};
pub use krylov_schur::{
    krylov_schur_largest, krylov_schur_largest_resilient, EigResult, KrylovSchurConfig,
};
pub use lobpcg::{lobpcg_largest, LobpcgConfig, LobpcgResult};
pub use power::{pagerank, power_method, PageRankResult};
