#![warn(missing_docs)]
// Loops that index several parallel arrays at once are clearer as range
// loops than as the zipped-iterator rewrites clippy suggests.
#![allow(clippy::needless_range_loop)]

//! # sf2d-sim
//!
//! A deterministic distributed-memory **simulator** standing in for the
//! paper's MPI clusters (LLNL *cab*, NERSC *Hopper*).
//!
//! The paper's conclusions rest on three platform-independent quantities —
//! per-rank message counts, communication volumes, and load imbalance —
//! which this workspace *measures exactly* on logical ranks, then converts
//! to time with an **α-β-γ machine model** (latency per message, seconds
//! per byte, seconds per flop), following the BSP cost methodology of
//! Bisseling's textbook \[5\] that the paper builds on:
//!
//! ```text
//! T_phase = max over ranks of (α·msgs + β·bytes + γ·flops)
//! T_total = Σ phases T_phase          (phases synchronize, BSP-style)
//! ```
//!
//! * [`machine`] — the cost parameters, with presets calibrated to the
//!   paper's two platforms;
//! * [`cost`] — the per-phase ledger that accumulates simulated time;
//! * [`runtime`] — message routing between logical ranks (sequential
//!   deterministic, plus a crossbeam-threaded variant used to check that
//!   results do not depend on the execution schedule);
//! * [`collective`] — cost formulas and executors for allreduce/broadcast;
//! * [`wave`] — bounded-memory wave planning: contiguous rank batches
//!   whose scratch fits a live-memory budget, so paper-scale rank counts
//!   (p = 16,384) execute with one reusable arena instead of `p` resident
//!   workspaces;
//! * [`fault`] — the chaos-aware verify-retry-timeout router, which
//!   delivers the same values as the plain routers while billing injected
//!   faults (drops, duplicates, bit-flips, delays, stalls) honestly, and
//!   [`ChaosRuntime::mirror_exchange`], the one place a kernel's resident
//!   payloads are cloned onto that wire, verified against what the
//!   receiving rank reads in place, and billed. Every distributed kernel
//!   (SpMV, expand/fold SpGEMM, Sparse SUMMA) is written once and takes
//!   `Option<&mut ChaosRuntime>`; none of them calls
//!   [`ChaosRuntime::route`] itself.

pub mod collective;
pub mod cost;
pub mod fault;
pub mod hierarchy;
pub mod machine;
pub mod runtime;
pub mod wave;

pub use sf2d_chaos;
pub use sf2d_par;

pub use cost::{CostLedger, Phase, PhaseCost};
pub use fault::{bill_retransmit, route_chaos, route_chaos_threaded, ChaosRuntime};
pub use hierarchy::NodeModel;
pub use machine::Machine;
pub use runtime::{par_ranks, route_sequential, route_threaded, RankMessage};
pub use wave::{max_wave_bytes, plan_waves};
