#![warn(missing_docs)]

//! # sf2d-serve
//!
//! A resident serving layer over the sf2d kernels: the long-lived
//! [`Engine`] owns a partitioned dynamic matrix plus all its pooled
//! compiled state, coalesces streams of query vectors into SpMM batches,
//! keeps its compiled plan current under incremental edge mutation by
//! patching the dirtied ranks in place, and tracks imbalance drift,
//! which triggers repartition + atomic plan swap. The chaos engine is
//! the serving fault model ([`Engine::flush_chaos`]).
//!
//! Every answer — batched, on a patched plan, or chaos-routed — is
//! **bitwise equal** to a from-scratch one-shot `spmv` of the same query
//! against the same matrix; the differential/property/chaos suites in
//! `tests/tests/` are the contract.
//!
//! ```
//! use sf2d_core::prelude::*;
//! use sf2d_serve::{Engine, EngineConfig};
//!
//! let a = sf2d_core::sf2d_gen::rmat(&sf2d_core::sf2d_gen::RmatConfig::graph500(7), 42);
//! let n = a.nrows();
//! let mut engine = Engine::new(&a, EngineConfig::new(Method::TwoDGp, 16).with_max_batch(8));
//!
//! // Queries queue up ...
//! let ids: Vec<u64> = (0..5)
//!     .map(|q| engine.submit((0..n).map(|i| ((i + q) % 7) as f64).collect()))
//!     .collect();
//! // ... and one flush answers all five with a single width-5 SpMM.
//! let replies = engine.flush();
//! assert_eq!(replies.len(), ids.len());
//! assert_eq!(engine.metrics.batches, 1);
//! ```

pub mod engine;
pub mod metrics;

pub use engine::{Engine, EngineConfig, ServeReply};
pub use metrics::EngineMetrics;
