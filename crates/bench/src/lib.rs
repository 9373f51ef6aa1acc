//! # dbs3-bench
//!
//! The experiment harness regenerating every figure of the paper's
//! evaluation (Section 5), plus three ablations.
//!
//! Every experiment is a pure function returning printable rows, so the same
//! code backs:
//!
//! * the `experiments` binary (`cargo run -p dbs3-bench --release --bin
//!   experiments -- fig15`), which prints the same series the paper plots at
//!   paper scale;
//! * `experiments --smoke`, the identical harness at a reduced scale, which
//!   CI runs for every figure.
//!
//! See `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! comparison of every figure.

pub mod baseline;
pub mod concurrent;
pub mod data;
pub mod experiments;
pub mod repeat;
pub mod serve;

pub use data::{ExperimentScale, JoinDatabase};
