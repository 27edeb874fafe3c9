//! # strex-bench
//!
//! Experiment harness for the STREX (ISCA 2013) reproduction: one function
//! per table and figure of the paper's evaluation section.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run --release -p strex-bench --bin repro -- all
//! cargo run --release -p strex-bench --bin repro -- fig6 --quick
//! ```
//!
//! See [`experiments`] for the per-figure entry points and DESIGN.md for
//! the experiment index mapping each figure to the modules that implement
//! its pieces.

pub mod experiments;
pub mod perf;
pub mod table;

pub use experiments::Effort;
