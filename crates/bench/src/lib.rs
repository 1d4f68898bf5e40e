//! # onoff-bench
//!
//! Reproduction harness: one binary target (`repro`) that regenerates every
//! table and figure of the paper's evaluation from the simulated campaign,
//! plus `perfsnap`, the fixed-workload micro-benchmark of the pipeline
//! (`src/bin/perfsnap.rs`).
//!
//! Run `cargo run -p onoff-bench --release --bin repro -- all` (or a single
//! experiment id like `fig10`) to print paper-style rows; EXPERIMENTS.md
//! records the paper-vs-measured comparison.

pub mod figures;
pub mod mitigation;
pub mod output;
pub mod predictions;
pub mod showcase;
