//! End-to-end and per-layer benchmark of the Lunule simulator.
//!
//! The benchmark drives the repository's crates through their public API
//! only: it builds each workload's inputs from a seed, constructs a
//! `Simulation`, steps it to the end and times each phase from outside.
//! See `README.md` in this directory for the metrics and how to run it.

pub mod pass;
pub mod probe;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
