//! # clognet-bench
//!
//! The std-only job runner behind every multi-run command
//! ([`runner::run_jobs`]) and the service's worker pool
//! ([`runner::WorkerPool`]), plus the substrate micro-benchmarks in
//! `benches/micro.rs` (opt-in:
//! `cargo bench -p clognet-bench --features micro --bench micro`).
//!
//! The paper's tables and figures are rows of `clognet paper`
//! (`crates/cli/src/paper.rs`).

pub mod runner;
