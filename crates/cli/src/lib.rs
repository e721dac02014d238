//! # clognet-cli
//!
//! Library half of the `clognet` command-line driver: argument parsing,
//! option-to-configuration translation, and report formatting. The thin
//! `main.rs` wires these to stdin/stdout so every piece is unit-testable.

pub mod args;
pub mod bench_doc;
pub mod cluster_cmd;
pub mod config;
pub mod driver;
pub mod fuzz_cmd;
pub mod report;
pub mod serve_cmd;
pub mod timeline;

pub use args::{Args, ParseArgsError};
pub use config::{config_from, parse_scheme, CONFIG_KEYS};
