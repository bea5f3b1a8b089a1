//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5 of Xu, Romanovsky & Randell, ICDCS 1998).
//!
//! * [`scenarios`] — the §5.2 nested-abort experiment (Figures 9/10) and
//!   the §5.3 algorithm comparison (Figures 12/13), parameterised by
//!   `Tmmax`, `Tabo` and `Treso`;
//! * `paper_tables` (binary) — prints the same rows and series the paper
//!   reports: `cargo run -p caa-bench --release --bin paper_tables all`;
//! * Criterion benches under `benches/` measure the wall-clock cost of the
//!   simulated experiments, of exception-graph resolution and of trace
//!   rendering;
//! * [`trajectory`] appends labelled rows to the committed
//!   `BENCH_sweep.json` (`sweep_bench --append-to`).
//!
//! See `EXPERIMENTS.md` at the workspace root for paper-vs-measured values.
//!
//! # Determinism
//!
//! The *simulated* quantities (virtual durations, message counts) are
//! seed-determined and identical on every run; only the wall-clock cost
//! of simulating them — what Criterion measures — varies with the host.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod scenarios;
pub mod trajectory;

pub use scenarios::{
    lemma1_bound, nested_abort, resolution_messages, simultaneous_raise, simultaneous_raise_xrr,
    NestedAbortParams, SimultaneousRaiseParams,
};
