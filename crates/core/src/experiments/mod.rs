//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§4).
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`baseline`] | Table 2 & Figure 4 (cycle counts per mode) and Figure 5 (unit utilizations) |
//! | [`interference`] | Table 3 (compile-time vs runtime schedules under priority arbitration) |
//! | [`comm`] | Figure 6 (restricted communication schemes) + the §4 area claim |
//! | [`latency`] | Figure 7 (variable memory latency) |
//! | [`mix`] | Figure 8 (number and mix of function units) |
//! | [`ablation`] | design-choice studies (slip, arbitration, destinations, buffering) |
//! | [`registers`] | §3's register-requirement claims (peak < 60 realistic, ~490 ideal) |
//! | [`scaling`] | problem-size scaling of the coupled advantage (extension) |
//!
//! Every module exposes a `run*` entry returning structured results with
//! a `render()` producing the paper-style text table, so `pcsim tables`,
//! the `paper_tables` example and the integration tests all share one
//! implementation.

pub mod ablation;
pub mod baseline;
pub mod comm;
pub mod interference;
pub mod latency;
pub mod mix;
pub mod registers;
pub mod scaling;
