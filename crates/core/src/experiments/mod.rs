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
//! implementation. Each returns the same rows for any `jobs` count.
//!
//! Every experiment but [`scaling`] (whose sources are generated per
//! size) runs its grid of [`Point`]s with
//! [`run_points`](crate::sweep::run_points), which compiles each
//! distinct program image once.

use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use crate::sweep::Point;
use pc_isa::MachineConfig;

pub mod ablation;
pub mod baseline;
pub mod comm;
pub mod interference;
pub mod latency;
pub mod mix;
pub mod registers;
pub mod scaling;

/// Every mode each of `benches` has a source for, on the paper's
/// baseline machine: the Table-2 grid, benchmark-major.
fn every_mode(benches: &[Benchmark]) -> Vec<Point<'_>> {
    benches
        .iter()
        .flat_map(|b| {
            MachineMode::all()
                .into_iter()
                .filter(|&mode| b.source(mode).is_some())
                .map(move |mode| Point::new(b, mode, MachineConfig::baseline()))
        })
        .collect()
}
