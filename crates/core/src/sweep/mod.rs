//! Parallel batch execution of simulator runs.
//!
//! The paper's evaluation is a configuration cross-product — benchmarks
//! × modes × interconnect schemes × memory models × FU mixes — and each
//! cell is an independent compile + simulate + validate pipeline. This
//! module is the batch substrate the experiment harness, the benchmark
//! suite, and the `pcsim sweep` subcommand all share:
//!
//! - [`pool`] — an in-order pool behind the [`par_map`] /
//!   [`try_par_map`] combinators: workers claim cells one at a time from
//!   a shared cursor, so long LUD cells don't serialize behind short
//!   Matrix cells and results finish in nearly cell order.
//! - [`cache`] — a content-addressed result cache keyed by the hash of
//!   a cell's *inputs* (program source, mode, machine configuration,
//!   cycle limit, schema version); hits replay stored [`pc_sim::RunStats`]
//!   bit-identical to a fresh run.
//! - [`codec`] — the canonical JSON codec for `RunStats` that makes the
//!   cache and the JSONL streams exactly round-trippable (every field is
//!   an integer, so no float-formatting hazards exist).
//! - [`engine`] — [`SweepSpec`]/[`run_sweep`]: grid enumeration, JSONL
//!   streaming in deterministic cell order, and a manifest making
//!   sharded runs (`--shard k/n`) resumable after a kill; and
//!   [`run_points`], the runner behind every `pcsim tables` experiment
//!   except scaling. Both compile each program image once per run.
//! - [`telemetry`] — [`SweepTelemetry`]: the lock-free host-side
//!   metrics registry behind `pcsim sweep --progress`, the periodic
//!   JSONL snapshot emitter, and the `pcsim metrics` report.

pub mod cache;
pub mod codec;
pub mod engine;
pub mod pool;
pub mod telemetry;

pub use cache::{cache_key, config_fingerprint, CachedResult, ResultCache, CACHE_SCHEMA_VERSION};
pub use engine::{
    run_points, run_sweep, Manifest, MemKind, Mix, Point, SweepCell, SweepError, SweepOptions,
    SweepRow, SweepSpec, SweepSummary, SWEEP_SCHEMA_VERSION,
};
pub use pool::{default_jobs, par_map, try_par_map, PoolMetrics};
pub use telemetry::SweepTelemetry;
