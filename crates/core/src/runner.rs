//! Compile → simulate → validate, for one benchmark under one machine
//! mode and configuration. [`compile_image`] and [`run_image`] are the
//! two halves; a sweep compiles each image once and runs it on every
//! configuration that shares its [`pc_compiler::CompileKey`].

use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use pc_compiler::{CompileError, SegmentInfo};
use pc_isa::{MachineConfig, Program};
use pc_sim::probe::{ChromeTraceSink, Fanout, JsonlSink};
use pc_sim::{EngineKind, Machine, RunStats, SimError};
use std::fmt;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;

/// Generous default cycle budget (the largest benchmark, LUD under Mem2,
/// runs well under a million cycles).
pub const CYCLE_LIMIT: u64 = 20_000_000;

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulator statistics (cycle count, utilizations, probes, …).
    pub stats: RunStats,
    /// Peak per-cluster register count over all segments.
    pub peak_registers: u32,
    /// Source-provenance side table from the compiler (empty for
    /// programs built without debug info — reports then fall back to
    /// "no provenance").
    pub debug: pc_isa::DebugMap,
    /// The issue engine that actually produced the run. May differ from
    /// the requested engine only when the machine forces a fallback
    /// (more than 64 units clamps to the scan engine).
    pub engine: EngineKind,
    /// Host-side phase profile ([`Observe::host_telemetry`] runs only):
    /// where the *host's* time went while simulating, as opposed to
    /// `stats`, which says where the guest's cycles went.
    pub host_profile: Option<pc_sim::HostProfile>,
}

/// Failures of the compile/simulate/validate pipeline.
#[derive(Debug)]
pub enum RunError {
    /// The benchmark has no source for the requested mode (e.g. Ideal
    /// LUD).
    Unsupported {
        /// Benchmark name.
        bench: &'static str,
        /// The mode without a source variant.
        mode: MachineMode,
    },
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed (deadlock, runtime error, cycle limit).
    Sim(SimError),
    /// The run finished but produced numerically wrong results.
    Check(String),
    /// A trace-sink file could not be created or written.
    Io(std::io::Error),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Unsupported { bench, mode } => {
                write!(f, "{bench} has no {mode} variant")
            }
            RunError::Compile(e) => write!(f, "compile error: {e}"),
            RunError::Sim(e) => write!(f, "simulation error: {e}"),
            RunError::Check(msg) => write!(f, "validation failed: {msg}"),
            RunError::Io(e) => write!(f, "trace sink error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CompileError> for RunError {
    fn from(e: CompileError) -> Self {
        RunError::Compile(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Runs `bench` under `mode` on `config`, validating the numerical output
/// against the benchmark's Rust reference.
///
/// # Errors
/// See [`RunError`].
pub fn run_benchmark(
    bench: &Benchmark,
    mode: MachineMode,
    config: MachineConfig,
) -> Result<RunOutcome, RunError> {
    run_benchmark_observed(bench, mode, config, &Observe::default())
}

/// Observability requests for [`run_benchmark_observed`]: what to record
/// while the benchmark runs. The default observes nothing (identical to
/// [`run_benchmark`]).
#[derive(Debug, Clone, Default)]
pub struct Observe {
    /// Fold stall attribution into [`RunStats::stalls`]
    /// (see `coupling::report::stall_report`).
    pub profile: bool,
    /// Stream one JSON event per line to this file.
    pub jsonl: Option<PathBuf>,
    /// Write a Chrome `trace_event` array (Perfetto-loadable) to this
    /// file.
    pub chrome: Option<PathBuf>,
    /// Which issue engine to simulate with. All engines produce
    /// bit-identical results; this only trades host cost for
    /// simplicity (the decoded default is the fastest).
    pub engine: EngineKind,
    /// Collect the host-side phase profile (sampled wall timers and
    /// wake-repair event counters; see [`pc_sim::HostProfile`]). Purely
    /// host-side — the simulated results are bit-identical either way.
    pub host_telemetry: bool,
}

impl Observe {
    /// Stall profiling only, no event files.
    pub fn profiled() -> Self {
        Observe {
            profile: true,
            ..Observe::default()
        }
    }
}

/// [`run_benchmark`] with observability: stall profiling and/or
/// structured trace sinks. Observation never changes the simulated
/// schedule — the returned stats differ from an unobserved run only in
/// [`RunStats::stalls`].
///
/// # Errors
/// See [`RunError`]; sink files that cannot be created surface as
/// [`RunError::Io`].
pub fn run_benchmark_observed(
    bench: &Benchmark,
    mode: MachineMode,
    config: MachineConfig,
    observe: &Observe,
) -> Result<RunOutcome, RunError> {
    let image = compile_image(bench, mode, &config, pc_compiler::CompileOptions::default())?;
    let run = run_image(bench, &image, config, observe)?;
    Ok(RunOutcome {
        stats: run.stats,
        peak_registers: image.peak_registers,
        debug: image.debug,
        engine: run.engine,
        host_profile: run.host_profile,
    })
}

/// A benchmark compiled for one [`pc_compiler::CompileKey`]: it runs
/// unchanged on every configuration with that key, whatever its
/// interconnect, memory model or seed.
#[derive(Debug, Clone)]
pub struct Image {
    /// The executable program, shared by every machine built from it.
    pub program: Arc<Program>,
    /// Compiler diagnostics per segment.
    pub segments: Vec<SegmentInfo>,
    /// Source-provenance side table from the compiler.
    pub debug: pc_isa::DebugMap,
    /// Peak per-cluster register count over all segments.
    pub peak_registers: u32,
}

/// What simulating an [`Image`] produces (see [`RunOutcome`] for the
/// fields).
#[derive(Debug, Clone)]
pub struct ImageRun {
    /// Simulator statistics.
    pub stats: RunStats,
    /// The issue engine that actually produced the run.
    pub engine: EngineKind,
    /// Host-side phase profile ([`Observe::host_telemetry`] runs only).
    pub host_profile: Option<pc_sim::HostProfile>,
}

/// Compiles `bench`'s `mode` source for `config` — the compile half of
/// [`run_benchmark`].
///
/// # Errors
/// [`RunError::Unsupported`] or [`RunError::Compile`].
pub fn compile_image(
    bench: &Benchmark,
    mode: MachineMode,
    config: &MachineConfig,
    options: pc_compiler::CompileOptions,
) -> Result<Image, RunError> {
    let src = bench.source(mode).ok_or(RunError::Unsupported {
        bench: bench.name,
        mode,
    })?;
    let out = pc_compiler::compile_with_options(src, config, mode.schedule_mode(), options)?;
    Ok(Image {
        peak_registers: out.peak_registers(),
        program: Arc::new(out.program),
        segments: out.info,
        debug: out.debug,
    })
}

/// Simulates `image` on `config` and validates the benchmark's output —
/// the run half of [`run_benchmark`]. `image` must have been compiled
/// from `bench` for a configuration with `config`'s
/// [`pc_compiler::CompileKey`].
///
/// # Errors
/// [`RunError::Sim`], [`RunError::Check`], or [`RunError::Io`] for sink
/// files that cannot be created.
pub fn run_image(
    bench: &Benchmark,
    image: &Image,
    config: MachineConfig,
    observe: &Observe,
) -> Result<ImageRun, RunError> {
    let mut machine = Machine::new_shared(config, Arc::clone(&image.program))?;
    machine.set_engine(observe.engine);
    (bench.setup)(&mut machine)?;
    if observe.profile {
        machine.enable_profiling();
    }
    if observe.host_telemetry {
        machine.enable_host_telemetry();
    }
    let mut fan = Fanout::new();
    if let Some(path) = &observe.jsonl {
        let f = create_sink_file(path)?;
        fan = fan.with(Box::new(JsonlSink::new(BufWriter::new(f))));
    }
    if let Some(path) = &observe.chrome {
        let f = create_sink_file(path)?;
        fan = fan.with(Box::new(ChromeTraceSink::with_debug(
            BufWriter::new(f),
            image.debug.clone(),
        )));
    }
    if !fan.is_empty() {
        machine.attach_probe(Box::new(fan));
    }
    let stats = machine.run(CYCLE_LIMIT)?;
    // Flush sink trailers before the stats leave the machine.
    machine.take_probe();
    let engine = machine.engine();
    let host_profile = machine.host_profile();
    (bench.check)(&mut machine).map_err(RunError::Check)?;
    Ok(ImageRun {
        stats,
        engine,
        host_profile,
    })
}

/// Creates a trace-sink file, creating missing parent directories first
/// so `--chrome out/traces/run.json` works on a fresh checkout. Failures
/// carry the offending path in the error message.
fn create_sink_file(path: &PathBuf) -> Result<std::fs::File, RunError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                RunError::Io(std::io::Error::new(
                    e.kind(),
                    format!("cannot create trace directory {}: {e}", parent.display()),
                ))
            })?;
        }
    }
    std::fs::File::create(path).map_err(|e| {
        RunError::Io(std::io::Error::new(
            e.kind(),
            format!("cannot create trace file {}: {e}", path.display()),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn unsupported_mode_is_reported() {
        // The queue variants are the remaining benchmarks without an
        // Ideal source (all four paper benchmarks now have one).
        let b = benchmarks::model_queue_coupled();
        let err = run_benchmark(&b, MachineMode::Ideal, MachineConfig::baseline()).unwrap_err();
        assert!(matches!(err, RunError::Unsupported { .. }));
        assert!(err.to_string().contains("Ideal"));
    }

    #[test]
    fn matrix_runs_and_validates_in_seq_mode() {
        let b = benchmarks::matrix();
        let out = run_benchmark(&b, MachineMode::Seq, MachineConfig::baseline()).unwrap();
        assert!(out.stats.cycles > 100, "cycles {}", out.stats.cycles);
        assert_eq!(out.stats.threads_spawned, 1);
    }

    #[test]
    fn matrix_runs_and_validates_in_coupled_mode() {
        let b = benchmarks::matrix();
        let out = run_benchmark(&b, MachineMode::Coupled, MachineConfig::baseline()).unwrap();
        assert_eq!(out.stats.threads_spawned, 10); // main + 9 rows
    }
}
