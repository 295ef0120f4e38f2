//! Differential testing of the two issue engines against each other.
//!
//! The decoded engine (readiness bitmasks, targeted cache repair, bulk
//! idle-cycle skipping, pre-resolved operands, threaded-code dispatch)
//! is a pure performance restructuring: for every benchmark and machine
//! mode it must produce a
//! [`pc_sim::RunStats`] that is *bit-identical* to the scan-every-cycle
//! reference engine's — cycle counts, per-unit op counts, and the full
//! stall table including the per-slot attribution counters. Any
//! divergence is a scheduling bug, not noise.

use coupling::{benchmarks, MachineMode};
use pc_isa::MachineConfig;
use pc_sim::{DecodedProgram, EngineKind, Machine, RunStats};
use std::sync::Arc;

/// Runs one benchmark variant on the chosen issue engine, from a
/// shared decoded image (decode happens once per benchmark × mode, as
/// it would at `Machine` load time).
fn run_engine(
    bench: &coupling::Benchmark,
    mode: MachineMode,
    code: &Arc<DecodedProgram>,
    engine: EngineKind,
    profiled: bool,
) -> RunStats {
    let mut machine = Machine::from_decoded(Arc::clone(code)).unwrap();
    machine.set_engine(engine);
    if profiled {
        machine.enable_profiling();
    }
    (bench.setup)(&mut machine).unwrap();
    machine
        .run(20_000_000)
        .unwrap_or_else(|e| panic!("{} {} {}: {e}", bench.name, mode.label(), engine.name()))
}

/// Asserts bit-identical stats across both engines, plain and profiled,
/// for every mode the benchmark supports. The scan engine is the oracle;
/// decoded must match it exactly.
fn engines_agree(bench: &coupling::Benchmark) {
    for mode in MachineMode::all() {
        let Some(src) = bench.source(mode) else {
            continue;
        };
        let config = MachineConfig::baseline();
        let out = pc_compiler::compile(src, &config, mode.schedule_mode())
            .unwrap_or_else(|e| panic!("{} {}: {e}", bench.name, mode.label()));
        let code = Arc::new(DecodedProgram::decode(config, Arc::new(out.program)).unwrap());
        for profiled in [false, true] {
            let reference = run_engine(bench, mode, &code, EngineKind::Scan, profiled);
            let fast = run_engine(bench, mode, &code, EngineKind::Decoded, profiled);
            // The stall table first, for a readable failure.
            assert_eq!(
                fast.stalls,
                reference.stalls,
                "{} {} (profiled={profiled}): stall tables diverge",
                bench.name,
                mode.label()
            );
            assert_eq!(
                fast,
                reference,
                "{} {} (profiled={profiled}): stats diverge",
                bench.name,
                mode.label()
            );
        }
    }
}

#[test]
fn matrix_engines_agree() {
    engines_agree(&benchmarks::matrix());
}

#[test]
fn fft_engines_agree() {
    engines_agree(&benchmarks::fft());
}

#[test]
fn lud_engines_agree() {
    engines_agree(&benchmarks::lud());
}

#[test]
fn model_engines_agree() {
    engines_agree(&benchmarks::model());
}
