//! simcore — throughput baseline for the simulator hot loop.
//!
//! Times the **simulation phase** — machine construction on a shared
//! decoded image, input setup, and the cycle loop — for the full
//! benchmark × machine mode cross-product. Compilation *and* decode
//! happen once per case outside the timed region: compile cost is
//! measured end to end by `perfbench/`, and decode is load-time work by
//! design (`DecodedProgram` is built when a program is loaded and shared
//! across every run of it, exactly as the sweep engine and the timed
//! loop here use it). Coupled mode additionally gets a row for the
//! `scan` oracle engine so the decoded engine's margin is itself
//! regression-gated. Results are written to `BENCH_simcore.json`
//! (schema v5: each case records the `engine` that produced it) at the
//! workspace root so future changes can be compared against the
//! committed baseline:
//!
//! ```sh
//! cargo bench -p pc-bench --bench simcore
//! git diff BENCH_simcore.json   # the trajectory
//! ```

use coupling::{benchmarks, default_jobs, run_benchmark, MachineMode};
use criterion::{criterion_group, criterion_main, Criterion};
use pc_isa::MachineConfig;
use pc_sim::{DecodedProgram, EngineKind, Machine};
use std::sync::Arc;
use std::time::Duration;

/// Where the machine-readable baseline lands: the workspace root.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json");

/// Cycle budget per simulation (far above any benchmark's real length).
const CYCLE_LIMIT: u64 = 20_000_000;

fn bench(c: &mut Criterion) {
    // CI smoke mode (PC_BENCH_QUICK=1): shrink the statistical budget so
    // the whole target takes seconds; the perf gate allows 25% noise.
    let quick = pc_bench::quick_mode();
    let (samples, measure, warmup) = if quick {
        (3, Duration::from_millis(250), Duration::from_millis(50))
    } else {
        (
            pc_bench::SAMPLES,
            Duration::from_secs(2),
            Duration::from_millis(300),
        )
    };

    // Hot-loop throughput: the full benchmark × mode cross-product.
    // Each case compiles and decodes once, then every timed iteration
    // builds a machine on the shared decoded image, sets up inputs, and
    // runs — the simulation phase the `sim_cycles_per_sec` metric
    // describes. One validated pipeline run up front pins the cycle
    // count (simulation is deterministic) and keeps the numerics
    // honest. Per case: `(id, cycles, engine)`.
    let mut cycles_per_case: Vec<(String, u64, &'static str)> = Vec::new();
    {
        let mut g = c.benchmark_group("simcore");
        g.sample_size(samples)
            .measurement_time(measure)
            .warm_up_time(warmup);
        for b in benchmarks::all() {
            for mode in MachineMode::all() {
                let Some(src) = b.source(mode) else { continue };
                let config = MachineConfig::baseline();
                let out = run_benchmark(&b, mode, config.clone()).expect("validated run");
                let compiled =
                    pc_compiler::compile(src, &config, mode.schedule_mode()).expect("compile");
                let code = Arc::new(
                    DecodedProgram::decode(config, Arc::new(compiled.program)).expect("decode"),
                );
                let id = format!("{}/{}", b.name, mode.label());
                cycles_per_case.push((
                    format!("simcore/{id}"),
                    out.stats.cycles,
                    EngineKind::Decoded.name(),
                ));
                g.bench_function(&id, |bench| {
                    bench.iter(|| {
                        let mut m = Machine::from_decoded(Arc::clone(&code)).unwrap();
                        (b.setup)(&mut m).unwrap();
                        m.run(CYCLE_LIMIT).unwrap()
                    })
                });
                // Cross-engine row: the scan oracle on the mode the decoded
                // engine was built to accelerate. Its id ends with the
                // engine name, so `/Coupled` floors don't catch it.
                if mode == MachineMode::Coupled {
                    let engine = EngineKind::Scan;
                    let eid = format!("{id}/{}", engine.name());
                    cycles_per_case.push((
                        format!("simcore/{eid}"),
                        out.stats.cycles,
                        engine.name(),
                    ));
                    g.bench_function(&eid, |bench| {
                        bench.iter(|| {
                            let mut m = Machine::from_decoded(Arc::clone(&code)).unwrap();
                            m.set_engine(engine);
                            (b.setup)(&mut m).unwrap();
                            m.run(CYCLE_LIMIT).unwrap()
                        })
                    });
                }
            }
        }
        // Traced-vs-untraced pair: Matrix/Coupled with stall profiling on.
        // Compare against the plain Matrix/Coupled case above to see the
        // cost of observation; the untraced number is what the gate
        // protects (tracing off must stay free).
        {
            let b = benchmarks::matrix();
            let mode = MachineMode::Coupled;
            let config = MachineConfig::baseline();
            let out = run_benchmark(&b, mode, config.clone()).expect("validated run");
            let compiled =
                pc_compiler::compile(b.source(mode).unwrap(), &config, mode.schedule_mode())
                    .expect("compile");
            let code = Arc::new(
                DecodedProgram::decode(config, Arc::new(compiled.program)).expect("decode"),
            );
            cycles_per_case.push((
                "simcore/Matrix/Coupled/profiled".to_string(),
                out.stats.cycles,
                EngineKind::Decoded.name(),
            ));
            g.bench_function("Matrix/Coupled/profiled", |bench| {
                bench.iter(|| {
                    let mut m = Machine::from_decoded(Arc::clone(&code)).unwrap();
                    m.enable_profiling();
                    (b.setup)(&mut m).unwrap();
                    m.run(CYCLE_LIMIT).unwrap()
                })
            });
        }
        g.finish();
    }

    // Machine-readable baseline.
    let mut cases = String::new();
    for r in c.results() {
        let (cycles, engine) = cycles_per_case
            .iter()
            .find(|(id, _, _)| *id == r.id)
            .map(|&(_, c, e)| (c, e))
            .unwrap_or((0, "decoded"));
        let mean_ns = r.mean.as_nanos();
        let cps = if mean_ns == 0 {
            0.0
        } else {
            cycles as f64 * 1e9 / mean_ns as f64
        };
        if !cases.is_empty() {
            cases.push_str(",\n");
        }
        cases.push_str(&format!(
            "    {{\"id\": \"{}\", \"engine\": \"{engine}\", \"mean_ns\": {}, \
             \"iterations\": {}, \"cycles_per_run\": {}, \"sim_cycles_per_sec\": {:.0}}}",
            r.id, mean_ns, r.iterations, cycles, cps
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"simcore-baseline-v5\",\n  \"host_cpus\": {},\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        default_jobs(),
        cases,
    );
    std::fs::write(BASELINE_PATH, &json).expect("write BENCH_simcore.json");
    eprintln!("wrote {BASELINE_PATH}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
