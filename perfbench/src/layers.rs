//! The traced run's view of one cell: the same pipeline `run_sweep`
//! drives (cache lookup → compile → decode → simulate → validate →
//! encode → cache store), called through each layer's public function
//! with a span around every call, plus a phase-by-phase replay of the
//! compiler that must reproduce `compile_with_options` exactly.

use crate::trace::{Span, Tracer};
use coupling::benchmarks::Benchmark;
use coupling::runner::CYCLE_LIMIT;
use coupling::sweep::codec::stats_to_json;
use coupling::sweep::{cache_key, CachedResult, ResultCache, SweepCell};
use pc_compiler::ir::Func;
use pc_compiler::{front, lower, opt, sched, CompileOptions};
use pc_isa::{DebugMap, Program, SegmentId};
use pc_sim::{DecodedProgram, Machine, RunStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One traced cell.
pub struct CellRun {
    /// Root span `cell` with one child per layer call.
    pub spans: Vec<Span>,
    /// The simulated result (must equal the untraced sweep's row).
    pub stats: RunStats,
    /// Decoded op records in the image the cell simulated.
    pub decode_ops: usize,
    /// Whether the cache lookup hit.
    pub hit: bool,
}

/// Runs one cell through the layers with a span around each call.
///
/// # Errors
/// Any layer's failure, naming the cell.
pub fn traced_cell(
    cell: &SweepCell,
    bench: &Benchmark,
    cache: &ResultCache,
    epoch: Instant,
) -> Result<CellRun, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", cell.id());
    let mut t = Tracer::new(epoch, cell.index);
    let root = t.begin("cell", None);
    let config = cell.config();
    let src = bench
        .source(cell.mode)
        .ok_or_else(|| fail("source", &"no variant for this mode"))?;
    let (key, hit) = t.time("cache.lookup", root, || {
        let key = cache_key(&cell.bench, cell.mode, src, &config);
        let hit = cache.lookup(&key);
        (key, hit)
    });
    if let Some(hit) = hit {
        t.end(root);
        return Ok(CellRun {
            spans: t.into_spans(),
            stats: hit.stats,
            decode_ops: 0,
            hit: true,
        });
    }
    let out = t
        .time("compiler", root, || {
            pc_compiler::compile_with_options(
                src,
                &config,
                cell.mode.schedule_mode(),
                CompileOptions::default(),
            )
        })
        .map_err(|e| fail("compile", &e))?;
    let peak_registers = out.peak_registers();
    let code = t
        .time("decode", root, || {
            DecodedProgram::decode(config.clone(), Arc::new(out.program))
        })
        .map_err(|e| fail("decode", &e))?;
    let decode_ops = code.n_ops();
    let mut machine = t
        .time("sim.setup", root, || {
            let mut m = Machine::from_decoded(Arc::new(code))?;
            (bench.setup)(&mut m)?;
            Ok::<_, pc_sim::SimError>(m)
        })
        .map_err(|e| fail("sim setup", &e))?;
    let stats = t
        .time("sim.run", root, || machine.run(CYCLE_LIMIT))
        .map_err(|e| fail("simulate", &e))?;
    t.time("validate", root, || (bench.check)(&mut machine))
        .map_err(|e| fail("validate", &e))?;
    let json = t.time("codec.encode", root, || stats_to_json(&stats));
    std::hint::black_box(json);
    t.time("cache.store", root, || {
        let result = CachedResult {
            stats: stats.clone(),
            peak_registers,
        };
        cache.store(&key, &cell.id(), &result)
    })
    .map_err(|e| fail("cache store", &e))?;
    t.end(root);
    Ok(CellRun {
        spans: t.into_spans(),
        stats,
        decode_ops,
        hit: false,
    })
}

/// One cell's compiler replay.
pub struct Replay {
    /// Root span `replay` holding the reference `compiler` call and the
    /// replayed phases `front`, `lower`, `opt` (with one child per pass
    /// invocation, named `opt.<pass>`), `sched` and `assemble`.
    pub spans: Vec<Span>,
    /// Optimizer fixpoint iterations, summed over the program's funcs.
    pub opt_iters: u64,
    /// IR instructions left after optimization.
    pub ir_ops: usize,
    /// Static schedule rows emitted, over all segments.
    pub sched_rows: usize,
}

/// Compiles the cell's program once through `compile_with_options` and
/// once phase by phase through the compiler's public passes, timing
/// each phase.
///
/// # Errors
/// A compile failure, or a replay whose optimized IR differs from
/// `opt::optimize_with`'s or whose program differs from
/// `compile_with_options`'s — per-phase numbers of a diverging replay
/// would not describe the real pipeline.
pub fn replay_compile(
    cell: &SweepCell,
    bench: &Benchmark,
    epoch: Instant,
) -> Result<Replay, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", cell.id());
    let config = cell.config();
    let mode = cell.mode.schedule_mode();
    let options = CompileOptions::default();
    let src = bench
        .source(cell.mode)
        .ok_or_else(|| fail("source", &"no variant for this mode"))?;
    let mut t = Tracer::new(epoch, cell.index);
    let root = t.begin("replay", None);
    let compile = |t: &mut Tracer| {
        t.time("compiler", root, || {
            pc_compiler::compile_with_options(src, &config, mode, options)
        })
        .map_err(|e| fail("compile", &e))
    };
    // The reference compile runs before the replay on even cells and
    // after it on odd ones, so warm-up favours neither side of the
    // `compiler.emit.ms` difference.
    let early = if cell.index.is_multiple_of(2) {
        Some(compile(&mut t)?)
    } else {
        None
    };

    let module = t
        .time("front", root, || front::expand(src))
        .map_err(|e| fail("front", &e))?;
    let k = config.arith_clusters().count().max(1);
    let mut ir = t
        .time("lower", root, || {
            lower::lower(&module, lower::LowerOptions { forall_variants: k })
        })
        .map_err(|e| fail("lower", &e))?;
    let mut opt_iters = 0;
    if options.optimize {
        let expected: Vec<Func> = ir
            .funcs
            .iter()
            .map(|f| {
                let mut f = f.clone();
                opt::optimize_with(&mut f, options.licm);
                f
            })
            .collect();
        let span = t.begin("opt", Some(root));
        for f in &mut ir.funcs {
            opt_iters += optimize_traced(f, options.licm, &mut t, span);
        }
        t.end(span);
        if ir.funcs != expected {
            return Err(fail(
                "replay",
                &"phase-by-phase optimizer IR differs from opt::optimize_with",
            ));
        }
    }
    let ir_ops = ir
        .funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len())
        .sum();

    let span = t.begin("sched", Some(root));
    let mut scheduled: Vec<Option<sched::Scheduled>> = vec![None; ir.funcs.len()];
    let mut child_params = HashMap::new();
    for idx in (0..ir.funcs.len()).rev() {
        let s = sched::schedule_func(&ir.funcs[idx], &config, mode, &child_params)
            .map_err(|e| fail("sched", &e))?;
        child_params.insert(idx, s.param_regs.clone());
        scheduled[idx] = Some(s);
    }
    t.end(span);

    let span = t.begin("assemble", Some(root));
    let mut program = Program::new();
    let mut debug = DebugMap {
        spans: ir.spans.clone(),
        loops: ir.loops.clone(),
        segments: Vec::new(),
    };
    let mut sched_rows = 0;
    for s in scheduled.into_iter().flatten() {
        sched_rows += s.segment.rows.len();
        debug.segments.push(s.debug);
        program.add_segment(s.segment);
    }
    program.entry = SegmentId(0);
    for (name, _addr, len, _ty) in &ir.symbols {
        program.alloc_symbol(name.clone(), *len);
    }
    pc_isa::validate_program(&program, &config).map_err(|e| fail("assemble", &e))?;
    t.end(span);
    let reference = match early {
        Some(r) => r,
        None => compile(&mut t)?,
    };
    t.end(root);

    if pc_asm::print_program(&program) != pc_asm::print_program(&reference.program)
        || debug != reference.debug
    {
        return Err(fail(
            "replay",
            &"phase-by-phase program differs from compile_with_options",
        ));
    }
    Ok(Replay {
        spans: t.into_spans(),
        opt_iters,
        ir_ops,
        sched_rows,
    })
}

/// `opt::optimize_with`'s fixpoint loop, one span per pass invocation.
/// Returns the iterations run.
fn optimize_traced(f: &mut Func, licm: bool, t: &mut Tracer, parent: u32) -> u64 {
    let mut iters = 0;
    for _ in 0..8 {
        iters += 1;
        let mut changed = false;
        changed |= t.time("opt.fold", parent, || opt::fold_and_propagate(f));
        changed |= t.time("opt.algebraic", parent, || opt::algebraic(f));
        changed |= t.time("opt.cse", parent, || opt::cse(f));
        changed |= t.time("opt.coalesce_copies", parent, || opt::coalesce_copies(f));
        changed |= t.time("opt.copy_propagate", parent, || opt::copy_propagate(f));
        if licm {
            changed |= t.time("opt.licm", parent, || opt::licm(f));
        }
        changed |= t.time("opt.dce", parent, || opt::dce(f));
        if !changed {
            break;
        }
    }
    iters
}
