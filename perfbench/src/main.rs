//! perfbench — the cell-pipeline benchmark.
//!
//! ```text
//! perfbench --workload <grid-compile|grid-sim|tables> --seed N --seconds S --trace <0|1>
//!           [--metric NAME]...
//! ```
//!
//! With `--trace 0` it repeats the workload through the public entry
//! points users drive (`coupling::run_sweep`, the experiments behind
//! `pcsim tables`) for about `S` seconds on `available_parallelism`
//! worker threads and reports the end-to-end metrics. With `--trace 1`
//! it alternates those untraced passes with traced passes that re-drive
//! the same cells through each layer's public functions, a span around
//! every call, and reports the per-layer ledger. Every pass is checked
//! for correct output; any failure exits 1 without printing a result.
//! The last line of stdout is one JSON object:
//! `{"correct":true,"attempted":N,"failed":0,"metrics":{NAME:{"value":V,"unit":U},...}}`.

mod layers;
mod stats;
mod trace;

use coupling::benchmarks::{self, Benchmark};
use coupling::experiments::{
    ablation, baseline, comm, interference, latency, mix, registers, scaling,
};
use coupling::sweep::{MemKind, ResultCache, SweepCell, SweepOptions, SweepSpec};
use coupling::{par_map, run_sweep, RunError};
use layers::{CellRun, Replay};
use pc_sim::RunStats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Span;

const USAGE: &str = "usage: perfbench --workload <grid-compile|grid-sim|tables> --seed N \
                     --seconds S --trace <0|1> [--metric NAME]...";

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. Layers a workload does
/// not drive through the traced path read 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("compiler.calls", "count"),
    ("compiler.self_ms", "ms"),
    ("compiler.call_ms_p50", "ms"),
    ("compiler.call_ms_p95", "ms"),
    ("compiler.front.ms", "ms"),
    ("compiler.lower.ms", "ms"),
    ("compiler.opt.ms", "ms"),
    ("compiler.opt.cse.ms", "ms"),
    ("compiler.opt.copy_propagate.ms", "ms"),
    ("compiler.opt.iters", "count"),
    ("compiler.sched.ms", "ms"),
    ("compiler.emit.ms", "ms"),
    ("compiler.ir_ops", "count"),
    ("compiler.sched_rows", "count"),
    ("decode.calls", "count"),
    ("decode.self_ms", "ms"),
    ("decode.ops", "count"),
    ("sim.calls", "count"),
    ("sim.setup_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.ops_issued", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("validate.self_ms", "ms"),
    ("cache.lookup.ms", "ms"),
    ("cache.hit_ratio", "frac"),
    ("cache.store.ms", "ms"),
    ("codec.encode.ms", "ms"),
    ("pool.busy_frac", "frac"),
    ("pool.tail_ms", "ms"),
    ("pool.unattributed_ms", "ms"),
    ("tables.table2.ms", "ms"),
    ("tables.fig5.ms", "ms"),
    ("tables.table3.ms", "ms"),
    ("tables.fig6.ms", "ms"),
    ("tables.fig7.ms", "ms"),
    ("tables.fig8.ms", "ms"),
    ("tables.ablations.ms", "ms"),
    ("tables.registers.ms", "ms"),
    ("tables.scaling.ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("failed_frac", "frac"),
];

/// The experiments `pcsim tables` prints, in its order, with the span
/// each gets in a traced pass.
const EXPERIMENTS: [(&str, &str); 9] = [
    ("table2", "tables.table2"),
    ("fig5", "tables.fig5"),
    ("table3", "tables.table3"),
    ("fig6", "tables.fig6"),
    ("fig7", "tables.fig7"),
    ("fig8", "tables.fig8"),
    ("ablations", "tables.ablations"),
    ("registers", "tables.registers"),
    ("scaling", "tables.scaling"),
];

/// The seed whose per-cell results are kept in `golden/`. Cells on the
/// Min memory model draw no random numbers, so their goldens hold for
/// every seed.
const GOLDEN_SEED: u64 = 0;
const GOLDEN_GRID_COMPILE: &str = include_str!("../golden/grid-compile.txt");
const GOLDEN_GRID_SIM: &str = include_str!("../golden/grid-sim.txt");
const GOLDEN_TABLES: &str = include_str!("../golden/tables.txt");

/// Compile calls `compiler.call_ms_p95` needs above it.
const TAIL_SAMPLES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    GridCompile,
    GridSim,
    Tables,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "grid-compile" => Ok(Workload::GridCompile),
            "grid-sim" => Ok(Workload::GridSim),
            "tables" => Ok(Workload::Tables),
            _ => Err(format!(
                "unknown workload {s:?} (want grid-compile, grid-sim or tables)"
            )),
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    metrics: Vec<String>,
}

/// Parses the command line. Every flag but `--metric` is required and
/// given once; every flag takes a value; nothing defaults.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut metrics = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = match it.next() {
            Some(v) if !v.starts_with("--") => v.as_str(),
            _ => return Err(format!("{flag} needs a value")),
        };
        let twice = || format!("{flag} given twice");
        match flag.as_str() {
            "--workload" => {
                if workload.replace(Workload::parse(value)?).is_some() {
                    return Err(twice());
                }
            }
            "--seed" => {
                let v = value
                    .parse::<u64>()
                    .map_err(|_| format!("--seed wants an unsigned integer, got {value:?}"))?;
                if seed.replace(v).is_some() {
                    return Err(twice());
                }
            }
            "--seconds" => {
                let v = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds wants 1..=3600, got {value:?}"))?;
                if seconds.replace(v).is_some() {
                    return Err(twice());
                }
            }
            "--trace" => {
                let v = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                };
                if trace.replace(v).is_some() {
                    return Err(twice());
                }
            }
            "--metric" => metrics.push(value.to_string()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        metrics,
    };
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in &args.metrics {
        if !catalog.iter().any(|(name, _)| name == m) {
            let other: &[(&str, &str)] = if args.trace { &END_TO_END } else { &PER_LAYER };
            return Err(if other.iter().any(|(name, _)| name == m) {
                format!(
                    "metric {m:?} is reported only with --trace {}",
                    u8::from(!args.trace)
                )
            } else {
                format!("unknown metric {m:?}")
            });
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => print_result(&args, &out),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What a run reports.
struct Outcome {
    /// Cells (grids) or experiments (tables) run and checked.
    attempted: usize,
    metrics: BTreeMap<&'static str, f64>,
}

fn print_result(args: &Args, out: &Outcome) {
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for (name, unit) in catalog {
        if !args.metrics.is_empty() && !args.metrics.iter().any(|m| m == name) {
            continue;
        }
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<32} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":0,\"metrics\":{{{json}}}}}",
        out.attempted
    );
}

fn run(args: &Args) -> Result<Outcome, String> {
    let jobs = coupling::default_jobs();
    eprintln!(
        "perfbench: workload {:?}, seed {}, {} s, trace {}, jobs {jobs}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let root = PathBuf::from(".bench_build/perfbench-work");
    let work = root.join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = match (args.workload, args.trace) {
        (Workload::Tables, false) => tables_end_to_end(args, jobs),
        (Workload::Tables, true) => tables_traced(args, jobs, &root),
        (_, false) => grid_end_to_end(args, jobs, &work),
        (_, true) => grid_traced(args, jobs, &work, &root),
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Calls `pass` repeatedly while another pass of the last one's length
/// still fits in `seconds` (at least `min_passes` times). Returns each
/// pass's wall time in seconds.
fn repeat_for(
    seconds: u64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(pass(walls.len())?);
        let next = start.elapsed().as_secs_f64() + walls[walls.len() - 1];
        if walls.len() >= min_passes && next > seconds as f64 {
            return Ok(walls);
        }
    }
}

/// Median of the pass wall times, with their quartiles on stderr so a
/// run shows its own spread.
fn median_wall(walls: &[f64]) -> f64 {
    if walls.len() >= 2 {
        let [q1, q2, q3] = stats::quartiles(walls);
        let all: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        eprintln!(
            "perfbench: {} passes, wall s quartiles {q1:.4} {q2:.4} {q3:.4} [{}]",
            walls.len(),
            all.join(" ")
        );
    }
    stats::median(walls)
}

// ---------------------------------------------------------------------
// Grid workloads
// ---------------------------------------------------------------------

/// A grid workload, ready to run.
struct Grid {
    spec: SweepSpec,
    cells: Vec<SweepCell>,
    suite: Vec<Benchmark>,
    seed: u64,
    /// Golden `(cycles, ops_issued)` by seedless cell id.
    golden: BTreeMap<String, (u64, u64)>,
    /// The first pass's results; every later pass must equal them.
    reference: Option<Vec<RunStats>>,
}

impl Grid {
    /// `SweepSpec::full()` restricted to the workload's benchmarks.
    fn prepare(workload: Workload, seed: u64) -> Result<Grid, String> {
        let (benches, golden_text): (&[&str], &str) = match workload {
            Workload::GridCompile => (&["matrix", "fft", "model"], GOLDEN_GRID_COMPILE),
            Workload::GridSim => (&["lud"], GOLDEN_GRID_SIM),
            Workload::Tables => unreachable!("tables is not a grid"),
        };
        let spec = SweepSpec {
            benches: benches.iter().map(|b| b.to_string()).collect(),
            seed,
            ..SweepSpec::full()
        };
        let cells = spec.cells()?;
        let mut golden = BTreeMap::new();
        for line in golden_text.lines().filter(|l| !l.starts_with('#')) {
            let mut f = line.split_whitespace();
            let parsed = (|| {
                let id = f.next()?.to_string();
                let cycles = f.next()?.parse().ok()?;
                let ops = f.next()?.parse().ok()?;
                Some((id, (cycles, ops)))
            })();
            let (id, v) = parsed.ok_or_else(|| format!("bad golden line {line:?}"))?;
            golden.insert(id, v);
        }
        Ok(Grid {
            spec,
            cells,
            suite: benchmarks::all(),
            seed,
            golden,
            reference: None,
        })
    }

    fn bench(&self, name: &str) -> &Benchmark {
        self.suite
            .iter()
            .find(|b| b.name.to_lowercase() == name)
            .expect("SweepSpec::cells validated benchmark names")
    }

    /// Checks one pass's per-cell results: the first against the goldens
    /// (every cell for the golden seed, Min-memory cells for any seed),
    /// every later one against the first, exactly.
    fn check(&mut self, stats: Vec<RunStats>, pass: &str) -> Result<(), String> {
        if stats.len() != self.cells.len() {
            return Err(format!(
                "{pass}: {} results for {} cells",
                stats.len(),
                self.cells.len()
            ));
        }
        if let Some(reference) = &self.reference {
            for ((cell, got), want) in self.cells.iter().zip(&stats).zip(reference) {
                if got != want {
                    return Err(format!(
                        "{pass}: cell {} differs from the first pass ({} vs {} cycles)",
                        cell.id(),
                        got.cycles,
                        want.cycles
                    ));
                }
            }
            return Ok(());
        }
        if self.seed == GOLDEN_SEED && self.golden.len() != self.cells.len() {
            return Err(format!(
                "golden holds {} cells, the grid has {}",
                self.golden.len(),
                self.cells.len()
            ));
        }
        for (cell, s) in self.cells.iter().zip(&stats) {
            if self.seed != GOLDEN_SEED && cell.memory != MemKind::Min {
                continue;
            }
            let id = golden_id(cell);
            match self.golden.get(&id) {
                Some(&want) if want == (s.cycles, s.ops_issued) => {}
                Some(&(cycles, ops)) => {
                    return Err(format!(
                        "{pass}: cell {id}: {} cycles / {} ops, golden {cycles} / {ops}",
                        s.cycles, s.ops_issued
                    ))
                }
                None => return Err(format!("{pass}: cell {id} has no golden")),
            }
        }
        self.reference = Some(stats);
        Ok(())
    }

    /// One cold `run_sweep` pass into a fresh cache directory; returns
    /// its wall time in seconds.
    fn sweep_pass(&mut self, jobs: usize, dir: &Path, pass: &str) -> Result<f64, String> {
        let opts = SweepOptions {
            jobs,
            cache_dir: Some(dir.to_path_buf()),
            ..SweepOptions::default()
        };
        let t = Instant::now();
        let summary = run_sweep(&self.spec, &opts).map_err(|e| format!("{pass}: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(dir);
        if summary.misses != self.cells.len() {
            return Err(format!(
                "{pass}: cold sweep ran {} of {} cells",
                summary.misses,
                self.cells.len()
            ));
        }
        self.check(summary.rows.into_iter().map(|r| r.stats).collect(), pass)?;
        Ok(wall)
    }
}

/// A cell's id without its seed suffix, as the goldens key it.
fn golden_id(cell: &SweepCell) -> String {
    let id = cell.id();
    match id.rsplit_once('/') {
        Some((stem, _seed)) => stem.to_string(),
        None => id,
    }
}

fn grid_end_to_end(args: &Args, jobs: usize, work: &Path) -> Result<Outcome, String> {
    // Each pass sets up afresh (grid, goldens, an empty cache directory),
    // so set-up is sampled as often as the passes and under the same
    // conditions; `setup_s` is the median.
    let mut setups = Vec::new();
    let mut grid: Option<Grid> = None;
    let walls = repeat_for(args.seconds, 1, |i| {
        let dir = work.join(format!("cache-{i}"));
        let t = Instant::now();
        let mut fresh = Grid::prepare(args.workload, args.seed)?;
        ResultCache::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        setups.push(t.elapsed().as_secs_f64());
        fresh.reference = grid.take().and_then(|g| g.reference);
        let wall = fresh.sweep_pass(jobs, &dir, &format!("pass {i}"))?;
        grid = Some(fresh);
        Ok(wall)
    })?;
    let wall_s = median_wall(&walls);
    let cells = grid.map_or(0, |g| g.cells.len());
    Ok(Outcome {
        attempted: cells * walls.len(),
        metrics: BTreeMap::from([
            ("setup_s", stats::median(&setups)),
            ("wall_s", wall_s),
            ("cells_per_s", cells as f64 / wall_s),
            ("peak_rss_mb", peak_rss_mib()?),
        ]),
    })
}

/// One traced pass: every cell through `layers::traced_cell` on the
/// sweep pool, into a fresh cache directory.
struct TracedPass {
    start: u64,
    end: u64,
    runs: Vec<CellRun>,
}

fn traced_pass(grid: &Grid, jobs: usize, dir: &Path, epoch: Instant) -> Result<TracedPass, String> {
    let cache = ResultCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let start = epoch.elapsed().as_nanos() as u64;
    let runs = par_map(&grid.cells, jobs, |cell| {
        layers::traced_cell(cell, grid.bench(&cell.bench), &cache, epoch)
    });
    let end = epoch.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(dir);
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    for run in &runs {
        trace::reconcile(&run.spans, &run.spans[0])?;
    }
    Ok(TracedPass { start, end, runs })
}

/// Per-layer totals of one traced pass.
fn pass_metrics(p: &TracedPass, jobs: usize) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&CellRun) -> f64| -> f64 { p.runs.iter().map(f).sum() };
    let wall_ns = (p.end - p.start) as f64;
    let workers = jobs.clamp(1, p.runs.len().max(1)) as f64;
    let cell_ns = sum(&|r| r.spans[0].dur() as f64);
    let cell_self_ns = sum(&|r| trace::self_ns(&r.spans, &r.spans[0]) as f64);
    let last_start = p
        .runs
        .iter()
        .map(|r| r.spans[0].start)
        .max()
        .unwrap_or(p.start);
    let ms = |name: &str| sum(&|r| trace::self_ms(&r.spans, name));
    let calls = |name: &str| sum(&|r| trace::count(&r.spans, name) as f64);
    let sim_ms = ms("sim.run");
    let cycles = sum(&|r| r.stats.cycles as f64);
    let hits = sum(&|r| f64::from(u8::from(r.hit)));
    BTreeMap::from([
        ("compiler.calls", calls("compiler")),
        ("compiler.self_ms", ms("compiler")),
        ("decode.calls", calls("decode")),
        ("decode.self_ms", ms("decode")),
        ("decode.ops", sum(&|r| r.decode_ops as f64)),
        ("sim.calls", calls("sim.run")),
        ("sim.setup_ms", ms("sim.setup")),
        ("sim.self_ms", sim_ms),
        ("sim.cycles", cycles),
        ("sim.ops_issued", sum(&|r| r.stats.ops_issued as f64)),
        ("sim.ns_per_cycle", sim_ms * 1e6 / cycles.max(1.0)),
        ("validate.self_ms", ms("validate")),
        ("cache.lookup.ms", ms("cache.lookup")),
        ("cache.hit_ratio", hits / calls("cache.lookup")),
        ("cache.store.ms", ms("cache.store")),
        ("codec.encode.ms", ms("codec.encode")),
        ("pool.busy_frac", cell_ns / (wall_ns * workers)),
        ("pool.tail_ms", (p.end - last_start) as f64 / 1e6),
        ("pool.unattributed_ms", (wall_ns * workers - cell_ns) / 1e6),
        ("trace.unattributed_frac", cell_self_ns / cell_ns),
    ])
}

/// Per-phase compiler totals of the replay pass.
fn replay_metrics(replays: &[Replay]) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&Replay) -> f64| -> f64 { replays.iter().map(f).sum() };
    let total = |name: &'static str| sum(&|r| trace::total_ms(&r.spans, name));
    let phases = total("front") + total("lower") + total("opt") + total("sched");
    BTreeMap::from([
        ("compiler.front.ms", total("front")),
        ("compiler.lower.ms", total("lower")),
        ("compiler.opt.ms", total("opt")),
        ("compiler.opt.cse.ms", total("opt.cse")),
        (
            "compiler.opt.copy_propagate.ms",
            total("opt.copy_propagate"),
        ),
        ("compiler.opt.iters", sum(&|r| r.opt_iters as f64)),
        ("compiler.sched.ms", total("sched")),
        ("compiler.emit.ms", total("compiler") - phases),
        ("compiler.ir_ops", sum(&|r| r.ir_ops as f64)),
        ("compiler.sched_rows", sum(&|r| r.sched_rows as f64)),
    ])
}

/// Medians, key by key, of per-pass metric maps.
fn median_by_key(passes: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for key in passes[0].keys() {
        let xs: Vec<f64> = passes.iter().map(|m| m[key]).collect();
        out.insert(*key, stats::median(&xs));
    }
    out
}

fn grid_traced(args: &Args, jobs: usize, work: &Path, out_dir: &Path) -> Result<Outcome, String> {
    let mut grid = Grid::prepare(args.workload, args.seed)?;
    let epoch = Instant::now();
    // Enough traced passes that the pooled compile calls put ten samples
    // above the 95th percentile.
    let min_pairs = (20 * TAIL_SAMPLES).div_ceil(grid.cells.len());
    let mut untraced = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let pair_walls = repeat_for(args.seconds, min_pairs, |i| {
        let dir = work.join(format!("cache-{i}"));
        let mut traced_step = |grid: &mut Grid| -> Result<f64, String> {
            let p = traced_pass(grid, jobs, &dir, epoch)?;
            let stats = p.runs.iter().map(|r| r.stats.clone()).collect();
            grid.check(stats, &format!("traced pass {i}"))?;
            let wall = (p.end - p.start) as f64 / 1e9;
            traced.push(p);
            Ok(wall)
        };
        // Alternate which side of the pair runs first, so drift in the
        // host's speed does not bias the overhead estimate.
        let (u, t) = if i % 2 == 0 {
            let u = grid.sweep_pass(jobs, &dir, &format!("untraced pass {i}"))?;
            (u, traced_step(&mut grid)?)
        } else {
            let t = traced_step(&mut grid)?;
            (
                grid.sweep_pass(jobs, &dir, &format!("untraced pass {i}"))?,
                t,
            )
        };
        untraced.push(u);
        Ok(u + t)
    })?;
    let replays = par_map(&grid.cells, jobs, |cell| {
        layers::replay_compile(cell, grid.bench(&cell.bench), epoch)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    for r in &replays {
        trace::reconcile(&r.spans, &r.spans[0])?;
    }

    let per_pass: Vec<_> = traced.iter().map(|p| pass_metrics(p, jobs)).collect();
    let mut metrics = median_by_key(&per_pass);
    metrics.extend(replay_metrics(&replays));
    let calls: Vec<f64> = traced
        .iter()
        .flat_map(|p| &p.runs)
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == "compiler")
        .map(|s| s.dur() as f64 / 1e6)
        .collect();
    metrics.insert("compiler.call_ms_p50", stats::median(&calls));
    let p95 = stats::percentile_keeping(&calls, 95.0, TAIL_SAMPLES)
        .ok_or("too few compile calls for a 95th percentile")?;
    metrics.insert("compiler.call_ms_p95", p95);
    let traced_walls: Vec<f64> = traced
        .iter()
        .map(|p| (p.end - p.start) as f64 / 1e9)
        .collect();
    metrics.insert(
        "trace.overhead_frac",
        stats::median(&traced_walls) / stats::median(&untraced) - 1.0,
    );

    let mut jsonl = String::new();
    for (i, p) in traced.iter().enumerate() {
        for r in &p.runs {
            trace::write_jsonl(&mut jsonl, &format!("traced-{i}"), &r.spans);
        }
    }
    for r in &replays {
        trace::write_jsonl(&mut jsonl, "replay", &r.spans);
    }
    write_trace(out_dir, args, &jsonl)?;
    Ok(Outcome {
        attempted: grid.cells.len() * (2 * pair_walls.len() + 1),
        metrics,
    })
}

fn write_trace(dir: &Path, args: &Args, jsonl: &str) -> Result<(), String> {
    let name = match args.workload {
        Workload::GridCompile => "grid-compile",
        Workload::GridSim => "grid-sim",
        Workload::Tables => "tables",
    };
    let path = dir.join(format!("trace-{name}-s{}.jsonl", args.seed));
    std::fs::write(&path, jsonl).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------
// The tables workload
// ---------------------------------------------------------------------

/// Runs one experiment as `pcsim tables` does; returns its printed text
/// and its number of result rows.
fn experiment(name: &str, jobs: usize) -> Result<(String, usize), RunError> {
    let out = match name {
        "table2" => {
            let r = baseline::run_jobs(jobs)?;
            (r.table2().render(), r.rows.len())
        }
        "fig5" => {
            let r = baseline::run_jobs(jobs)?;
            (r.fig5().render(), r.rows.len())
        }
        "table3" => {
            let r = interference::run()?;
            (r.render(), r.rows.len())
        }
        "fig6" => {
            let r = comm::run_jobs(jobs)?;
            (r.render(), r.rows.len())
        }
        "fig7" => {
            let r = latency::run_jobs(jobs)?;
            (r.render(), r.rows.len())
        }
        "fig8" => {
            let r = mix::run_jobs(jobs)?;
            (r.render(), r.rows.len())
        }
        "ablations" => {
            let studies = ablation::run_all_jobs(jobs)?;
            let text: Vec<String> = studies.iter().map(|s| s.render()).collect();
            (text.join("\n"), studies.iter().map(|s| s.rows.len()).sum())
        }
        "registers" => {
            let r = registers::run_jobs(jobs)?;
            (r.render(), r.rows.len())
        }
        "scaling" => {
            let r = scaling::run_jobs(jobs)?;
            (r.render(), r.rows.len())
        }
        _ => unreachable!("EXPERIMENTS names only known experiments"),
    };
    Ok((out.0 + "\n", out.1))
}

/// One pass over every experiment, optionally with a span around each.
/// Returns the printed text and the total result rows.
fn tables_pass(
    jobs: usize,
    mut tracer: Option<&mut trace::Tracer>,
) -> Result<(String, usize), String> {
    let root = tracer.as_mut().map(|t| t.begin("pass", None));
    let mut text = String::new();
    let mut rows = 0;
    for (name, span) in EXPERIMENTS {
        let out = match (&mut tracer, root) {
            (Some(t), Some(root)) => t.time(span, root, || experiment(name, jobs)),
            _ => experiment(name, jobs),
        };
        let (t, n) = out.map_err(|e| format!("{name}: {e}"))?;
        text.push_str(&t);
        rows += n;
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.end(root);
    }
    Ok((text, rows))
}

/// The tables output must match the golden byte for byte.
fn check_tables(text: &str, pass: &str) -> Result<(), String> {
    if text == GOLDEN_TABLES {
        return Ok(());
    }
    let line = text
        .lines()
        .zip(GOLDEN_TABLES.lines())
        .position(|(a, b)| a != b)
        .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
    Err(format!(
        "{pass}: tables output differs from the golden at {line}"
    ))
}

fn tables_end_to_end(args: &Args, jobs: usize) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut rows = 0;
    let walls = repeat_for(args.seconds, 1, |i| {
        let t = Instant::now();
        std::hint::black_box(benchmarks::all());
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (text, n) = tables_pass(jobs, None)?;
        let wall = t.elapsed().as_secs_f64();
        check_tables(&text, &format!("pass {i}"))?;
        rows = n;
        Ok(wall)
    })?;
    let wall_s = median_wall(&walls);
    Ok(Outcome {
        attempted: EXPERIMENTS.len() * walls.len(),
        metrics: BTreeMap::from([
            ("setup_s", stats::median(&setups)),
            ("wall_s", wall_s),
            ("cells_per_s", rows as f64 / wall_s),
            ("peak_rss_mb", peak_rss_mib()?),
        ]),
    })
}

fn tables_traced(args: &Args, jobs: usize, out_dir: &Path) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut untraced = Vec::new();
    let mut traced: Vec<Vec<Span>> = Vec::new();
    let pairs = repeat_for(args.seconds, 1, |i| {
        let untraced_step = || -> Result<f64, String> {
            let t = Instant::now();
            let (text, _) = tables_pass(jobs, None)?;
            let wall = t.elapsed().as_secs_f64();
            check_tables(&text, &format!("untraced pass {i}"))?;
            Ok(wall)
        };
        let mut traced_step = || -> Result<f64, String> {
            let mut tracer = trace::Tracer::new(epoch, i);
            let (text, _) = tables_pass(jobs, Some(&mut tracer))?;
            check_tables(&text, &format!("traced pass {i}"))?;
            let spans = tracer.into_spans();
            trace::reconcile(&spans, &spans[0])?;
            let wall = spans[0].dur() as f64 / 1e9;
            traced.push(spans);
            Ok(wall)
        };
        // Alternate which side of the pair runs first, as for the grids.
        let (u, t) = if i % 2 == 0 {
            (untraced_step()?, traced_step()?)
        } else {
            let t = traced_step()?;
            (untraced_step()?, t)
        };
        untraced.push(u);
        Ok(u + t)
    })?;
    let per_pass: Vec<BTreeMap<&'static str, f64>> = traced
        .iter()
        .map(|spans| {
            let mut m: BTreeMap<&'static str, f64> = PER_LAYER
                .iter()
                .filter(|(name, _)| name.starts_with("tables."))
                .map(|(name, _)| {
                    let span = name.trim_end_matches(".ms");
                    (*name, trace::total_ms(spans, span))
                })
                .collect();
            let root = &spans[0];
            m.insert(
                "trace.unattributed_frac",
                trace::self_ns(spans, root) as f64 / root.dur() as f64,
            );
            m
        })
        .collect();
    let mut metrics = median_by_key(&per_pass);
    let traced_walls: Vec<f64> = traced.iter().map(|s| s[0].dur() as f64 / 1e9).collect();
    metrics.insert(
        "trace.overhead_frac",
        stats::median(&traced_walls) / stats::median(&untraced) - 1.0,
    );
    let mut jsonl = String::new();
    for (i, spans) in traced.iter().enumerate() {
        trace::write_jsonl(&mut jsonl, &format!("traced-{i}"), spans);
    }
    write_trace(out_dir, args, &jsonl)?;
    Ok(Outcome {
        attempted: EXPERIMENTS.len() * 2 * pairs.len(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload grid-sim --seed 7 --seconds 10 --trace 1 --metric sim.cycles",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::GridSim,
                seed: 7,
                seconds: 10,
                trace: true,
                metrics: vec!["sim.cycles".into()],
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for (line, want) in [
            (
                "--workload grid --seed 1 --seconds 1 --trace 0",
                "unknown workload",
            ),
            (
                "--workload tables --seconds 1 --trace 0",
                "--seed is required",
            ),
            (
                "--workload tables --seed --seconds 1 --trace 0",
                "--seed needs a value",
            ),
            (
                "--workload tables --seed 1 --seconds 1 --trace",
                "--trace needs a value",
            ),
            (
                "--workload tables --seed 1 --seconds 0 --trace 0",
                "--seconds wants",
            ),
            (
                "--workload tables --seed 1 --seconds 1 --trace 2",
                "--trace wants",
            ),
            (
                "--workload tables --seed x --seconds 1 --trace 0",
                "--seed wants",
            ),
            (
                "--workload tables --seed 1 --seed 2 --seconds 1 --trace 0",
                "given twice",
            ),
            (
                "--workload tables --seed 1 --seconds 1 --trace 0 --jobs 2",
                "unknown flag",
            ),
            (
                "--workload tables --seed 1 --seconds 1 --trace 0 --metric nope",
                "unknown metric",
            ),
            (
                "--workload tables --seed 1 --seconds 1 --trace 0 --metric sim.cycles",
                "only with --trace 1",
            ),
        ] {
            let err = parse_args(&argv(line)).unwrap_err();
            assert!(err.contains(want), "{line:?}: {err}");
        }
    }

    #[test]
    fn grids_have_a_golden_for_every_cell() {
        for (workload, cells) in [(Workload::GridCompile, 225), (Workload::GridSim, 75)] {
            let grid = Grid::prepare(workload, GOLDEN_SEED).unwrap();
            assert_eq!(grid.cells.len(), cells);
            assert_eq!(grid.golden.len(), cells);
            assert!(grid
                .cells
                .iter()
                .all(|c| grid.golden.contains_key(&golden_id(c))));
        }
    }

    #[test]
    fn a_wrong_result_fails_the_check() {
        let mut grid = Grid::prepare(Workload::GridSim, GOLDEN_SEED).unwrap();
        let mut stats: Vec<RunStats> = grid
            .cells
            .iter()
            .map(|c| {
                let (cycles, ops_issued) = grid.golden[&golden_id(c)];
                RunStats {
                    cycles,
                    ops_issued,
                    ..RunStats::default()
                }
            })
            .collect();
        grid.check(stats.clone(), "first").unwrap();
        grid.check(stats.clone(), "second").unwrap();
        stats[3].cycles += 1;
        assert!(grid.check(stats.clone(), "third").is_err());
        let mut fresh = Grid::prepare(Workload::GridSim, GOLDEN_SEED).unwrap();
        assert!(fresh.check(stats, "first").unwrap_err().contains("golden"));
    }

    #[test]
    fn catalogs_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        for (_, span) in EXPERIMENTS {
            assert!(PER_LAYER.iter().any(|(m, _)| *m == format!("{span}.ms")));
        }
    }
}
