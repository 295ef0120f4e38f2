//! The sweep batch engine: enumerate a configuration cross-product,
//! hand the cells to the pool's workers, serve repeats from the
//! content-addressed cache, stream results as JSONL, and keep a
//! manifest that makes sharded runs resumable.
//!
//! The paper's tables are points sampled from the full grid
//! `benchmarks × modes × interconnect schemes × memory models × FU
//! mixes`; [`SweepSpec`] describes any sub-grid of it, and
//! [`run_sweep`] executes one for the `pcsim sweep` subcommand.
//! [`run_points`] runs any list of [`Point`]s instead — the experiment
//! harness's grids, whose ablation settings, queue benchmarks and seed
//! averages are not [`SweepSpec`] axes — without the cache, JSONL or
//! manifest. Both compile each program image once per run, through one
//! image memo keyed on (benchmark, mode, [`CompileKey`],
//! [`CompileOptions`]).
//!
//! Determinism contract: the rows of a sweep (and the JSONL lines,
//! after zeroing the per-row `wall_ns` and `cached` fields) are a pure
//! function of the spec — independent of `jobs`, dispatch order, cache
//! state, sharding, or how many times the run was killed and resumed.
//! Rows are flushed in **cell order** through a reorder buffer, so even
//! the byte order of a given run's output is deterministic.

use super::cache::{cache_key, CachedResult, ResultCache};
use super::codec::{escape_json, parse_json, stats_from_value, stats_to_json, Json};
use super::pool::{par_map_in, run_pool};
use super::telemetry::SweepTelemetry;
use crate::benchmarks::{self, Benchmark};
use crate::mode::MachineMode;
use crate::runner::{compile_image, run_image, Image, ImageRun, Observe, RunError};
use pc_compiler::{CompileError, CompileKey, CompileOptions};
use pc_isa::{InterconnectScheme, MachineConfig, MemoryModel};
use pc_sim::RunStats;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::io::Write as _;
use std::panic::resume_unwind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Version of the JSONL row / manifest schema.
pub const SWEEP_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Grid axes
// ---------------------------------------------------------------------

/// The paper's three named memory models, as a closed enum so sweep
/// cells hash and print stably.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Every reference completes in one cycle.
    Min,
    /// 5% miss rate, 20–100 cycle penalty.
    Mem1,
    /// 10% miss rate, 20–100 cycle penalty.
    Mem2,
}

impl MemKind {
    /// All models, in the paper's order.
    pub fn all() -> [MemKind; 3] {
        [MemKind::Min, MemKind::Mem1, MemKind::Mem2]
    }

    /// The concrete latency model.
    pub fn model(self) -> MemoryModel {
        match self {
            MemKind::Min => MemoryModel::min(),
            MemKind::Mem1 => MemoryModel::mem1(),
            MemKind::Mem2 => MemoryModel::mem2(),
        }
    }

    /// Lowercase identifier used in cell ids and CLI filters.
    pub fn key(self) -> &'static str {
        match self {
            MemKind::Min => "min",
            MemKind::Mem1 => "mem1",
            MemKind::Mem2 => "mem2",
        }
    }

    /// Parses a CLI filter token.
    pub fn parse(s: &str) -> Option<MemKind> {
        MemKind::all().into_iter().find(|m| m.key() == s)
    }
}

/// A function-unit mix: the paper's baseline machine, or a Figure-8
/// style `with_mix(iu, fpu)` machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mix {
    /// [`MachineConfig::baseline`]: 4 arith clusters + 2 branch.
    Baseline,
    /// [`MachineConfig::with_mix`]: `iu` integer and `fpu` float units
    /// spread one-per-cluster over 4 memory-bearing clusters.
    Units {
        /// Integer units (1..=4).
        iu: usize,
        /// Float units (1..=4).
        fpu: usize,
    },
}

impl Mix {
    /// Lowercase identifier used in cell ids and CLI filters
    /// (`base`, `2x3`, …).
    pub fn key(self) -> String {
        match self {
            Mix::Baseline => "base".to_string(),
            Mix::Units { iu, fpu } => format!("{iu}x{fpu}"),
        }
    }

    /// Parses a CLI filter token (`base` or `IUxFPU`, each 1..=4).
    pub fn parse(s: &str) -> Option<Mix> {
        if s == "base" {
            return Some(Mix::Baseline);
        }
        let (iu, fpu) = s.split_once('x')?;
        let (iu, fpu) = (iu.parse().ok()?, fpu.parse().ok()?);
        if (1..=4).contains(&iu) && (1..=4).contains(&fpu) {
            Some(Mix::Units { iu, fpu })
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Spec and cells
// ---------------------------------------------------------------------

/// A sub-grid of the full configuration cross-product.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Benchmarks by lowercase name (`matrix`, `fft`, `lud`, `model`).
    pub benches: Vec<String>,
    /// Machine modes.
    pub modes: Vec<MachineMode>,
    /// Interconnect schemes.
    pub interconnects: Vec<InterconnectScheme>,
    /// Memory models.
    pub memories: Vec<MemKind>,
    /// Function-unit mixes.
    pub mixes: Vec<Mix>,
    /// Simulator RNG seed applied to every cell.
    pub seed: u64,
}

impl SweepSpec {
    /// The Table-2 grid: every benchmark × every mode on the baseline
    /// machine (Full interconnect, Min memory).
    pub fn table2() -> SweepSpec {
        SweepSpec {
            benches: benchmarks::all()
                .iter()
                .map(|b| b.name.to_lowercase())
                .collect(),
            modes: MachineMode::all().to_vec(),
            interconnects: vec![InterconnectScheme::Full],
            memories: vec![MemKind::Min],
            mixes: vec![Mix::Baseline],
            seed: 0,
        }
    }

    /// The full cross-product the paper only samples: benchmarks ×
    /// modes × all 5 interconnect schemes × all 3 memory models (on the
    /// baseline mix; add mixes explicitly for the Figure-8 axis).
    pub fn full() -> SweepSpec {
        SweepSpec {
            interconnects: InterconnectScheme::all().to_vec(),
            memories: MemKind::all().to_vec(),
            ..SweepSpec::table2()
        }
    }

    /// Enumerates the grid, skipping benchmark × mode pairs without a
    /// source variant (all four paper benchmarks now carry every mode;
    /// the filter still guards embedded variants like the Table-3 queue
    /// benchmarks). Cell indices are positions in this enumeration and
    /// are what sharding partitions.
    ///
    /// # Errors
    /// An unknown benchmark name, or an axis left empty.
    pub fn cells(&self) -> Result<Vec<SweepCell>, String> {
        for (axis, empty) in [
            ("benches", self.benches.is_empty()),
            ("modes", self.modes.is_empty()),
            ("interconnects", self.interconnects.is_empty()),
            ("memories", self.memories.is_empty()),
            ("mixes", self.mixes.is_empty()),
        ] {
            if empty {
                return Err(format!("sweep spec has an empty {axis} axis"));
            }
        }
        let suite = benchmarks::all();
        let mut cells = Vec::new();
        for name in &self.benches {
            let bench = suite
                .iter()
                .find(|b| b.name.to_lowercase() == *name)
                .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
            for &mode in &self.modes {
                if bench.source(mode).is_none() {
                    continue;
                }
                for &interconnect in &self.interconnects {
                    for &memory in &self.memories {
                        for &mix in &self.mixes {
                            cells.push(SweepCell {
                                index: cells.len(),
                                bench: name.clone(),
                                mode,
                                interconnect,
                                memory,
                                mix,
                                seed: self.seed,
                            });
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Content fingerprint of the spec (grid axes + seed), used by the
    /// manifest to refuse resuming under a different spec.
    pub fn fingerprint(&self) -> String {
        let mut text = format!("pc-sweep-spec-v{SWEEP_SCHEMA_VERSION}\n");
        text.push_str(&self.benches.join(","));
        text.push('\n');
        for m in &self.modes {
            text.push_str(m.label());
            text.push(',');
        }
        text.push('\n');
        for i in &self.interconnects {
            text.push_str(i.label());
            text.push(',');
        }
        text.push('\n');
        for m in &self.memories {
            text.push_str(m.key());
            text.push(',');
        }
        text.push('\n');
        for m in &self.mixes {
            text.push_str(&m.key());
            text.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut text, format_args!("\nseed={}\n", self.seed));
        super::cache::sha256_hex(text.as_bytes())
    }
}

/// One point of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in the spec's enumeration (what sharding partitions).
    pub index: usize,
    /// Benchmark, lowercase.
    pub bench: String,
    /// Machine mode.
    pub mode: MachineMode,
    /// Interconnect scheme.
    pub interconnect: InterconnectScheme,
    /// Memory model.
    pub memory: MemKind,
    /// Function-unit mix.
    pub mix: Mix,
    /// Simulator RNG seed.
    pub seed: u64,
}

impl SweepCell {
    /// Stable human-readable id:
    /// `bench/mode/interconnect/memory/mix/s<seed>` (all lowercase).
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/s{}",
            self.bench,
            self.mode.label().to_lowercase(),
            self.interconnect.label().to_lowercase().replace('-', ""),
            self.memory.key(),
            self.mix.key(),
            self.seed,
        )
    }

    /// The machine configuration this cell simulates.
    pub fn config(&self) -> MachineConfig {
        let base = match self.mix {
            Mix::Baseline => MachineConfig::baseline(),
            Mix::Units { iu, fpu } => MachineConfig::with_mix(iu, fpu),
        };
        base.with_interconnect(self.interconnect)
            .with_memory(self.memory.model())
            .with_seed(self.seed)
    }
}

impl fmt::Display for SweepCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

// ---------------------------------------------------------------------
// Options, rows, summary, errors
// ---------------------------------------------------------------------

/// How to execute a sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (0 or 1 = serial on the caller's thread).
    pub jobs: usize,
    /// Content-addressed result cache directory (`None` = no cache).
    pub cache_dir: Option<PathBuf>,
    /// JSONL sink: one row per completed cell, flushed in cell order.
    pub out: Option<PathBuf>,
    /// Shard selector `(k, n)`, 1-based: run only cells with
    /// `index % n == k - 1`.
    pub shard: Option<(usize, usize)>,
    /// Manifest path. Written alongside the JSONL after every flushed
    /// row; pre-existing manifest + JSONL are loaded and their finished
    /// cells skipped (resume). Defaults to `<out>.manifest.json` when
    /// `out` is set.
    pub manifest: Option<PathBuf>,
    /// Redraw a live progress line on stderr (cells/s, cache hit rate,
    /// ETA, per-worker utilization) while the sweep runs.
    ///
    /// This and `metrics_out` are the telemetry surfaces: either one
    /// makes the sweep collect host-side telemetry (pool, cache, and
    /// reorder-buffer metrics; see [`SweepTelemetry`]). Telemetry never
    /// perturbs the rows — the determinism contract holds with it on or
    /// off.
    pub progress: bool,
    /// Append a JSONL telemetry snapshot to this file roughly twice a
    /// second, plus one final snapshot when the sweep finishes. The
    /// file is truncated at the start of the run.
    pub metrics_out: Option<PathBuf>,
}

/// One completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The cell.
    pub cell: SweepCell,
    /// Run statistics (bit-identical whether fresh or cached).
    pub stats: RunStats,
    /// Peak per-cluster register count from the compiler.
    pub peak_registers: u32,
    /// True when the row was served from the cache.
    pub cached: bool,
    /// Wall-clock nanoseconds spent producing this row (lookup time for
    /// hits, full pipeline time for misses). Excluded from determinism
    /// comparisons.
    pub wall_ns: u64,
}

impl SweepRow {
    /// The row as one canonical JSONL line (no trailing newline).
    /// Everything except `wall_ns` and `cached` is deterministic.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"schema\":{SWEEP_SCHEMA_VERSION},\"cell\":\"{}\",\"bench\":\"{}\",\
             \"mode\":\"{}\",\"interconnect\":\"{}\",\"memory\":\"{}\",\"mix\":\"{}\",\
             \"seed\":{},\"cached\":{},\"wall_ns\":{},\"cycles\":{},\"ops\":{},\
             \"peak_registers\":{},\"stats\":{}}}",
            escape_json(&self.cell.id()),
            escape_json(&self.cell.bench),
            self.cell.mode.label(),
            self.cell.interconnect.label(),
            self.cell.memory.key(),
            self.cell.mix.key(),
            self.cell.seed,
            self.cached,
            self.wall_ns,
            self.stats.cycles,
            self.stats.ops_issued,
            self.peak_registers,
            stats_to_json(&self.stats),
        )
    }

    /// Parses one JSONL line back into a row. The cell is reconstructed
    /// from its printed axes.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn from_jsonl(line: &str) -> Result<SweepRow, String> {
        let v = parse_json(line)?;
        let get_str = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing {k:?}"))
        };
        let mode_label = get_str("mode")?;
        let mode = MachineMode::all()
            .into_iter()
            .find(|m| m.label() == mode_label)
            .ok_or_else(|| format!("unknown mode {mode_label:?}"))?;
        let xc_label = get_str("interconnect")?;
        let interconnect = InterconnectScheme::all()
            .into_iter()
            .find(|i| i.label() == xc_label)
            .ok_or_else(|| format!("unknown interconnect {xc_label:?}"))?;
        let mem_key = get_str("memory")?;
        let memory =
            MemKind::parse(mem_key).ok_or_else(|| format!("unknown memory {mem_key:?}"))?;
        let mix_key = get_str("mix")?;
        let mix = Mix::parse(mix_key).ok_or_else(|| format!("unknown mix {mix_key:?}"))?;
        let need = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {k:?}"))
        };
        Ok(SweepRow {
            cell: SweepCell {
                index: 0, // re-assigned by the caller against its spec
                bench: get_str("bench")?.to_string(),
                mode,
                interconnect,
                memory,
                mix,
                seed: need("seed")?,
            },
            stats: stats_from_value(v.get("stats").ok_or("missing stats")?)?,
            peak_registers: need("peak_registers")? as u32,
            cached: matches!(v.get("cached"), Some(Json::Bool(true))),
            wall_ns: need("wall_ns")?,
        })
    }
}

/// What a sweep did.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Newly produced rows, in cell order (cells already done in a
    /// resumed manifest are not re-produced and appear only in the
    /// JSONL/manifest from the earlier run).
    pub rows: Vec<SweepRow>,
    /// Cells in this shard's scope.
    pub total_cells: usize,
    /// Cells already done before this run (resume).
    pub prior_done: usize,
    /// Rows served from the cache.
    pub hits: usize,
    /// Rows computed fresh.
    pub misses: usize,
    /// Programs compiled: at most one per (benchmark, mode,
    /// [`CompileKey`]) among the cells that missed the cache.
    pub compiles: usize,
    /// Worker threads started: `jobs`, capped at the pending cells.
    pub jobs: usize,
    /// Total wall-clock nanoseconds for the run.
    pub wall_ns: u64,
}

impl SweepSummary {
    /// Wall-clock seconds for the run.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Newly produced rows per wall-clock second (0.0 for an instant or
    /// empty run).
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.rows.len() as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Cache hit rate over the newly produced rows, in `[0, 1]`
    /// (0.0 when nothing ran).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }

    /// One-line JSON summary (the `pcsim sweep` machine interface).
    /// `wall_ns`, `wall_s`, and `cells_per_sec` are host measurements
    /// and excluded from determinism comparisons.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"summary\":true,\"schema\":{SWEEP_SCHEMA_VERSION},\"total_cells\":{},\
             \"prior_done\":{},\"ran\":{},\"hits\":{},\"misses\":{},\"compiles\":{},\
             \"jobs\":{},\"wall_ns\":{},\"wall_s\":{:.3},\"cells_per_sec\":{:.1},\
             \"cache_hit_rate\":{:.3}}}",
            self.total_cells,
            self.prior_done,
            self.rows.len(),
            self.hits,
            self.misses,
            self.compiles,
            self.jobs,
            self.wall_ns,
            self.wall_s(),
            self.cells_per_sec(),
            self.cache_hit_rate(),
        )
    }
}

/// Failures of a sweep run.
#[derive(Debug)]
pub enum SweepError {
    /// The spec is malformed (unknown benchmark, empty axis, bad shard).
    Spec(String),
    /// A cell's pipeline failed; deterministic lowest-index choice.
    Cell {
        /// The failing cell's id.
        cell: String,
        /// The underlying failure.
        error: RunError,
    },
    /// Manifest/JSONL handling failed.
    Io(std::io::Error),
    /// A resume manifest disagrees with the requested spec/shard.
    ManifestMismatch(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Spec(msg) => write!(f, "bad sweep spec: {msg}"),
            SweepError::Cell { cell, error } => write!(f, "cell {cell}: {error}"),
            SweepError::Io(e) => write!(f, "sweep i/o error: {e}"),
            SweepError::ManifestMismatch(msg) => write!(f, "manifest mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// The on-disk record that makes a sweep resumable: which cells of
/// which spec/shard have had their JSONL rows durably flushed.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// [`SweepSpec::fingerprint`] of the producing spec.
    pub spec: String,
    /// Shard selector, or `None` for the whole grid.
    pub shard: Option<(usize, usize)>,
    /// Cells in this shard's scope.
    pub total: usize,
    /// Ids of cells whose rows are flushed.
    pub done: BTreeSet<String>,
}

impl Manifest {
    /// Serializes the manifest as pretty-stable JSON.
    pub fn to_json(&self) -> String {
        let shard = match self.shard {
            Some((k, n)) => format!("\"{k}/{n}\""),
            None => "null".to_string(),
        };
        let done: Vec<String> = self
            .done
            .iter()
            .map(|id| format!("\"{}\"", escape_json(id)))
            .collect();
        format!(
            "{{\"schema\":{SWEEP_SCHEMA_VERSION},\"spec\":\"{}\",\"shard\":{},\
             \"total\":{},\"done\":[{}]}}\n",
            self.spec,
            shard,
            self.total,
            done.join(","),
        )
    }

    /// Parses [`Manifest::to_json`] output.
    ///
    /// # Errors
    /// A description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let v = parse_json(text)?;
        let spec = v
            .get("spec")
            .and_then(Json::as_str)
            .ok_or("missing spec")?
            .to_string();
        let shard = match v.get("shard") {
            Some(Json::Str(s)) => {
                let (k, n) = s.split_once('/').ok_or("bad shard")?;
                Some((
                    k.parse().map_err(|_| "bad shard k")?,
                    n.parse().map_err(|_| "bad shard n")?,
                ))
            }
            _ => None,
        };
        let total = v
            .get("total")
            .and_then(Json::as_u64)
            .ok_or("missing total")? as usize;
        let done = v
            .get("done")
            .and_then(Json::as_arr)
            .ok_or("missing done")?
            .iter()
            .map(|x| {
                x.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string done id".to_string())
            })
            .collect::<Result<BTreeSet<_>, _>>()?;
        Ok(Manifest {
            spec,
            shard,
            total,
            done,
        })
    }

    fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }
}

/// Scans an existing JSONL file for the ids of rows already flushed —
/// the kill-safe complement to the manifest (a crash between the row
/// flush and the manifest rewrite must not duplicate the row on
/// resume). Unparseable lines are ignored: a torn final line simply
/// gets recomputed.
fn scan_jsonl_done(path: &Path) -> BTreeSet<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeSet::new();
    };
    text.lines()
        .filter_map(|line| {
            let v = parse_json(line).ok()?;
            Some(v.get("cell")?.as_str()?.to_string())
        })
        .collect()
}

// ---------------------------------------------------------------------
// Program images and experiment grids
// ---------------------------------------------------------------------

/// One point of an experiment grid: a benchmark under one mode, machine
/// configuration and set of compiler options.
#[derive(Debug, Clone)]
pub struct Point<'a> {
    /// The benchmark.
    pub bench: &'a Benchmark,
    /// Machine mode.
    pub mode: MachineMode,
    /// The machine simulated.
    pub config: MachineConfig,
    /// Compiler options.
    pub options: CompileOptions,
}

impl<'a> Point<'a> {
    /// A point compiled with the default [`CompileOptions`].
    pub fn new(bench: &'a Benchmark, mode: MachineMode, config: MachineConfig) -> Point<'a> {
        Point {
            bench,
            mode,
            config,
            options: CompileOptions::default(),
        }
    }
}

/// The program images of one grid: one slot per (benchmark, mode,
/// [`CompileKey`], [`CompileOptions`]) among the points still to run. A
/// point's compiled program depends on nothing else (see
/// [`CompileKey`]), so every point of a key runs the same image.
/// Benchmarks are told apart by address: points share an image only
/// when they borrow the same [`Benchmark`].
struct ImageMemo {
    slots: Vec<ImageSlot>,
    compiles: AtomicUsize,
}

#[derive(Default)]
struct ImageSlot {
    /// `None` until a point of the key first needs the image, and again
    /// once the key's last point has finished. The lock is held across
    /// the compile, so a second point of the key waits for the image
    /// instead of compiling it again; a compile error is kept and
    /// reported for every point of the key. A compile that panics leaves
    /// `None` behind, so a poisoned lock still guards a valid slot.
    image: Mutex<Option<Result<Arc<Image>, CompileError>>>,
    /// Points of the key not yet finished.
    pending: AtomicUsize,
}

impl ImageMemo {
    /// The memo for `points`, with each point's slot index and the
    /// order for `jobs` workers to claim the points in (see
    /// [`dispatch_order`]).
    fn new(points: &[Point<'_>], jobs: usize) -> (ImageMemo, Vec<usize>, Vec<usize>) {
        type Key = (*const Benchmark, MachineMode, CompileKey, CompileOptions);
        let mut index: HashMap<Key, usize> = HashMap::new();
        let mut slots: Vec<ImageSlot> = Vec::new();
        let slot_of: Vec<usize> = points
            .iter()
            .map(|p| {
                let key = (
                    p.bench as *const Benchmark,
                    p.mode,
                    CompileKey::of(&p.config),
                    p.options,
                );
                let slot = *index.entry(key).or_insert_with(|| {
                    slots.push(ImageSlot::default());
                    slots.len() - 1
                });
                *slots[slot].pending.get_mut() += 1;
                slot
            })
            .collect();
        let memo = ImageMemo {
            slots,
            compiles: AtomicUsize::new(0),
        };
        let order = dispatch_order(&slot_of, jobs);
        (memo, slot_of, order)
    }

    /// Simulates and validates `point` on the image in `slot`,
    /// compiling the image on the slot's first use. A point whose mode
    /// has no source fails with [`RunError::Unsupported`] and leaves the
    /// slot empty.
    fn run(&self, slot: usize, point: &Point<'_>) -> Result<(Arc<Image>, ImageRun), RunError> {
        let image = {
            let mut kept = self.slots[slot]
                .image
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if kept.is_none() {
                let compiled =
                    match compile_image(point.bench, point.mode, &point.config, point.options) {
                        Ok(image) => Ok(Arc::new(image)),
                        Err(RunError::Compile(e)) => Err(e),
                        Err(e) => return Err(e),
                    };
                self.compiles.fetch_add(1, Ordering::Relaxed);
                *kept = Some(compiled);
            }
            kept.clone().expect("filled above")?
        };
        let run = run_image(
            point.bench,
            &image,
            point.config.clone(),
            &Observe::default(),
        )?;
        Ok((image, run))
    }

    /// Marks one point of `slot` finished, dropping the image after the
    /// key's last point. Each point's release of `pending` pairs with
    /// the last point's acquire, so every other point's use of the slot
    /// happens before the drop.
    fn finish(&self, slot: usize) {
        let slot = &self.slots[slot];
        if slot.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *slot.image.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

/// The order `jobs` workers claim a grid's points in, given each
/// point's slot with slots numbered in order of first appearance (as
/// [`ImageMemo::new`] numbers them). It is point order, except that each
/// key's first point moves to just before the second point of the key
/// `jobs - 1` keys earlier (of key 0, for the first `jobs - 1` keys)
/// when it comes after that point. On a grid of contiguous keys the
/// workers then start `jobs` compiles at once, and afterwards each
/// worker compiles the next key while the others run the points of
/// keys already compiled, instead of waiting on the compile lock of the
/// key just started; about `jobs + 1` images are live at a time. Keys of
/// one point, keys that interleave, and `jobs <= 1` keep point order.
fn dispatch_order(slot_of: &[usize], jobs: usize) -> Vec<usize> {
    let ahead = jobs.saturating_sub(1);
    let mut first: Vec<usize> = Vec::new();
    let mut second: Vec<Option<usize>> = Vec::new();
    for (i, &slot) in slot_of.iter().enumerate() {
        if slot == first.len() {
            first.push(i);
            second.push(None);
        } else if second[slot].is_none() {
            second[slot] = Some(i);
        }
    }
    // Point i sorts at 2i + 1; a first point hoisted before point p
    // sorts at 2p. First points hoisted before the same point keep
    // their key order, since the sort is stable.
    let mut rank: Vec<usize> = (0..slot_of.len()).map(|i| 2 * i + 1).collect();
    for key in 1..first.len() {
        if let Some(p) = second[key.saturating_sub(ahead)].filter(|&p| p < first[key]) {
            rank[first[key]] = 2 * p;
        }
    }
    let mut order: Vec<usize> = (0..slot_of.len()).collect();
    order.sort_by_key(|&i| rank[i]);
    order
}

/// Simulates and validates every point on up to `jobs` worker threads,
/// mapping each to a row with `row` on the worker. Each image is
/// compiled by the first point of its (benchmark, mode, [`CompileKey`],
/// [`CompileOptions`]) to run and dropped after the key's last point.
/// The workers claim points in point order, except that each key's
/// first point is moved up so that up to `jobs` keys compile at once;
/// rows come back in point order, whatever `jobs` is.
///
/// # Errors
/// The lowest-indexed failing point's error; the other points still run.
pub fn run_points<'a, R, F>(points: &[Point<'a>], jobs: usize, row: F) -> Result<Vec<R>, RunError>
where
    R: Send,
    F: Fn(&Point<'a>, &Image, ImageRun) -> R + Sync,
{
    let (images, slot_of, order) = ImageMemo::new(points, jobs);
    let work: Vec<(&Point<'a>, usize)> = points.iter().zip(slot_of).collect();
    par_map_in(&work, &order, jobs, |&(point, slot)| {
        let out = images
            .run(slot, point)
            .map(|(image, run)| row(point, &image, run));
        images.finish(slot);
        out
    })
    .into_iter()
    .collect()
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Runs a sweep.
///
/// Up to `opts.jobs` threads claim the pending cells in cell order,
/// except that each key's first cell is moved up so that up to `jobs`
/// keys compile at once; each cell first consults the cache (if
/// configured), then simulates + validates its program image. Each image
/// is compiled once per sweep, by the first cell of its (benchmark,
/// mode, [`CompileKey`]) that misses the cache, and dropped after the
/// key's last cell. Completed rows stream to the JSONL sink **in cell
/// order** (a reorder buffer holds out-of-order completions), and after
/// every flushed row the manifest is atomically rewritten. Killing the
/// process therefore loses the rows still in flight plus the rows that
/// finished after the oldest unfinished cell — a few, since cells start
/// in nearly cell order — and a resume recomputes exactly the missing
/// cells.
///
/// # Errors
/// Deterministically reports the lowest-indexed failing cell
/// ([`SweepError::Cell`]), spec problems, manifest mismatches, and I/O
/// failures of the sink or manifest.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepSummary, SweepError> {
    let started = Instant::now();
    let all_cells = spec.cells().map_err(SweepError::Spec)?;
    let cells: Vec<SweepCell> = match opts.shard {
        None => all_cells,
        Some((k, n)) => {
            if n == 0 || k == 0 || k > n {
                return Err(SweepError::Spec(format!(
                    "bad shard {k}/{n}: want 1 <= k <= n"
                )));
            }
            all_cells
                .into_iter()
                .filter(|c| c.index % n == k - 1)
                .collect()
        }
    };
    let manifest_path: Option<PathBuf> = opts.manifest.clone().or_else(|| {
        opts.out
            .as_ref()
            .map(|p| PathBuf::from(format!("{}.manifest.json", p.display())))
    });
    // Resume state: manifest ∪ rows already present in the JSONL.
    let fingerprint = spec.fingerprint();
    let mut done: BTreeSet<String> = BTreeSet::new();
    if let Some(mp) = &manifest_path {
        if let Ok(text) = std::fs::read_to_string(mp) {
            let m = Manifest::from_json(&text).map_err(SweepError::ManifestMismatch)?;
            if m.spec != fingerprint {
                return Err(SweepError::ManifestMismatch(format!(
                    "manifest {} was produced by a different sweep spec \
                     (spec {}.. vs {}..); use a fresh --out/--manifest",
                    mp.display(),
                    &m.spec[..12.min(m.spec.len())],
                    &fingerprint[..12],
                )));
            }
            if m.shard != opts.shard {
                return Err(SweepError::ManifestMismatch(format!(
                    "manifest {} covers shard {:?}, this run requests {:?}",
                    mp.display(),
                    m.shard,
                    opts.shard,
                )));
            }
            done.extend(m.done);
        }
    }
    if let Some(out) = &opts.out {
        done.extend(scan_jsonl_done(out));
    }
    let pending: Vec<&SweepCell> = cells.iter().filter(|c| !done.contains(&c.id())).collect();
    let prior_done = cells.len() - pending.len();
    let suite = benchmarks::all();
    let points: Vec<Point<'_>> = pending
        .iter()
        .map(|cell| {
            let bench = suite
                .iter()
                .find(|b| b.name.to_lowercase() == cell.bench)
                .expect("cells() validated benchmark names");
            Point::new(bench, cell.mode, cell.config())
        })
        .collect();
    let jobs = opts.jobs.clamp(1, pending.len().max(1));
    let (images, slot_of, order) = ImageMemo::new(&points, jobs);
    let work: Vec<((&SweepCell, &Point<'_>), usize)> =
        pending.iter().copied().zip(&points).zip(slot_of).collect();

    let cache = match &opts.cache_dir {
        Some(dir) => Some(ResultCache::open(dir)?),
        None => None,
    };

    let mut sink: Option<std::io::BufWriter<std::fs::File>> = match &opts.out {
        Some(path) => {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            let mut file = std::fs::File::options()
                .create(true)
                .append(true)
                .open(path)?;
            // A kill mid-write can leave a torn final line with no
            // newline; terminate it so appended rows don't concatenate
            // onto the garbage (resume scanning skips the torn line).
            let len = file.metadata()?.len();
            if len > 0 {
                use std::io::{Read as _, Seek as _, SeekFrom};
                let mut probe = std::fs::File::open(path)?;
                probe.seek(SeekFrom::End(-1))?;
                let mut last = [0u8; 1];
                probe.read_exact(&mut last)?;
                if last[0] != b'\n' {
                    file.write_all(b"\n")?;
                }
            }
            Some(std::io::BufWriter::new(file))
        }
        None => None,
    };
    let mut manifest = Manifest {
        spec: fingerprint,
        shard: opts.shard,
        total: cells.len(),
        done,
    };

    // Fan the pending cells over the pool; the sink-side reorder buffer
    // flushes in pending order so output bytes are schedule-independent.
    // Telemetry is purely host-side: the rows and their JSONL bytes are
    // identical with it on or off (the determinism suite pins this).
    let tel: Option<Arc<SweepTelemetry>> = (opts.progress || opts.metrics_out.is_some())
        .then(|| Arc::new(SweepTelemetry::new(jobs, pending.len())));
    let tel_ref = tel.as_deref();
    let run_one = |cell: &SweepCell,
                   point: &Point<'_>,
                   slot: usize|
     -> Result<SweepRow, (String, RunError)> {
        let t0 = Instant::now();
        let key = cache.as_ref().map(|_| {
            let source = point
                .bench
                .source(cell.mode)
                .expect("cells() filtered modes");
            cache_key(&cell.bench, cell.mode, source, &point.config)
        });
        if let (Some(cache), Some(key)) = (&cache, &key) {
            let hit = cache.lookup(key);
            let lookup_ns = t0.elapsed().as_nanos() as u64;
            if let Some(hit) = hit {
                if let Some(t) = tel_ref {
                    t.cache_hits.inc();
                    t.cache_hit_ns.record(lookup_ns);
                    t.cells_done.inc();
                }
                return Ok(SweepRow {
                    cell: cell.clone(),
                    stats: hit.stats,
                    peak_registers: hit.peak_registers,
                    cached: true,
                    wall_ns: t0.elapsed().as_nanos() as u64,
                });
            }
            if let Some(t) = tel_ref {
                t.cache_misses.inc();
                t.cache_miss_ns.record(lookup_ns);
            }
        } else if let Some(t) = tel_ref {
            t.cache_misses.inc();
        }
        let (image, out) = images.run(slot, point).map_err(|e| (cell.id(), e))?;
        if let (Some(cache), Some(key)) = (&cache, &key) {
            // A failed store must not fail the sweep — the result is in
            // hand; the next run simply recomputes.
            let t_store = Instant::now();
            let _ = cache.store(
                key,
                &cell.id(),
                &CachedResult {
                    stats: out.stats.clone(),
                    peak_registers: image.peak_registers,
                },
            );
            if let Some(t) = tel_ref {
                t.cache_store_ns.record(t_store.elapsed().as_nanos() as u64);
            }
        }
        if let Some(t) = tel_ref {
            t.cells_done.inc();
        }
        Ok(SweepRow {
            cell: cell.clone(),
            stats: out.stats,
            peak_registers: image.peak_registers,
            cached: false,
            wall_ns: t0.elapsed().as_nanos() as u64,
        })
    };
    let run_cell = |&((cell, point), slot): &((&SweepCell, &Point<'_>), usize)| {
        let row = run_one(cell, point, slot);
        images.finish(slot);
        row
    };

    // Monitor thread: redraws the live progress line and/or appends
    // periodic JSONL telemetry snapshots while the pool runs. Purely an
    // observer — it only reads the lock-free telemetry handles.
    let metrics_file: Option<std::fs::File> = match &opts.metrics_out {
        Some(path) => {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            Some(std::fs::File::create(path)?)
        }
        None => None,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let monitor: Option<std::thread::JoinHandle<()>> = match (&tel, opts.progress, metrics_file) {
        (Some(t), progress, file) if progress || file.is_some() => {
            let t = Arc::clone(t);
            let stop = Arc::clone(&stop);
            Some(std::thread::spawn(move || {
                let mut file = file.map(std::io::BufWriter::new);
                let mut tick = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                    tick += 1;
                    if progress && tick % 2 == 0 {
                        eprint!("\r{}", t.progress_line(started.elapsed().as_secs_f64()));
                    }
                    if tick % 5 == 0 {
                        if let Some(w) = &mut file {
                            let _ = writeln!(w, "{}", t.snapshot().to_jsonl());
                            let _ = w.flush();
                        }
                    }
                }
                if progress {
                    eprintln!("\r{}", t.progress_line(started.elapsed().as_secs_f64()));
                }
                if let Some(w) = &mut file {
                    let _ = writeln!(w, "{}", t.snapshot().to_jsonl());
                    let _ = w.flush();
                }
            }))
        }
        _ => None,
    };

    let mut slots: Vec<Option<Result<SweepRow, (String, RunError)>>> =
        std::iter::repeat_with(|| None)
            .take(pending.len())
            .collect();
    let mut next_flush = 0usize;
    let mut flushed: Vec<SweepRow> = Vec::with_capacity(pending.len());
    let mut io_error: Option<std::io::Error> = None;
    let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    // Completed-but-unflushed rows (an earlier cell still in flight).
    let mut in_buffer = 0u64;
    run_pool(
        &work,
        &order,
        jobs,
        run_cell,
        |i, outcome| {
            match outcome {
                Ok(row) => {
                    slots[i] = Some(row);
                    in_buffer += 1;
                    if let Some(t) = tel_ref {
                        t.reorder_depth_peak.set_max(in_buffer);
                    }
                }
                Err(payload) => {
                    let lowest = first_panic.as_ref().map_or(true, |(j, _)| i < *j);
                    if lowest {
                        first_panic = Some((i, payload));
                    }
                    return;
                }
            }
            // Flush the completed prefix in cell order: JSONL line first
            // (durable), then the manifest that acknowledges it.
            while io_error.is_none() {
                let Some(slot) = slots.get_mut(next_flush).and_then(Option::take) else {
                    break;
                };
                match slot {
                    Ok(row) => {
                        if let Some(w) = &mut sink {
                            let write = writeln!(w, "{}", row.to_jsonl()).and_then(|()| w.flush());
                            if let Err(e) = write {
                                io_error = Some(e);
                                break;
                            }
                            manifest.done.insert(row.cell.id());
                            if let Some(mp) = &manifest_path {
                                if let Err(e) = manifest.write_atomic(mp) {
                                    io_error = Some(e);
                                    break;
                                }
                            }
                        }
                        flushed.push(row);
                        next_flush += 1;
                        in_buffer -= 1;
                    }
                    Err(fail) => {
                        // Put the failure back; reported after the pool
                        // drains (lowest index wins deterministically).
                        slots[next_flush] = Some(Err(fail));
                        break;
                    }
                }
            }
            if let Some(t) = tel_ref {
                t.reorder_depth.set(in_buffer);
            }
        },
        tel.as_ref().map(|t| &t.pool),
    );
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = monitor {
        let _ = handle.join();
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    if let Some(e) = io_error {
        return Err(SweepError::Io(e));
    }
    // Any cell failure: report the lowest-indexed one.
    for slot in slots.into_iter().flatten() {
        if let Err((cell, error)) = slot {
            return Err(SweepError::Cell { cell, error });
        }
    }
    let hits = flushed.iter().filter(|r| r.cached).count();
    let misses = flushed.len() - hits;
    Ok(SweepSummary {
        rows: flushed,
        total_cells: cells.len(),
        prior_done,
        hits,
        misses,
        compiles: images.compiles.into_inner(),
        jobs,
        wall_ns: started.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_grid_is_the_full_mode_cross_product() {
        let cells = SweepSpec::table2().cells().unwrap();
        // 4 benchmarks × 5 modes — every benchmark now has an Ideal
        // variant, so nothing is skipped.
        assert_eq!(cells.len(), 20);
        assert!(cells
            .iter()
            .any(|c| c.bench == "lud" && c.mode == MachineMode::Ideal));
        assert!(cells
            .iter()
            .any(|c| c.bench == "model" && c.mode == MachineMode::Ideal));
        // Indices are dense enumeration positions.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn full_grid_is_the_cross_product() {
        let cells = SweepSpec::full().cells().unwrap();
        assert_eq!(cells.len(), 20 * 5 * 3);
    }

    #[test]
    fn cell_ids_are_unique_and_stable() {
        let cells = SweepSpec::full().cells().unwrap();
        let ids: BTreeSet<String> = cells.iter().map(SweepCell::id).collect();
        assert_eq!(ids.len(), cells.len());
        assert_eq!(
            cells[0].id(),
            "matrix/seq/full/min/base/s0",
            "id format is part of the manifest contract"
        );
    }

    #[test]
    fn spec_fingerprint_tracks_every_axis() {
        let base = SweepSpec::table2();
        let fp = base.fingerprint();
        assert_eq!(fp, SweepSpec::table2().fingerprint());
        let mut changed = base.clone();
        changed.seed = 1;
        assert_ne!(fp, changed.fingerprint());
        let mut changed = base.clone();
        changed.memories = vec![MemKind::Mem2];
        assert_ne!(fp, changed.fingerprint());
        let mut changed = base.clone();
        changed.benches.pop();
        assert_ne!(fp, changed.fingerprint());
    }

    #[test]
    fn bad_shard_and_unknown_bench_are_spec_errors() {
        let spec = SweepSpec::table2();
        let err = run_sweep(
            &spec,
            &SweepOptions {
                shard: Some((3, 2)),
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SweepError::Spec(_)), "{err}");
        let mut bad = spec;
        bad.benches = vec!["nonesuch".to_string()];
        let err = run_sweep(&bad, &SweepOptions::default()).unwrap_err();
        assert!(err.to_string().contains("nonesuch"), "{err}");
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            spec: "abc123".to_string(),
            shard: Some((2, 4)),
            total: 18,
            done: ["a/b", "c/d"].iter().map(|s| s.to_string()).collect(),
        };
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
        let unsharded = Manifest {
            shard: None,
            ..m.clone()
        };
        assert_eq!(
            Manifest::from_json(&unsharded.to_json()).unwrap(),
            unsharded
        );
        assert!(Manifest::from_json("{}").is_err());
    }

    /// A benchmark whose every source fails to compile.
    fn broken() -> Benchmark {
        Benchmark {
            name: "Broken",
            seq_src: "(no-main)".into(),
            threaded_src: "(no-main)".into(),
            ideal_src: None,
            setup: |_| Ok(()),
            check: |_| Ok(()),
        }
    }

    /// One point per memory model of a single (benchmark, mode, key).
    fn one_key_points(bench: &Benchmark) -> Vec<Point<'_>> {
        MemKind::all()
            .into_iter()
            .map(|m| {
                let config = MachineConfig::baseline().with_memory(m.model());
                Point::new(bench, MachineMode::Seq, config)
            })
            .collect()
    }

    #[test]
    fn image_memo_compiles_a_key_once_and_drops_it_after_its_last_cell() {
        let bench = benchmarks::matrix();
        let points = one_key_points(&bench);
        let (memo, slot_of, _) = ImageMemo::new(&points, 1);
        assert_eq!(slot_of, vec![0, 0, 0]);
        let start = std::sync::Barrier::new(points.len());
        let (memo_ref, start) = (&memo, &start);
        let images: Vec<Arc<Image>> = std::thread::scope(|s| {
            let workers: Vec<_> = points
                .iter()
                .map(|p| {
                    s.spawn(move || {
                        start.wait();
                        memo_ref.run(0, p).unwrap().0
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(memo.compiles.load(Ordering::Relaxed), 1);
        assert!(images.iter().all(|i| Arc::ptr_eq(i, &images[0])));
        memo.finish(0);
        memo.finish(0);
        assert!(memo.slots[0].image.lock().unwrap().is_some());
        memo.finish(0);
        assert!(memo.slots[0].image.lock().unwrap().is_none());
    }

    #[test]
    fn image_memo_reports_one_compile_error_for_every_cell_of_the_key() {
        let bench = broken();
        let points = one_key_points(&bench);
        let (memo, _, _) = ImageMemo::new(&points, 1);
        let errors: Vec<String> = points
            .iter()
            .map(|p| match memo.run(0, p) {
                Err(e @ RunError::Compile(_)) => e.to_string(),
                other => panic!("expected a compile error, got {other:?}"),
            })
            .collect();
        assert_eq!(memo.compiles.load(Ordering::Relaxed), 1);
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    }

    #[test]
    fn image_memo_keys_on_compile_options_but_not_on_runtime_settings() {
        let bench = benchmarks::matrix();
        let point = |config, optimize, licm| Point {
            options: CompileOptions { optimize, licm },
            ..Point::new(&bench, MachineMode::Coupled, config)
        };
        let base = MachineConfig::baseline;
        let priority = base().with_arbitration(pc_isa::ArbitrationPolicy::FixedPriority);
        let points = [
            point(base(), true, false),
            point(priority, true, false),
            point(base().with_seed(7), true, false),
            point(base(), false, false),
            point(base(), true, true),
        ];
        let (memo, slot_of, _) = ImageMemo::new(&points, 1);
        assert_eq!(slot_of, vec![0, 0, 0, 1, 2]);
        assert_eq!(memo.slots[0].pending.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn dispatch_order_moves_each_first_point_jobs_minus_one_keys_early() {
        let contiguous = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3];
        // One worker keeps point order. With two, key k's first point
        // runs before key k-1's second point; with three, before key
        // k-2's (key 0's, for keys 1 and 2).
        assert_eq!(dispatch_order(&contiguous, 1), (0..12).collect::<Vec<_>>());
        assert_eq!(
            dispatch_order(&contiguous, 2),
            vec![0, 3, 1, 2, 6, 4, 5, 9, 7, 8, 10, 11]
        );
        assert_eq!(
            dispatch_order(&contiguous, 3),
            vec![0, 3, 6, 1, 2, 9, 4, 5, 7, 8, 10, 11]
        );
        // Every point appears once, at any worker count.
        for jobs in 0..6 {
            let mut order = dispatch_order(&contiguous, jobs);
            order.sort_unstable();
            assert_eq!(order, (0..12).collect::<Vec<_>>(), "jobs={jobs}");
        }
        // Keys of one point, and keys that interleave, keep point order.
        for slot_of in [vec![0, 1, 2, 3], vec![0, 1, 0, 1, 0, 1], vec![0, 1, 1, 0]] {
            for jobs in [2, 4] {
                let order = dispatch_order(&slot_of, jobs);
                assert_eq!(order, (0..slot_of.len()).collect::<Vec<_>>(), "{slot_of:?}");
            }
        }
        // A one-point key is hoisted itself, but has no second point
        // for a later key's first point to move before.
        assert_eq!(dispatch_order(&[0, 0, 1, 2, 2], 2), vec![0, 2, 1, 3, 4]);
        assert!(dispatch_order(&[], 2).is_empty());
    }

    #[test]
    fn dispatch_order_lets_every_worker_compile_at_once() {
        // Six keys of five contiguous points, each point a no-op except
        // that a key's first claim "compiles" for 30 ms under the key's
        // lock, as `ImageMemo::run` does. In dispatch order each of the
        // workers starts a compile of its own; in point order all but
        // one would queue on key 0's lock.
        let slot_of: Vec<usize> = (0..6).flat_map(|k| [k; 5]).collect();
        for jobs in [2, 4] {
            let compiled: Vec<Mutex<bool>> = (0..6).map(|_| Mutex::new(false)).collect();
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let order = dispatch_order(&slot_of, jobs);
            par_map_in(&slot_of, &order, jobs, |&slot| {
                let mut done = compiled[slot].lock().unwrap();
                if !*done {
                    peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    running.fetch_sub(1, Ordering::SeqCst);
                    *done = true;
                }
            });
            assert_eq!(peak.into_inner(), jobs, "jobs={jobs}");
        }
    }

    #[test]
    fn run_points_rows_match_run_benchmark_at_any_jobs() {
        let (matrix, fft) = (benchmarks::matrix(), benchmarks::fft());
        let base = MachineConfig::baseline;
        let mem2 = || base().with_memory(MemoryModel::mem2()).with_seed(3);
        let naive = CompileOptions {
            optimize: false,
            ..CompileOptions::default()
        };
        let points = vec![
            Point::new(&matrix, MachineMode::Seq, base()),
            Point::new(&fft, MachineMode::Sts, base()),
            // Shares point 0's image.
            Point::new(&matrix, MachineMode::Seq, mem2()),
            Point::new(&matrix, MachineMode::Coupled, MachineConfig::with_mix(2, 3)),
            Point {
                options: naive,
                ..Point::new(&matrix, MachineMode::Seq, base())
            },
            Point::new(
                &matrix,
                MachineMode::Coupled,
                base().with_interconnect(InterconnectScheme::TriPort),
            ),
        ];
        let row = |_: &Point<'_>, image: &Image, run: ImageRun| (run.stats, image.peak_registers);
        let serial = run_points(&points, 1, row).unwrap();
        assert_eq!(serial, run_points(&points, 3, row).unwrap());
        for (p, (stats, peak)) in points.iter().zip(&serial) {
            if p.options == naive {
                continue;
            }
            let out = crate::run_benchmark(p.bench, p.mode, p.config.clone()).unwrap();
            assert_eq!(
                (stats, *peak),
                (&out.stats, out.peak_registers),
                "{}",
                p.mode
            );
        }
        // The unoptimized point ran, validated, a different program.
        assert_ne!(serial[4].0.ops_issued, serial[0].0.ops_issued);
    }

    #[test]
    fn run_points_reports_the_lowest_indexed_error() {
        let (matrix, bad) = (benchmarks::matrix(), broken());
        let queue = benchmarks::model_queue_coupled();
        let base = MachineConfig::baseline;
        let points = [
            Point::new(&matrix, MachineMode::Seq, base()),
            Point::new(&matrix, MachineMode::Seq, base().with_seed(1)),
            Point::new(&queue, MachineMode::Ideal, base()),
            Point::new(&matrix, MachineMode::Coupled, base()),
            Point::new(&bad, MachineMode::Seq, base()),
        ];
        for jobs in [1, 3] {
            match run_points(&points, jobs, |_, _, run| run.stats.cycles) {
                Err(RunError::Unsupported { bench, mode }) => {
                    assert_eq!((bench, mode), (queue.name, MachineMode::Ideal));
                }
                other => panic!("jobs={jobs}: expected point 2's error, got {other:?}"),
            }
        }
    }

    #[test]
    fn mix_and_memkind_parse_their_keys() {
        for m in MemKind::all() {
            assert_eq!(MemKind::parse(m.key()), Some(m));
        }
        assert_eq!(MemKind::parse("bogus"), None);
        assert_eq!(Mix::parse("base"), Some(Mix::Baseline));
        assert_eq!(Mix::parse("2x3"), Some(Mix::Units { iu: 2, fpu: 3 }));
        assert_eq!(Mix::parse("0x3"), None);
        assert_eq!(Mix::parse("5x1"), None);
        assert_eq!(Mix::parse("2x"), None);
    }
}
