//! Ablations of the design choices DESIGN.md calls out — not figures
//! from the paper, but studies of the mechanisms behind its results:
//!
//! * **slip** — intra-row slip (Figure 1's A3/A4 example) vs strict
//!   lockstep VLIW issue;
//! * **arbitration** — round-robin vs fixed-priority unit arbitration;
//! * **dual destinations** — the "two simultaneous register
//!   destinations" budget vs one and three;
//! * **writeback buffering** — per-unit result buffering under a
//!   restricted interconnect.

use crate::benchmarks::Benchmark;
use crate::mode::MachineMode;
use crate::report::{f2, Table};
use crate::runner::RunError;
use crate::sweep::{run_points, Point};
use pc_compiler::CompileOptions;
use pc_isa::{
    ArbitrationPolicy, ClusterConfig, InterconnectScheme, MachineConfig, MemoryModel, UnitClass,
};

/// One named configuration point of an ablation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationRow {
    /// Benchmark name.
    pub bench: String,
    /// Configuration label.
    pub variant: String,
    /// Cycle count.
    pub cycles: u64,
}

/// Results of one ablation study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationResults {
    /// Study name.
    pub name: &'static str,
    /// All measurements.
    pub rows: Vec<AblationRow>,
}

impl AblationResults {
    /// Cycles for one point.
    pub fn cycles(&self, bench: &str, variant: &str) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.bench == bench && r.variant == variant)
            .map(|r| r.cycles)
    }

    /// Ratio of one variant to another for a benchmark.
    pub fn ratio(&self, bench: &str, variant: &str, baseline: &str) -> Option<f64> {
        Some(self.cycles(bench, variant)? as f64 / self.cycles(bench, baseline)? as f64)
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("Ablation — {}", self.name),
            &["Benchmark", "Variant", "#Cycles", "vs first"],
        );
        let mut first: Option<(String, u64)> = None;
        for r in &self.rows {
            let base = match &first {
                Some((b, c)) if *b == r.bench => *c,
                _ => {
                    first = Some((r.bench.clone(), r.cycles));
                    r.cycles
                }
            };
            t.row(vec![
                r.bench.clone(),
                r.variant.clone(),
                r.cycles.to_string(),
                f2(r.cycles as f64 / base as f64),
            ]);
        }
        t.render()
    }
}

/// One ablation study as data: every benchmark runs under `mode` on
/// each labelled (machine, compiler options) variant.
#[derive(Debug, Clone)]
pub struct Study {
    /// Study name (the rendered table's title).
    pub name: &'static str,
    /// Machine mode every variant runs in.
    pub mode: MachineMode,
    /// `(label, machine, compiler options)` per variant; the first is
    /// the "vs first" baseline of the rendered table.
    pub variants: Vec<(&'static str, MachineConfig, CompileOptions)>,
}

/// The ten design-choice studies, in the order `pcsim tables ablations`
/// prints them.
pub fn studies() -> Vec<Study> {
    use ArbitrationPolicy::{FixedPriority, RoundRobin};
    use MachineMode::{Coupled, Sts};
    let base = MachineConfig::baseline;
    let tri_port = || base().with_interconnect(InterconnectScheme::TriPort);
    // `n` arithmetic clusters plus one branch cluster.
    let node = |n| {
        let mut clusters = vec![ClusterConfig::arithmetic(); n];
        clusters.push(ClusterConfig::branch());
        MachineConfig::new(clusters)
    };
    let banked = |n| base().with_memory(MemoryModel::min().with_banks(n));
    let fpu_lat = |n| base().with_unit_latency(UnitClass::Float, n);
    // A variant of the machine, or of the compiler on the baseline one.
    let on = |label, config| (label, config, CompileOptions::default());
    let compiled = |label, optimize, licm| (label, base(), CompileOptions { optimize, licm });
    vec![
        Study {
            name: "intra-row slip vs lockstep issue (Coupled)",
            mode: Coupled,
            variants: vec![
                on("slip", base()),
                on("lockstep", base().with_lockstep_issue(true)),
            ],
        },
        Study {
            name: "unit arbitration policy (Coupled)",
            mode: Coupled,
            variants: vec![
                on("round-robin", base().with_arbitration(RoundRobin)),
                on("fixed-priority", base().with_arbitration(FixedPriority)),
            ],
        },
        // With one destination every cross-cluster value costs a move.
        Study {
            name: "destination-register budget (Coupled)",
            mode: Coupled,
            variants: vec![
                on("1 dst", base().with_max_dsts(1)),
                on("2 dsts", base().with_max_dsts(2)),
                on("3 dsts", base().with_max_dsts(3)),
            ],
        },
        Study {
            name: "writeback buffer depth under Tri-Port (Coupled)",
            mode: Coupled,
            variants: vec![
                on("depth 1", tri_port().with_wb_buffer(1)),
                on("depth 2", tri_port().with_wb_buffer(2)),
                on("depth 4", tri_port().with_wb_buffer(4)),
                on("depth 8", tri_port().with_wb_buffer(8)),
            ],
        },
        // The paper: "simulation showed that a single branch unit is
        // sufficient" (§4, Number and Mix).
        Study {
            name: "branch clusters (Coupled)",
            mode: Coupled,
            variants: vec![
                on("2 branch clusters", base()),
                on("1 branch cluster", node(4)),
            ],
        },
        // The paper's intro: coupling is "useful in machines ranging
        // from workstations based upon a single multi-ALU node to
        // massively parallel machines"; this sweeps the node's width.
        Study {
            name: "arithmetic cluster count (Coupled)",
            mode: Coupled,
            variants: vec![
                on("1 cluster (workstation)", node(1)),
                on("2 clusters", node(2)),
                on("4 clusters", node(4)),
            ],
        },
        // The paper assumes "a memory operation can always access the
        // necessary bank"; this measures what that idealization hides
        // with 4 or 8 interleaved banks.
        Study {
            name: "memory bank conflicts (Coupled)",
            mode: Coupled,
            variants: vec![
                on("no conflicts", base()),
                on("8 banks", banked(8)),
                on("4 banks", banked(4)),
            ],
        },
        // "A unit may be pipelined to arbitrary depth" (§2);
        // multithreading hides the deeper pipelines much as it hides
        // memory latency.
        Study {
            name: "floating-point pipeline depth (Coupled)",
            mode: Coupled,
            variants: vec![
                on("fpu lat 1", base()),
                on("fpu lat 2", fpu_lat(2)),
                on("fpu lat 4", fpu_lat(4)),
            ],
        },
        // The paper's compiler "performs several optimizations"; this
        // measures what they buy end to end.
        Study {
            name: "compiler optimizations (Coupled)",
            mode: Coupled,
            variants: vec![
                compiled("optimized", true, false),
                compiled("naive", false, false),
            ],
        },
        // The §7 "better compilation" extension: the paper's own
        // compiler never moves code across basic blocks. Run in STS
        // mode, where static schedule quality matters most.
        Study {
            name: "loop-invariant code motion (STS)",
            mode: Sts,
            variants: vec![
                compiled("paper-faithful", true, false),
                compiled("with LICM", true, true),
            ],
        },
    ]
}

/// Runs `studies` over `benches` as one grid on `jobs` worker threads
/// and regroups the rows per study: study-major, then benchmark, then
/// variant, whatever `jobs` is.
///
/// # Errors
/// Propagates the first (lowest grid-index) failure.
pub fn run(
    studies: &[Study],
    benches: &[Benchmark],
    jobs: usize,
) -> Result<Vec<AblationResults>, RunError> {
    let mut points = Vec::new();
    for study in studies {
        for b in benches {
            for (_, config, options) in &study.variants {
                points.push(Point {
                    options: *options,
                    ..Point::new(b, study.mode, config.clone())
                });
            }
        }
    }
    let mut cycles = run_points(&points, jobs, |_, _, run| run.stats.cycles)?.into_iter();
    let regroup = |study: &Study| {
        let labels = benches.iter().flat_map(|b| {
            study
                .variants
                .iter()
                .map(move |(label, ..)| (b.name, label))
        });
        let rows = labels
            .zip(cycles.by_ref())
            .map(|((bench, variant), cycles)| AblationRow {
                bench: bench.to_string(),
                variant: variant.to_string(),
                cycles,
            })
            .collect();
        AblationResults {
            name: study.name,
            rows,
        }
    };
    Ok(studies.iter().map(regroup).collect())
}

/// Runs every study on the fast benchmarks over `jobs` worker threads.
///
/// # Errors
/// Propagates the first (lowest grid-index) failure.
pub fn run_all_jobs(jobs: usize) -> Result<Vec<AblationResults>, RunError> {
    let benches = [
        crate::benchmarks::matrix(),
        crate::benchmarks::fft(),
        crate::benchmarks::model(),
    ];
    run(&studies(), &benches, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    /// Runs the study whose name starts with `name` over `benches`.
    fn study(name: &str, benches: &[Benchmark]) -> AblationResults {
        let study = studies()
            .into_iter()
            .find(|s| s.name.starts_with(name))
            .expect("a known study");
        run(&[study], benches, 1).unwrap().remove(0)
    }

    #[test]
    fn slip_beats_lockstep() {
        let r = study("intra-row slip", &[benchmarks::matrix()]);
        let with = r.cycles("Matrix", "slip").unwrap();
        let without = r.cycles("Matrix", "lockstep").unwrap();
        assert!(
            without >= with,
            "lockstep {without} should not beat slip {with}"
        );
        assert!(r.render().contains("lockstep"));
    }

    #[test]
    fn arbitration_policies_both_validate() {
        let r = study("unit arbitration", &[benchmarks::fft()]);
        assert!(r.cycles("FFT", "round-robin").is_some());
        assert!(r.cycles("FFT", "fixed-priority").is_some());
    }

    #[test]
    fn single_destination_costs_cycles() {
        let r = study("destination-register", &[benchmarks::matrix()]);
        let one = r.cycles("Matrix", "1 dst").unwrap();
        let two = r.cycles("Matrix", "2 dsts").unwrap();
        assert!(one >= two, "1 dst {one} vs 2 dsts {two}");
        // A third destination buys little on the baseline machine — it
        // can even cost slightly (wider fanout keeps more registers
        // in-flight), supporting the paper's choice of two.
        let three = r.cycles("Matrix", "3 dsts").unwrap();
        let gain = two as f64 / three as f64;
        assert!((0.8..1.3).contains(&gain), "2->3 dst gain {gain}");
    }

    #[test]
    fn wider_nodes_speed_up_threaded_code() {
        let r = study("arithmetic cluster", &[benchmarks::matrix()]);
        let one = r.cycles("Matrix", "1 cluster (workstation)").unwrap();
        let two = r.cycles("Matrix", "2 clusters").unwrap();
        let four = r.cycles("Matrix", "4 clusters").unwrap();
        assert!(one > two, "1 cluster {one} vs 2 {two}");
        assert!(two > four, "2 clusters {two} vs 4 {four}");
        // Not perfectly linear: the sequential spawn/join section remains.
        assert!(
            (four as f64) > (one as f64) / 4.5,
            "superlinear? {one} -> {four}"
        );
    }

    #[test]
    fn bank_conflicts_cost_cycles() {
        // At benchmark scale, second-order arbitration effects can swing a
        // couple of percent either way; the cycle assertion uses slack and
        // the mechanism is verified through the wait counter.
        let r = study("memory bank", &[benchmarks::matrix()]);
        let ideal = r.cycles("Matrix", "no conflicts").unwrap() as f64;
        let four = r.cycles("Matrix", "4 banks").unwrap() as f64;
        assert!(four >= 0.95 * ideal, "4 banks {four} vs ideal {ideal}");
        let matrix = benchmarks::matrix();
        let two_banks = MachineConfig::baseline().with_memory(MemoryModel::min().with_banks(2));
        let point = Point::new(&matrix, MachineMode::Coupled, two_banks);
        let waits = run_points(&[point], 1, |_, _, run| run.stats.mem.bank_wait_cycles).unwrap();
        assert!(waits[0] > 0, "2-bank Matrix should see bank waits");
    }

    #[test]
    fn one_branch_cluster_is_nearly_sufficient() {
        let r = study("branch clusters", &[benchmarks::matrix()]);
        let two = r.cycles("Matrix", "2 branch clusters").unwrap();
        let one = r.cycles("Matrix", "1 branch cluster").unwrap();
        // Paper: a single branch unit suffices; allow modest slack.
        let ratio = one as f64 / two as f64;
        assert!(
            (0.8..1.35).contains(&ratio),
            "1 vs 2 branch clusters: {ratio}"
        );
    }

    #[test]
    fn deeper_fpu_pipelines_cost_but_validate() {
        let r = study("floating-point pipeline", &[benchmarks::matrix()]);
        let d1 = r.cycles("Matrix", "fpu lat 1").unwrap();
        let d4 = r.cycles("Matrix", "fpu lat 4").unwrap();
        assert!(d4 > d1, "lat 4 {d4} vs lat 1 {d1}");
        // Multithreading keeps the cost well below the 4x latency.
        assert!((d4 as f64) < 3.0 * d1 as f64, "lat 4 {d4} vs lat 1 {d1}");
    }

    #[test]
    fn licm_helps_or_holds_and_validates() {
        // run_points validates numerically in both configurations.
        let r = study("loop-invariant", &[benchmarks::matrix(), benchmarks::lud()]);
        for bench in ["Matrix", "LUD"] {
            let faithful = r.cycles(bench, "paper-faithful").unwrap() as f64;
            let hoisted = r.cycles(bench, "with LICM").unwrap() as f64;
            assert!(
                hoisted <= faithful * 1.05,
                "{bench}: LICM {hoisted} vs faithful {faithful}"
            );
        }
    }

    #[test]
    fn optimizations_pay_and_never_change_results() {
        // run_points validates numerically either way.
        let r = study("compiler optimizations", &[benchmarks::matrix()]);
        let opt = r.cycles("Matrix", "optimized").unwrap();
        let naive = r.cycles("Matrix", "naive").unwrap();
        assert!(naive > opt, "naive {naive} vs optimized {opt}");
    }

    #[test]
    fn deeper_writeback_buffers_help_under_contention() {
        let r = study("writeback buffer", &[benchmarks::matrix()]);
        let d1 = r.cycles("Matrix", "depth 1").unwrap();
        let d8 = r.cycles("Matrix", "depth 8").unwrap();
        assert!(d8 <= d1, "depth 8 {d8} vs depth 1 {d1}");
    }
}
