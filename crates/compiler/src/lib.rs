//! # pc-compiler — the processor-coupling compiler
//!
//! A from-scratch reimplementation of the paper's prototype compiler
//! (originally Common Lisp): a source language with "simplified C
//! semantics and Lisp syntax", explicit thread partitioning via `fork` and
//! `forall`, per-machine-configuration static scheduling, and the
//! optimizations the paper lists (constant propagation, CSE, static
//! evaluation of constant expressions). Like the original it performs
//! **no** trace scheduling or software pipelining, keeps live variables in
//! registers across basic blocks, never spills (registers are assumed
//! plentiful; the peak per-cluster count is reported to the simulator),
//! inlines procedures as macro-expansions, and unrolls loops only where
//! the source says `:unroll full`.
//!
//! ```
//! use pc_compiler::{compile, ScheduleMode};
//! use pc_isa::MachineConfig;
//!
//! let src = r#"
//!   (global out (array int 4))
//!   (defun main ()
//!     (for (i 0 4) (aset out i (* i i))))
//! "#;
//! let out = compile(src, &MachineConfig::baseline(), ScheduleMode::Unrestricted).unwrap();
//! assert_eq!(out.program.segments.len(), 1);
//! assert!(out.program.symbol("out").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod front;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod opt;
pub mod sched;
pub mod sexpr;

pub use error::{CompileError, Result};
pub use sched::ScheduleMode;

use pc_isa::{ClusterConfig, MachineConfig, Program, RegId, SegmentId};
use std::collections::HashMap;

/// Per-segment diagnostics, mirroring the original compiler's "diagnostic
/// file" output.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Segment name.
    pub name: String,
    /// Static schedule length in rows (the "compile time schedule" of
    /// Table 3).
    pub rows: usize,
    /// Operations emitted.
    pub ops: usize,
    /// Peak registers used per cluster.
    pub regs_per_cluster: Vec<u32>,
    /// Load-balancing variant.
    pub variant: usize,
}

/// A compiled program plus diagnostics.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The executable program (validated against the target config).
    pub program: Program,
    /// Per-segment information.
    pub info: Vec<SegmentInfo>,
    /// Source-provenance side table: per `(segment, row, slot)` span ids
    /// plus the interned span/loop tables (see [`pc_isa::DebugMap`]).
    pub debug: pc_isa::DebugMap,
}

impl CompileOutput {
    /// Peak register count over all segments and clusters (the paper
    /// reports e.g. "fewer than 60 live registers per cluster", 490 for
    /// ideal-mode Matrix).
    pub fn peak_registers(&self) -> u32 {
        self.info
            .iter()
            .flat_map(|s| s.regs_per_cluster.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// Knobs for [`compile_with_options`].
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Run the optimization passes (constant propagation, CSE, copy
    /// coalescing, DCE). On by default; turning it off reproduces a
    /// naive compiler for ablation and differential testing.
    pub optimize: bool,
    /// Loop-invariant code motion — cross-block code motion the paper's
    /// compiler deliberately lacks; off by default to stay faithful.
    /// Provided as the §7 "better compilation" extension.
    pub licm: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimize: true,
            licm: false,
        }
    }
}

/// The part of a [`MachineConfig`] the compiler reads: the clusters
/// (each unit's class and latency, in order) and the per-operation
/// destination budget `max_dsts`.
///
/// [`compile_with_options`] schedules and validates against
/// [`CompileKey::config`], never against the configuration it was
/// handed, so two configurations with equal keys compile every source to
/// the same program and debug map. The interconnect, memory model, seed,
/// arbitration policy, writeback buffer, issue discipline and thread
/// limit are resolved at run time and are not part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileKey {
    clusters: Vec<ClusterConfig>,
    max_dsts: usize,
}

impl CompileKey {
    /// The key of `config`.
    pub fn of(config: &MachineConfig) -> Self {
        CompileKey {
            clusters: config.clusters().to_vec(),
            max_dsts: config.max_dsts,
        }
    }

    /// The machine the compiler schedules for: the key's clusters and
    /// destination budget, every run-time setting left at its default.
    pub fn config(&self) -> MachineConfig {
        let mut config = MachineConfig::new(self.clusters.clone());
        config.max_dsts = self.max_dsts;
        config
    }
}

/// Compiles source text for a machine configuration.
///
/// `mode` selects the paper's compilation switch: [`ScheduleMode::Single`]
/// pins each thread to one cluster (SEQ / TPE machine models);
/// [`ScheduleMode::Unrestricted`] schedules across all clusters (STS /
/// Ideal / Coupled).
///
/// # Errors
/// Syntax, type, or scheduling errors ([`CompileError`]).
pub fn compile(src: &str, config: &MachineConfig, mode: ScheduleMode) -> Result<CompileOutput> {
    compile_with_options(src, config, mode, CompileOptions::default())
}

/// [`compile`] with explicit [`CompileOptions`]. Only `config`'s
/// [`CompileKey`] reaches the compiler.
///
/// # Errors
/// Syntax, type, or scheduling errors ([`CompileError`]).
pub fn compile_with_options(
    src: &str,
    config: &MachineConfig,
    mode: ScheduleMode,
    options: CompileOptions,
) -> Result<CompileOutput> {
    let config = &CompileKey::of(config).config();
    let module = front::expand(src)?;
    let k = config.arith_clusters().count().max(1);
    let mut ir = lower::lower(&module, lower::LowerOptions { forall_variants: k })?;
    if options.optimize {
        for f in &mut ir.funcs {
            opt::optimize_with(f, options.licm);
        }
    }

    // Children are created after their parents during lowering, so
    // scheduling in reverse index order guarantees fork targets are ready.
    let mut scheduled: Vec<Option<sched::Scheduled>> = vec![None; ir.funcs.len()];
    let mut child_params: HashMap<usize, Vec<RegId>> = HashMap::new();
    for idx in (0..ir.funcs.len()).rev() {
        let s = sched::schedule_func(&ir.funcs[idx], config, mode, &child_params)?;
        child_params.insert(idx, s.param_regs.clone());
        scheduled[idx] = Some(s);
    }

    let mut program = Program::new();
    let mut info = Vec::new();
    let mut debug = pc_isa::DebugMap {
        spans: ir.spans.clone(),
        loops: ir.loops.clone(),
        segments: Vec::new(),
    };
    for (idx, s) in scheduled.into_iter().enumerate() {
        let s = s.expect("scheduled above");
        info.push(SegmentInfo {
            name: s.segment.name.clone(),
            rows: s.segment.rows.len(),
            ops: s.segment.op_count(),
            regs_per_cluster: s.segment.regs_per_cluster.clone(),
            variant: ir.funcs[idx].variant,
        });
        debug.segments.push(s.debug);
        program.add_segment(s.segment);
    }
    debug_assert!(debug.consistent());
    program.entry = SegmentId(0);
    for (name, _addr, len, _ty) in &ir.symbols {
        program.alloc_symbol(name.clone(), *len);
    }
    debug_assert_eq!(program.memory_size, ir.memory_size);

    pc_isa::validate_program(&program, config)
        .map_err(|e| CompileError::new(format!("internal: emitted invalid code: {e}")))?;
    Ok(CompileOutput {
        program,
        info,
        debug,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_isa::{InterconnectScheme, MachineConfig};

    fn baseline() -> MachineConfig {
        MachineConfig::baseline()
    }

    #[test]
    fn compiles_straight_line_float_code() {
        let src = r#"
            (global a (array float 4))
            (defun main () (aset a 0 (+ 1.5 2.0)) (aset a 1 (* 2.0 3.0)))
        "#;
        let out = compile(src, &baseline(), ScheduleMode::Unrestricted).unwrap();
        assert_eq!(out.program.segments.len(), 1);
        // Constant folding leaves only the two stores + halt.
        assert_eq!(out.program.op_count(), 3);
    }

    #[test]
    fn single_mode_uses_one_arith_cluster() {
        let src = r#"
            (global a (array float 16)) (global n int)
            (defun main ()
              (let ((x (aref a 0)))
                (for (i 1 8) (set x (+ x (aref a i))))
                (aset a 8 x)))
        "#;
        let out = compile(src, &baseline(), ScheduleMode::Single).unwrap();
        // All non-branch registers live in cluster 0 (variant 0).
        let regs = &out.info[0].regs_per_cluster;
        assert!(regs[0] > 0);
        assert_eq!(regs[1], 0);
        assert_eq!(regs[2], 0);
        assert_eq!(regs[3], 0);
    }

    #[test]
    fn unrestricted_mode_spreads_across_clusters() {
        // Eight independent chains: plenty of parallelism to spread.
        let src = r#"
            (global a (array float 8)) (global b (array float 8))
            (defun main ()
              (for (i 0 8) :unroll full
                (aset b i (* (+ (aref a i) 1.0) 2.0))))
        "#;
        let out = compile(src, &baseline(), ScheduleMode::Unrestricted).unwrap();
        let used: usize = out.info[0]
            .regs_per_cluster
            .iter()
            .take(4)
            .filter(|&&c| c > 0)
            .count();
        assert!(used >= 2, "expected multiple clusters used, got {used}");
        // And the schedule should be shorter than single-cluster mode.
        let seq = compile(src, &baseline(), ScheduleMode::Single).unwrap();
        assert!(
            out.info[0].rows < seq.info[0].rows,
            "unrestricted {} rows vs single {} rows",
            out.info[0].rows,
            seq.info[0].rows
        );
    }

    #[test]
    fn forall_produces_variant_segments() {
        let src = r#"
            (global out (array int 16))
            (defun main () (forall (i 0 16) (aset out i (* i 2))))
        "#;
        let out = compile(src, &baseline(), ScheduleMode::Unrestricted).unwrap();
        assert_eq!(out.program.segments.len(), 5); // main + 4 variants
                                                   // Variants rotate cluster assignments: their register usage
                                                   // fingerprints should not all be identical on cluster 0.
        let c0: Vec<u32> = out.info[1..]
            .iter()
            .map(|i| i.regs_per_cluster[0])
            .collect();
        assert!(
            c0.iter().any(|&x| x != c0[0]) || c0.iter().all(|&x| x == 0) || c0.len() == 1,
            "variants should differ: {c0:?}"
        );
    }

    #[test]
    fn fork_arguments_route_to_branch_cluster() {
        let src = r#"
            (global out (array int 4))
            (defun main () (let ((x 7)) (fork (aset out 0 x))))
        "#;
        let out = compile(src, &baseline(), ScheduleMode::Unrestricted).unwrap();
        // Find the fork op; its source must be a branch-cluster register
        // or an immediate.
        let cfg = baseline();
        let main_seg = out.program.segment(pc_isa::SegmentId(0));
        let mut saw_fork = false;
        for row in &main_seg.rows {
            for (fu, op) in row.slots() {
                if let pc_isa::OpKind::Branch(pc_isa::BranchOp::Fork { .. }) = &op.kind {
                    saw_fork = true;
                    let cluster = cfg.fu(*fu).cluster;
                    for s in &op.srcs {
                        if let pc_isa::Operand::Reg(r) = s {
                            assert_eq!(r.cluster, cluster);
                        }
                    }
                }
            }
        }
        assert!(saw_fork);
    }

    #[test]
    fn validates_on_every_scheme() {
        let src = r#"
            (global a (array float 8)) (global n int)
            (defun main ()
              (for (i 0 8) (aset a i (float (* i i)))))
        "#;
        for scheme in InterconnectScheme::all() {
            let cfg = baseline().with_interconnect(scheme);
            compile(src, &cfg, ScheduleMode::Unrestricted).unwrap();
        }
    }

    #[test]
    fn mix_configs_schedule() {
        let src = r#"
            (global a (array float 8))
            (defun main () (for (i 0 8) (aset a i (+ (aref a i) 1.0))))
        "#;
        for iu in 1..=4 {
            for fpu in 1..=4 {
                let cfg = MachineConfig::with_mix(iu, fpu);
                compile(src, &cfg, ScheduleMode::Unrestricted).unwrap_or_else(|e| {
                    panic!("mix {iu}x{fpu}: {e}");
                });
            }
        }
    }

    #[test]
    fn peak_registers_reported() {
        let src = r#"
            (global a (array float 32)) (global b (array float 32))
            (defun main ()
              (for (i 0 32) :unroll full (aset b i (+ (aref a i) 1.0))))
        "#;
        let out = compile(src, &baseline(), ScheduleMode::Unrestricted).unwrap();
        assert!(out.peak_registers() > 0);
    }

    #[test]
    fn reports_rows_as_static_schedule_length() {
        let src = "(defun main () (probe 0))";
        let out = compile(src, &baseline(), ScheduleMode::Unrestricted).unwrap();
        assert!(out.info[0].rows >= 1);
        assert_eq!(out.info[0].name, "main");
    }

    #[test]
    fn compile_errors_propagate() {
        assert!(compile(
            "(defun main () (set x (+ 1 2.0)))",
            &baseline(),
            ScheduleMode::Single
        )
        .is_err());
        assert!(compile("(no-main)", &baseline(), ScheduleMode::Single).is_err());
    }
}
