//! Pins the compiler's output: the `pc-asm` print (program plus debug
//! map) of a fixed matrix of compiles, hashed with FNV-1a 64, must match
//! `tests/golden/compile_hashes.txt` line for line. A compile error is
//! pinned by hashing its message.
//!
//! The matrix is every benchmark × mode plus the two Table 3 queue
//! variants, each under three machines (baseline, one destination per
//! operation, the 2-IU/3-FPU mix) and three option sets (default, no
//! optimizer, LICM on), plus every `programs/*.pc` in both schedule
//! modes on the baseline.
//!
//! On a mismatch the computed table is written to
//! `$CARGO_TARGET_TMPDIR/compile_hashes.txt`; after an intentional
//! change to the compiled code, review the diff and copy it over the
//! golden file.

use coupling::benchmarks::{self, Benchmark};
use coupling::MachineMode;
use pc_compiler::{compile_with_options, CompileOptions, ScheduleMode};
use pc_isa::MachineConfig;

const GOLDEN: &str = include_str!("golden/compile_hashes.txt");

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The hash of one compile's printed program, or of its error.
fn compile_hash(
    src: &str,
    config: &MachineConfig,
    mode: ScheduleMode,
    options: CompileOptions,
) -> u64 {
    let text = match compile_with_options(src, config, mode, options) {
        Ok(out) => pc_asm::print_program_with_debug(&out.program, &out.debug),
        Err(e) => format!("error: {e}"),
    };
    fnv1a64(text.as_bytes())
}

fn machines() -> [(&'static str, MachineConfig); 3] {
    [
        ("baseline", MachineConfig::baseline()),
        ("max_dsts1", MachineConfig::baseline().with_max_dsts(1)),
        ("mix2x3", MachineConfig::with_mix(2, 3)),
    ]
}

fn option_sets() -> [(&'static str, CompileOptions); 3] {
    [
        ("default", CompileOptions::default()),
        (
            "no_opt",
            CompileOptions {
                optimize: false,
                ..CompileOptions::default()
            },
        ),
        (
            "licm",
            CompileOptions {
                licm: true,
                ..CompileOptions::default()
            },
        ),
    ]
}

/// One `name hash` line per compile, in a fixed order.
fn hash_table() -> String {
    let mut benches: Vec<(String, Benchmark)> = benchmarks::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b))
        .collect();
    benches.push((
        "model_queue_coupled".into(),
        benchmarks::model_queue_coupled(),
    ));
    benches.push(("model_queue_sts".into(), benchmarks::model_queue_sts()));

    let mut lines = Vec::new();
    for (name, bench) in &benches {
        for mode in MachineMode::all() {
            let Some(src) = bench.source(mode) else {
                continue;
            };
            for (machine, config) in &machines() {
                for (opts, options) in option_sets() {
                    let h = compile_hash(src, config, mode.schedule_mode(), options);
                    lines.push(format!("{name}/{mode}/{machine}/{opts} {h:016x}"));
                }
            }
        }
    }

    let mut programs: Vec<_> = std::fs::read_dir("programs")
        .expect("programs/ directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pc"))
        .collect();
    programs.sort();
    for path in &programs {
        let src = std::fs::read_to_string(path).expect("readable program");
        let name = path.file_name().unwrap().to_string_lossy();
        for (label, mode) in [
            ("single", ScheduleMode::Single),
            ("unrestricted", ScheduleMode::Unrestricted),
        ] {
            let h = compile_hash(
                &src,
                &MachineConfig::baseline(),
                mode,
                CompileOptions::default(),
            );
            lines.push(format!("programs/{name}/{label} {h:016x}"));
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn compiled_output_matches_the_golden_hashes() {
    let got = hash_table();
    if got == GOLDEN {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compile_hashes.txt");
    std::fs::write(&out, &got).expect("write the computed table");
    let want: Vec<&str> = GOLDEN.lines().collect();
    let have: Vec<&str> = got.lines().collect();
    let diffs: Vec<String> = have
        .iter()
        .filter(|l| !want.contains(l))
        .map(|l| format!("  now {l}"))
        .chain(
            want.iter()
                .filter(|l| !have.contains(l))
                .map(|l| format!("  was {l}")),
        )
        .collect();
    panic!(
        "compiled output differs from tests/golden/compile_hashes.txt \
         (computed table written to {}):\n{}",
        out.display(),
        diffs.join("\n")
    );
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
