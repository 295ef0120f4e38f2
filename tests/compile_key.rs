//! `CompileKey` is exactly the part of a machine configuration the
//! compiler reads. Changing only a run-time setting leaves the key, the
//! printed program and the debug map unchanged for every benchmark ×
//! mode; changing the units or the destination budget changes the key.

use coupling::{benchmarks, MachineMode};
use pc_compiler::{compile, CompileKey};
use pc_isa::{ArbitrationPolicy, InterconnectScheme, MachineConfig, MemoryModel, UnitClass};

/// The baseline with exactly one run-time setting changed.
fn runtime_variants() -> Vec<(&'static str, MachineConfig)> {
    let base = MachineConfig::baseline();
    let mut max_threads = base.clone();
    max_threads.max_threads = 3;
    vec![
        (
            "interconnect",
            base.clone()
                .with_interconnect(InterconnectScheme::SharedBus),
        ),
        ("memory", base.clone().with_memory(MemoryModel::mem2())),
        ("seed", base.clone().with_seed(0xdead_beef)),
        (
            "arbitration",
            base.clone()
                .with_arbitration(ArbitrationPolicy::FixedPriority),
        ),
        ("wb_buffer", base.clone().with_wb_buffer(1)),
        ("lockstep_issue", base.clone().with_lockstep_issue(true)),
        ("max_threads", max_threads),
    ]
}

#[test]
fn runtime_settings_leave_the_key_and_the_compiled_code_unchanged() {
    let base = MachineConfig::baseline();
    let variants = runtime_variants();
    for bench in benchmarks::all() {
        for mode in MachineMode::all() {
            let Some(src) = bench.source(mode) else {
                continue;
            };
            let want = compile(src, &base, mode.schedule_mode()).unwrap();
            let want_text = pc_asm::print_program(&want.program);
            for (field, config) in &variants {
                assert_ne!(*config, base, "{field} variant equals the baseline");
                assert_eq!(
                    CompileKey::of(config),
                    CompileKey::of(&base),
                    "{field} changed the key"
                );
                let got = compile(src, config, mode.schedule_mode()).unwrap();
                let what = format!("{}/{mode} with {field} changed", bench.name);
                assert_eq!(pc_asm::print_program(&got.program), want_text, "{what}");
                assert_eq!(got.debug, want.debug, "{what}");
            }
        }
    }
}

#[test]
fn units_and_destination_budget_change_the_key() {
    let base = CompileKey::of(&MachineConfig::baseline());
    for (what, config) in [
        ("with_mix(2, 3)", MachineConfig::with_mix(2, 3)),
        (
            "with_max_dsts(1)",
            MachineConfig::baseline().with_max_dsts(1),
        ),
        (
            "float latency 3",
            MachineConfig::baseline().with_unit_latency(UnitClass::Float, 3),
        ),
    ] {
        assert_ne!(CompileKey::of(&config), base, "{what}");
    }
}
