//! End-to-end tests of the sweep result cache: cross-process key
//! stability, invalidation on program/config change, corruption
//! tolerance, and resume-after-kill semantics.

use coupling::sweep::{cache_key, run_sweep, ResultCache, SweepOptions, SweepSpec};
use coupling::MachineMode;
use pc_isa::MachineConfig;
use std::path::PathBuf;

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("pc-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A two-benchmark, two-mode spec — 4 cells, fast enough to run many
/// times per test.
fn small_spec() -> SweepSpec {
    SweepSpec {
        benches: vec!["matrix".into(), "fft".into()],
        modes: vec![MachineMode::Seq, MachineMode::Coupled],
        ..SweepSpec::table2()
    }
}

/// The stripped, deterministic portion of a sweep's rows.
fn canonical_rows(summary: &coupling::sweep::SweepSummary) -> Vec<String> {
    summary
        .rows
        .iter()
        .map(|r| {
            format!(
                "{} cycles={} ops={} regs={} stats={}",
                r.cell.id(),
                r.stats.cycles,
                r.stats.ops_issued,
                r.peak_registers,
                coupling::sweep::codec::stats_to_json(&r.stats)
            )
        })
        .collect()
}

#[test]
fn cache_key_is_stable_across_processes() {
    // A golden constant: any process, any run, any machine must derive
    // the same key for the same inputs — this is what makes the cache
    // shareable between CI shards. If this assertion fires because of
    // an *intentional* change to the key inputs, bump
    // CACHE_SCHEMA_VERSION and update the constant.
    let key = cache_key(
        "matrix",
        MachineMode::Coupled,
        "golden-source-text",
        &MachineConfig::baseline(),
    );
    assert_eq!(
        key,
        "f5c1d8a6787ee3c3a4148ca28f825707a06c340745d71e388be1251cc75710b5"
    );
}

#[test]
fn warm_rerun_is_all_hits_and_bit_identical() {
    let scratch = Scratch::new("warm");
    let spec = small_spec();
    let opts = SweepOptions {
        cache_dir: Some(scratch.path("cache")),
        ..SweepOptions::default()
    };
    let cold = run_sweep(&spec, &opts).unwrap();
    assert_eq!(cold.misses, 4);
    assert_eq!(cold.hits, 0);
    let warm = run_sweep(&spec, &opts).unwrap();
    assert_eq!(warm.hits, 4, "second run must be 100% cache hits");
    assert_eq!(warm.misses, 0);
    assert_eq!(
        canonical_rows(&cold),
        canonical_rows(&warm),
        "cached rows must be bit-identical to fresh rows"
    );
}

#[test]
fn full_grid_compiles_each_image_once_cold_and_nothing_warm() {
    let scratch = Scratch::new("images");
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(scratch.path("cache")),
        ..SweepOptions::default()
    };
    // 300 cells, one image per benchmark × mode.
    let cold = run_sweep(&SweepSpec::full(), &opts).unwrap();
    assert_eq!(cold.misses, 300);
    assert_eq!(cold.compiles, 20);
    assert!(
        cold.to_json().contains("\"compiles\":20,"),
        "{}",
        cold.to_json()
    );
    assert!(!cold.rows[0].to_jsonl().contains("compiles"));
    let warm = run_sweep(&SweepSpec::full(), &opts).unwrap();
    assert_eq!(warm.hits, 300);
    assert_eq!(warm.compiles, 0, "cache hits must never compile");
    assert!(
        warm.to_json().contains("\"compiles\":0,"),
        "{}",
        warm.to_json()
    );
    assert_eq!(canonical_rows(&cold), canonical_rows(&warm));
}

#[test]
fn changing_config_or_seed_invalidates() {
    let scratch = Scratch::new("invalidate");
    let opts = SweepOptions {
        cache_dir: Some(scratch.path("cache")),
        ..SweepOptions::default()
    };
    let spec = small_spec();
    run_sweep(&spec, &opts).unwrap();
    // Different seed → different config fingerprint → every cell misses.
    let reseeded = SweepSpec { seed: 7, ..spec };
    let run = run_sweep(&reseeded, &opts).unwrap();
    assert_eq!(run.hits, 0, "a config change must not hit stale entries");
    assert_eq!(run.misses, 4);
    // And the original spec still hits — entries coexist.
    let back = run_sweep(&small_spec(), &opts).unwrap();
    assert_eq!(back.hits, 4);
}

#[test]
fn corrupted_and_truncated_entries_recompute_without_panic() {
    let scratch = Scratch::new("corrupt");
    let cache_dir = scratch.path("cache");
    let opts = SweepOptions {
        cache_dir: Some(cache_dir.clone()),
        ..SweepOptions::default()
    };
    let spec = small_spec();
    let cold = run_sweep(&spec, &opts).unwrap();
    // Vandalize every entry a different way: garbage, truncation,
    // valid-JSON-wrong-schema, empty.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 4);
    std::fs::write(&entries[0], b"not json at all").unwrap();
    let text = std::fs::read_to_string(&entries[1]).unwrap();
    std::fs::write(&entries[1], &text.as_bytes()[..text.len() / 2]).unwrap();
    std::fs::write(&entries[2], b"{\"schema\":9999,\"stats\":{}}\n").unwrap();
    std::fs::write(&entries[3], b"").unwrap();
    let rerun = run_sweep(&spec, &opts).unwrap();
    assert_eq!(rerun.hits, 0, "damaged entries must read as misses");
    assert_eq!(rerun.misses, 4);
    assert_eq!(canonical_rows(&cold), canonical_rows(&rerun));
    // The recompute repaired the cache.
    let healed = run_sweep(&spec, &opts).unwrap();
    assert_eq!(healed.hits, 4);
}

#[test]
fn resume_after_kill_completes_exactly_the_missing_cells() {
    let scratch = Scratch::new("resume");
    let spec = small_spec();
    // Reference: one uninterrupted run.
    let full_out = scratch.path("full.jsonl");
    let full = run_sweep(
        &spec,
        &SweepOptions {
            out: Some(full_out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_eq!(full.rows.len(), 4);
    let full_text = std::fs::read_to_string(&full_out).unwrap();
    let lines: Vec<&str> = full_text.lines().collect();
    assert_eq!(lines.len(), 4);

    // Simulate a kill after two rows were flushed but before the
    // manifest acknowledged the second (the worst-case torn state):
    // JSONL has 2 complete lines + half of a third, manifest knows 1.
    let out = scratch.path("rows.jsonl");
    let torn_third = &lines[2][..lines[2].len() / 2];
    std::fs::write(&out, format!("{}\n{}\n{}", lines[0], lines[1], torn_third)).unwrap();
    let manifest_path = scratch.path("rows.jsonl.manifest.json");
    let first_cell = spec.cells().unwrap()[0].id();
    let manifest = coupling::sweep::Manifest {
        spec: spec.fingerprint(),
        shard: None,
        total: 4,
        done: [first_cell].into_iter().collect(),
    };
    std::fs::write(&manifest_path, manifest.to_json()).unwrap();

    let resumed = run_sweep(
        &spec,
        &SweepOptions {
            out: Some(out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    // Cells 0 and 1 were durable (JSONL ∪ manifest); 2 (torn) and 3 run.
    assert_eq!(resumed.prior_done, 2);
    assert_eq!(resumed.rows.len(), 2);
    let resumed_ids: Vec<String> = resumed.rows.iter().map(|r| r.cell.id()).collect();
    let want: Vec<String> = spec.cells().unwrap()[2..].iter().map(|c| c.id()).collect();
    assert_eq!(
        resumed_ids, want,
        "resume must run exactly the missing cells"
    );

    // The final JSONL holds each of the 4 cells exactly once, with rows
    // identical to the uninterrupted run after dropping the torn line
    // and timing fields.
    let text = std::fs::read_to_string(&out).unwrap();
    let strip = |s: &str| -> Option<(String, String)> {
        let row = coupling::sweep::SweepRow::from_jsonl(s).ok()?;
        Some((
            row.cell.id(),
            coupling::sweep::codec::stats_to_json(&row.stats),
        ))
    };
    let mut got: Vec<_> = text.lines().filter_map(strip).collect();
    let mut expect: Vec<_> = full_text.lines().filter_map(strip).collect();
    got.sort();
    expect.sort();
    assert_eq!(got, expect);

    // A second resume is a no-op.
    let again = run_sweep(
        &spec,
        &SweepOptions {
            out: Some(out),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_eq!(again.prior_done, 4);
    assert!(again.rows.is_empty());
}

#[test]
fn resume_under_a_different_spec_is_refused() {
    let scratch = Scratch::new("mismatch");
    let out = scratch.path("rows.jsonl");
    let spec = small_spec();
    run_sweep(
        &spec,
        &SweepOptions {
            out: Some(out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let other = SweepSpec { seed: 3, ..spec };
    let err = run_sweep(
        &other,
        &SweepOptions {
            out: Some(out),
            ..SweepOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("different sweep spec"),
        "got: {err}"
    );
}

#[test]
fn cache_dir_is_shared_between_distinct_sweeps() {
    // A sweep over a superset grid must hit entries populated by a
    // subset sweep — the cache is keyed per cell, not per spec.
    let scratch = Scratch::new("shared");
    let opts = SweepOptions {
        cache_dir: Some(scratch.path("cache")),
        ..SweepOptions::default()
    };
    let subset = SweepSpec {
        benches: vec!["matrix".into()],
        modes: vec![MachineMode::Seq],
        ..SweepSpec::table2()
    };
    run_sweep(&subset, &opts).unwrap();
    let superset = small_spec();
    let run = run_sweep(&superset, &opts).unwrap();
    assert_eq!(run.hits, 1, "the matrix/seq cell must be served cached");
    assert_eq!(run.misses, 3);
    // Both sweeps share the directory without clobbering each other.
    let cache = ResultCache::open(scratch.path("cache")).unwrap();
    assert_eq!(cache.len(), 4);
}
