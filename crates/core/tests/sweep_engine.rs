//! End-to-end tests of the sweep engine: parallel, sharded, and cached
//! executions must all be bit-identical to a serial cold run, and the
//! pool's shared cursor must keep a slow cell from serializing the rest.

use coupling::sweep::{
    par_map, run_sweep, MemKind, Mix, SweepOptions, SweepRow, SweepSpec, SweepSummary,
};
use coupling::{run_benchmark, MachineMode};
use pc_isa::InterconnectScheme;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// The deterministic portion of a sweep's rows, in cell order.
fn canonical(summary: &SweepSummary) -> Vec<String> {
    summary
        .rows
        .iter()
        .map(|r| {
            format!(
                "{} regs={} {}",
                r.cell.id(),
                r.peak_registers,
                coupling::sweep::codec::stats_to_json(&r.stats)
            )
        })
        .collect()
}

fn small_spec() -> SweepSpec {
    SweepSpec {
        benches: vec!["matrix".into(), "fft".into()],
        modes: vec![MachineMode::Seq, MachineMode::Sts, MachineMode::Coupled],
        ..SweepSpec::table2()
    }
}

#[test]
fn parallel_rows_are_bit_identical_to_serial_regardless_of_schedule() {
    let spec = small_spec();
    let serial = run_sweep(
        &spec,
        &SweepOptions {
            jobs: 1,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_eq!(serial.rows.len(), 6);
    // Even on a single-CPU host, 4 worker threads interleave under the
    // OS scheduler, exercising arbitrary completion orders.
    for trial in 0..3 {
        let parallel = run_sweep(
            &spec,
            &SweepOptions {
                jobs: 4,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            canonical(&serial),
            canonical(&parallel),
            "trial {trial}: parallel rows diverged from serial"
        );
    }
}

#[test]
fn shard_union_is_bit_identical_to_the_unsharded_run() {
    let spec = small_spec();
    let whole = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let mut stitched = Vec::new();
    for k in 1..=3 {
        let shard = run_sweep(
            &spec,
            &SweepOptions {
                shard: Some((k, 3)),
                jobs: 2,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        stitched.extend(canonical(&shard));
    }
    let mut want = canonical(&whole);
    want.sort();
    stitched.sort();
    assert_eq!(want, stitched);
}

#[test]
fn injected_slow_job_does_not_serialize_the_pool() {
    // One item is 16x slower than the rest. A fixed pre-partition would
    // strand the short items behind it on one worker; the shared cursor
    // must let the other workers claim them. Wall-clock assertions are
    // only meaningful with real parallel hardware, so gate on the host.
    let slow = Duration::from_millis(80);
    let fast = Duration::from_millis(5);
    let items: Vec<Duration> = std::iter::once(slow)
        .chain(std::iter::repeat(fast).take(16))
        .collect();
    let serial_sum: Duration = items.iter().sum();
    let t0 = Instant::now();
    let out = par_map(&items, 4, |d| {
        std::thread::sleep(*d);
        d.as_millis()
    });
    let elapsed = t0.elapsed();
    assert_eq!(out.len(), items.len());
    assert_eq!(out[0], 80, "results stay in item order");
    if coupling::default_jobs() >= 2 {
        assert!(
            elapsed < serial_sum,
            "the pool should beat the serial sum on a multi-core \
             host: {elapsed:?} vs {serial_sum:?}"
        );
    } else {
        eprintln!("skipped: single-core host (wall-clock assertion)");
    }
}

#[test]
fn parallel_sweep_beats_serial_on_multi_core_hosts() {
    if coupling::default_jobs() < 2 {
        eprintln!("skipped: single-core host (>=1.5x speedup assertion)");
        return;
    }
    // Modest grid, measured both ways; the issue's acceptance bar is
    // >=1.5x at the CLI, enforced here at the library layer.
    let spec = SweepSpec {
        benches: vec!["matrix".into(), "fft".into(), "lud".into()],
        modes: vec![MachineMode::Seq, MachineMode::Coupled],
        ..SweepSpec::table2()
    };
    let t0 = Instant::now();
    run_sweep(
        &spec,
        &SweepOptions {
            jobs: 1,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let serial = t0.elapsed();
    let t1 = Instant::now();
    run_sweep(
        &spec,
        &SweepOptions {
            jobs: coupling::default_jobs(),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let parallel = t1.elapsed();
    assert!(
        parallel.as_secs_f64() < serial.as_secs_f64() / 1.5,
        "expected >=1.5x speedup: serial {serial:?}, parallel {parallel:?}"
    );
}

/// A fresh path for a `metrics_out` file, unique to this process and
/// `name`.
fn metrics_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join(format!("pc-sweep-{name}-{}", std::process::id()))
        .join("metrics.jsonl")
}

/// The counters and gauges of the final snapshot in the `metrics_out`
/// file at `path`, keyed as the JSONL writes them (`name` or
/// `name{worker=N}`); histograms are skipped. Removes the file's
/// directory afterwards.
fn final_snapshot(path: &std::path::Path) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path).unwrap();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    let line = text.lines().last().expect("the final snapshot is written");
    let body = line
        .strip_prefix("{\"telemetry\":true,\"metrics\":{")
        .and_then(|b| b.strip_suffix("}}"))
        .unwrap_or_else(|| panic!("not a snapshot line: {line}"));
    // Split at the commas outside histogram objects and bucket arrays.
    let (mut fields, mut depth, mut from) = (Vec::new(), 0, 0);
    for (i, c) in body.char_indices() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => {
                fields.push(&body[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[from..]);
    fields
        .into_iter()
        .filter_map(|field| {
            let (key, value) = field.rsplit_once(':')?;
            let key = key.strip_prefix('"')?.strip_suffix('"')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[test]
fn telemetry_on_rows_are_bit_identical_to_telemetry_off() {
    // Host telemetry is a pure observer: the deterministic portion of
    // every row (cell id, registers, full stats) must not move by a
    // single bit when the registry and snapshot emitter are active.
    // Only wall times may differ.
    let spec = small_spec();
    let off = run_sweep(
        &spec,
        &SweepOptions {
            jobs: 4,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let path = metrics_path("bit-identical");
    let on = run_sweep(
        &spec,
        &SweepOptions {
            jobs: 4,
            metrics_out: Some(path.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let snap = final_snapshot(&path);
    assert_eq!(snap.get("cells_done_total"), Some(&(on.rows.len() as u64)));
    assert_eq!(canonical(&off), canonical(&on));
}

#[test]
fn telemetry_snapshot_satisfies_conservation_invariants() {
    let spec = small_spec();
    let path = metrics_path("conservation");
    let run = run_sweep(
        &spec,
        &SweepOptions {
            jobs: 3,
            metrics_out: Some(path.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let snap = final_snapshot(&path);
    // Every executed cell was claimed exactly once.
    let lane = |name: &str| -> Vec<(&str, u64)> {
        snap.iter()
            .filter_map(|(k, &v)| {
                let worker = k.strip_prefix(name)?.strip_prefix("{worker=")?;
                Some((worker.strip_suffix('}')?, v))
            })
            .collect()
    };
    let claims: u64 = lane("pool_claims").iter().map(|&(_, v)| v).sum();
    let done = snap["cells_done_total"];
    assert_eq!(claims, done, "claims {claims}");
    assert_eq!(done, run.rows.len() as u64);
    assert_eq!(snap.get("cells_total"), Some(&done));
    // Per worker, time inside cell pipelines never exceeds the
    // worker's lifetime (idle is defined as the complement).
    let busy = lane("pool_busy_ns");
    let wall = lane("pool_wall_ns");
    assert_eq!(busy.len(), 3);
    for ((w, b), (w2, wl)) in busy.iter().zip(&wall) {
        assert_eq!(w, w2);
        assert!(b <= wl, "worker {w}: busy {b} ns > wall {wl} ns");
    }
    // The cache was off, so every lookup is a miss and the hit
    // histogram stays empty.
    assert_eq!(snap.get("cache_hits_total"), Some(&0));
    assert_eq!(snap.get("cache_misses_total"), Some(&done));
}

#[test]
fn metrics_out_emits_parseable_snapshot_lines() {
    let scratch = std::env::temp_dir().join(format!("pc-sweep-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let path = scratch.join("metrics.jsonl");
    let spec = small_spec();
    run_sweep(
        &spec,
        &SweepOptions {
            jobs: 2,
            metrics_out: Some(path.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "at least the final snapshot is written");
    for line in &lines {
        assert!(line.starts_with("{\"telemetry\":true,"), "{line}");
        assert!(line.ends_with("}}"), "torn line: {line}");
        assert!(line.contains("\"cells_done_total\":"), "{line}");
    }
    // The final snapshot reflects the completed run.
    assert!(
        lines.last().unwrap().contains("\"cells_done_total\":6"),
        "{}",
        lines.last().unwrap()
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn jsonl_rows_round_trip_through_the_codec() {
    let spec = SweepSpec {
        benches: vec!["matrix".into()],
        modes: vec![MachineMode::Coupled],
        ..SweepSpec::table2()
    };
    let run = run_sweep(
        &spec,
        &SweepOptions {
            jobs: 4,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_eq!(run.jobs, 1, "one pending cell starts one worker");
    let row = &run.rows[0];
    let parsed = SweepRow::from_jsonl(&row.to_jsonl()).unwrap();
    assert_eq!(parsed.stats, row.stats);
    assert_eq!(parsed.peak_registers, row.peak_registers);
    assert_eq!(parsed.cell.id(), row.cell.id());
    assert_eq!(parsed.wall_ns, row.wall_ns);
    assert!(SweepRow::from_jsonl("{\"schema\":1}").is_err());
    assert!(SweepRow::from_jsonl("torn{").is_err());
}

#[test]
fn streamed_jsonl_is_in_cell_order_even_when_parallel() {
    let scratch = std::env::temp_dir().join(format!("pc-sweep-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let out = scratch.join("rows.jsonl");
    let spec = small_spec();
    run_sweep(
        &spec,
        &SweepOptions {
            jobs: 4,
            out: Some(out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let text = std::fs::read_to_string(&out).unwrap();
    let got: Vec<String> = text
        .lines()
        .map(|l| SweepRow::from_jsonl(l).unwrap().cell.id())
        .collect();
    let want: Vec<String> = spec.cells().unwrap().iter().map(|c| c.id()).collect();
    assert_eq!(got, want, "reorder buffer must flush in cell order");
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Distinct (benchmark, mode, mix) triples among a sweep's rows. Every
/// other grid axis is a run-time setting, so this counts the sweep's
/// compile keys.
fn keys(summary: &SweepSummary) -> usize {
    summary
        .rows
        .iter()
        .map(|r| (r.cell.bench.clone(), r.cell.mode.label(), r.cell.mix.key()))
        .collect::<BTreeSet<_>>()
        .len()
}

#[test]
fn a_shard_compiles_only_the_keys_of_its_own_cells() {
    // Six cells, one key each: each shard holds three of them.
    for k in 1..=2 {
        let shard = run_sweep(
            &small_spec(),
            &SweepOptions {
                shard: Some((k, 2)),
                jobs: 2,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(shard.rows.len(), 3);
        assert_eq!(shard.compiles, 3, "shard {k}/2");
        assert_eq!(shard.compiles, keys(&shard), "shard {k}/2");
    }
}

#[test]
fn shared_images_give_the_same_rows_at_any_jobs_count() {
    // 2 benchmarks × 2 modes × 2 mixes = 8 keys, each shared by the
    // 5 interconnects × 2 memories of its cells. The mixes interleave
    // the keys cell by cell, so the workers claim cells in cell order.
    let spec = SweepSpec {
        benches: vec!["matrix".into(), "fft".into()],
        modes: vec![MachineMode::Seq, MachineMode::Coupled],
        interconnects: InterconnectScheme::all().to_vec(),
        memories: vec![MemKind::Min, MemKind::Mem1],
        mixes: vec![Mix::Baseline, Mix::Units { iu: 2, fpu: 3 }],
        seed: 0,
    };
    check_shared_images(&spec, 80, 8);
    // One mix: 4 keys of 10 contiguous cells, so on 4 workers every
    // key's first cell is claimed before key 0's second.
    let contiguous = SweepSpec {
        mixes: vec![Mix::Baseline],
        ..spec
    };
    check_shared_images(&contiguous, 40, 4);
}

/// Runs `spec` serially and on 4 workers, and checks both compile each
/// of its `keys` once and give rows equal to a per-cell compile.
fn check_shared_images(spec: &SweepSpec, cells: usize, key_count: usize) {
    let run = |jobs| {
        run_sweep(
            spec,
            &SweepOptions {
                jobs,
                ..SweepOptions::default()
            },
        )
        .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.rows.len(), cells);
    assert_eq!(keys(&serial), key_count);
    assert_eq!(serial.compiles, key_count);
    assert_eq!(parallel.compiles, key_count);
    assert_eq!(canonical(&serial), canonical(&parallel));
    // A shared image runs exactly as a per-cell compile would.
    let suite = coupling::benchmarks::all();
    for row in serial.rows.iter().step_by(7) {
        let bench = suite
            .iter()
            .find(|b| b.name.to_lowercase() == row.cell.bench)
            .unwrap();
        let own = run_benchmark(bench, row.cell.mode, row.cell.config()).unwrap();
        assert_eq!(own.stats, row.stats, "{}", row.cell);
        assert_eq!(own.peak_registers, row.peak_registers, "{}", row.cell);
    }
}
