//! `pcsim` rejects bad input with a `pcsim: <message>` line (or the
//! usage text) on stderr and exit status 2, and its rendered output is
//! pinned where no other test covers it.

use std::process::Command;

/// Runs `pcsim <args>` and expects exit status 2, no stdout, and
/// exactly `pcsim: <message>` on stderr.
fn assert_rejects(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcsim"))
        .args(args)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("pcsim: {message}\n"),
        "{args:?}"
    );
}

/// [`assert_rejects`] for `pcsim tables <args>`.
fn assert_tables_rejects(args: &[&str], message: &str) {
    assert_rejects(&[&["tables"], args].concat(), message);
}

#[test]
fn tables_rejects_an_unknown_name() {
    assert_tables_rejects(&["nonesuch"], "unknown table \"nonesuch\"");
}

#[test]
fn tables_rejects_bad_flags_and_a_second_name() {
    assert_tables_rejects(&["--jobs"], "--jobs needs a value");
    assert_tables_rejects(&["fig6", "--jobs"], "--jobs needs a value");
    assert_tables_rejects(&["--jobs", "two"], "--jobs value \"two\" is not a number");
    assert_tables_rejects(&["--bogus", "7"], "unknown flag \"--bogus\" for tables");
    assert_tables_rejects(
        &["table2", "--bogus"],
        "unknown flag \"--bogus\" for tables",
    );
    let second = "one table at a time: got \"fig6\" and \"fig7\"";
    assert_tables_rejects(&["fig6", "fig7"], second);
}

#[test]
fn tables_accepts_the_name_after_the_jobs_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_pcsim"))
        .args(["tables", "--jobs", "1", "table3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("== Table 3 "), "{stdout}");
    assert_eq!(stdout.matches("== ").count(), 1, "{stdout}");
}

#[test]
fn run_rejects_an_unknown_flag_and_a_missing_value() {
    assert_rejects(
        &["run", "matrix", "--memroy", "mem2"],
        "unknown flag \"--memroy\" for run",
    );
    assert_rejects(&["run", "matrix", "--mode"], "--mode needs a value");
    assert_rejects(&["run", "matrix", "--seed"], "--seed needs a value");
    assert_rejects(
        &["run", "matrix", "coupled"],
        "unexpected argument \"coupled\" for run",
    );
}

#[test]
fn compile_rejects_an_unknown_flag() {
    assert_rejects(
        &["compile", "programs/fib.pc", "--bogus"],
        "unknown flag \"--bogus\" for compile",
    );
}

#[test]
fn explain_rejects_an_unknown_flag() {
    assert_rejects(
        &["explain", "matrix", "--mode", "coupled"],
        "unknown flag \"--mode\" for explain",
    );
}

#[test]
fn exec_rejects_an_unknown_flag_and_a_missing_value() {
    assert_rejects(
        &["exec", "programs/fib.pc", "--trace"],
        "--trace needs a value",
    );
    assert_rejects(
        &["exec", "programs/fib.pc", "--bogus"],
        "unknown flag \"--bogus\" for exec",
    );
}

#[test]
fn metrics_rejects_an_unknown_flag_and_a_missing_value() {
    assert_rejects(
        &["metrics", "matrix", "--jsn"],
        "unknown flag \"--jsn\" for metrics",
    );
    assert_rejects(
        &["metrics", "matrix", "--check-overhead"],
        "--check-overhead needs a value",
    );
}

#[test]
fn profile_rejects_an_unknown_flag_and_a_third_argument() {
    assert_rejects(
        &["profile", "matrix", "coupled", "--chrom", "/tmp/x.json"],
        "unknown flag \"--chrom\" for profile",
    );
    assert_rejects(
        &["profile", "matrix", "coupled", "extra"],
        "unexpected argument \"extra\" for profile",
    );
}

#[test]
fn sweep_rejects_an_unknown_flag_and_a_missing_value() {
    let sweep = [
        "sweep",
        "--benches",
        "matrix",
        "--modes",
        "seq",
        "--no-cache",
    ];
    assert_rejects(
        &[&sweep[..], &["--help"]].concat(),
        "unknown flag \"--help\" for sweep",
    );
    assert_rejects(&[&sweep[..], &["--jobs"]].concat(), "--jobs needs a value");
    assert_rejects(
        &[&sweep[..], &["--telemetry"]].concat(),
        "unknown flag \"--telemetry\" for sweep",
    );
}

#[test]
fn a_malformed_number_is_rejected_with_its_flag() {
    let sweep = |flag, value| {
        let base = [
            "sweep",
            "--benches",
            "matrix",
            "--modes",
            "seq",
            "--no-cache",
        ];
        [&base[..], &[flag, value]].concat()
    };
    let cases: [(Vec<&str>, &str, &str); 8] = [
        (vec!["run", "matrix", "--seed", "x"], "--seed", "x"),
        (sweep("--seed", "x"), "--seed", "x"),
        (sweep("--jobs", "x"), "--jobs", "x"),
        (sweep("--shard", "1/x"), "--shard", "x"),
        (sweep("--shard", "y/2"), "--shard", "y"),
        (
            vec!["metrics", "matrix", "--check-overhead", "x"],
            "--check-overhead",
            "x",
        ),
        (
            vec!["metrics", "matrix", "--check-overhead", "5", "--iters", "x"],
            "--iters",
            "x",
        ),
        (
            vec!["exec", "programs/fib.pc", "--trace", "x"],
            "--trace",
            "x",
        ),
    ];
    for (args, flag, bad) in cases {
        assert_rejects(&args, &format!("{flag} value \"{bad}\" is not a number"));
    }
}

#[test]
fn run_rejects_an_unknown_engine() {
    let out = Command::new(env!("CARGO_BIN_EXE_pcsim"))
        .args(["run", "matrix", "--engine", "event"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
}

/// The rendered issue trace of `pcsim exec --trace` is pinned byte for
/// byte: the header, the final globals and the 40-cycle interleaving grid.
#[test]
fn exec_trace_matches_the_golden() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new(env!("CARGO_BIN_EXE_pcsim"))
        .args(["exec", "programs/fib.pc", "--trace", "40"])
        .current_dir(root)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("golden/exec_fib_trace.txt")
    );
}
