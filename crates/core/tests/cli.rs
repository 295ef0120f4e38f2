//! `pcsim` rejects bad input with a `pcsim: <message>` line (or the
//! usage text) on stderr and exit status 2, and its rendered output is
//! pinned where no other test covers it.

use std::process::Command;

/// Runs `pcsim tables <args>` and expects exit status 2, no stdout,
/// and exactly `pcsim: <message>` on stderr.
fn assert_tables_rejects(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcsim"))
        .arg("tables")
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
