//! `pcsim` rejects bad input with a `pcsim: <message>` line (or the
//! usage text) on stderr and exit status 2, and its rendered output is
//! pinned where no other test covers it.

use std::process::Command;

#[test]
fn tables_rejects_an_unknown_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_pcsim"))
        .args(["tables", "nonesuch"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "pcsim: unknown table \"nonesuch\"\n"
    );
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
