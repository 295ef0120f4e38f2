//! `pcsim` rejects bad input with a `pcsim: <message>` line on stderr
//! and exit status 2.

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
