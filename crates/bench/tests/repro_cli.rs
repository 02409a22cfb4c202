//! The `repro` command line: unknown experiment names and flags are
//! rejected before anything runs, and a valid invocation prints its
//! records.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_names_and_flags_exit_nonzero_with_usage() {
    for args in [
        &["nosuch"][..],
        &["bench"],
        &["--quick", "--bogus", "table1"],
        &["--check-schema", "baseline.json"],
        &["table1", "stragglerz"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} must fail");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("unknown argument"), "repro {args:?}: {err}");
        assert!(
            err.contains("table1|fig2|") && err.contains("|stragglers|all"),
            "repro {args:?} must list the valid names: {err}"
        );
    }
}

#[test]
fn quick_json_table1_prints_its_record() {
    let out = repro(&["--quick", "--json", "table1"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "one record, no header: {stdout}");
    assert!(lines[0].starts_with("{\"experiment\":\"table1\""));
}
