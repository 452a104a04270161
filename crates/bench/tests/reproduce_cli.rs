//! `reproduce` refuses a name it does not know before it runs anything: a
//! misspelt table, dataset or option exits 2 with the usage line.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce starts")
}

#[test]
fn unknown_names_are_refused() {
    for (args, names) in [
        (&["tabel2"][..], "unknown table tabel2"),
        // Refused even beside a good name: nothing runs.
        (&["table1", "figure4"], "unknown table figure4"),
        (
            &["table1", "--datasets", "mesh,trains"],
            "unknown dataset trains",
        ),
        (&["table1", "--scael", "0.1"], "unknown option --scael"),
    ] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        assert!(!stderr.contains("running sweep"), "{args:?} started work");
    }
}

#[test]
fn a_known_table_runs() {
    let out = reproduce(&["table1", "--datasets", "pyrimidines", "--quiet"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1."), "{stdout}");
    assert!(stdout.contains("| pyrimidines"), "{stdout}");
}
