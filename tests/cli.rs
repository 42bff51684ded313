//! The `fediscope` binary's flag handling: a malformed flag is a usage
//! error (exit 2) that names the flag and writes nothing, and a
//! well-formed run writes the same bytes every time.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fediscope(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fediscope"))
        .args(args)
        .output()
        .expect("spawn the fediscope binary")
}

/// An empty directory of this test's own.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fediscope-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn malformed_flags_are_usage_errors() {
    let dir = scratch("malformed");
    let out = dir.join("trace.json");
    let out = out.to_str().expect("utf-8 temp path");
    let cases: [(&str, &[&str]); 5] = [
        ("--scale", &["--scale", "abc", "--out", out]),
        ("--ticks", &["--ticks", "xyz", "--out", out]),
        ("--out", &["--scale", "0.02", "--ticks", "1", "--out"]),
        ("--scale", &["--scale", "-1", "--out", out]),
        ("--tick", &["--tick", "5", "--out", out]),
    ];
    for (flag, args) in cases {
        let output = fediscope(&[&["dynamics", "storm"], args].concat());
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?} must be a usage error"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.starts_with("error:") && error.contains(flag),
            "{args:?}: the first stderr line must name {flag}, got {error:?}"
        );
        let written = std::fs::read_dir(&dir).expect("scratch dir").count();
        assert_eq!(written, 0, "{args:?} wrote output");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn well_formed_run_writes_identical_bytes() {
    let dir = scratch("repeat");
    let runs: Vec<Vec<u8>> = (0..2)
        .map(|i| {
            let out = dir.join(format!("trace{i}.json"));
            let args = [
                "dynamics", "storm", "--scale", "0.02", "--ticks", "2", "--out",
            ];
            let output =
                fediscope(&[&args[..], &[out.to_str().expect("utf-8 temp path")]].concat());
            assert_eq!(
                output.status.code(),
                Some(0),
                "{}",
                String::from_utf8_lossy(&output.stderr)
            );
            std::fs::read(&out).expect("the run writes its trace")
        })
        .collect();
    assert!(!runs[0].is_empty());
    assert_eq!(runs[0], runs[1], "same flags must write the same bytes");
    let _ = std::fs::remove_dir_all(&dir);
}
