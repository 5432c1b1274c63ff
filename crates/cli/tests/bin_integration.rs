//! End-to-end tests of the `namd-rs` binary itself (spawned as a process).

use std::process::Command;

fn namd_rs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_namd-rs"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = namd_rs().output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn sample_config_round_trips_through_run() {
    let sample = namd_rs().arg("sample-config").output().unwrap();
    assert!(sample.status.success());
    let dir = std::env::temp_dir().join("namd_rs_bin_test");
    std::fs::create_dir_all(&dir).unwrap();
    let conf = dir.join("roundtrip.conf");
    // Shrink the sample so the test is quick, and drop the trajectory.
    let mut text = String::from_utf8(sample.stdout).unwrap();
    text = text
        .replace("atoms         1500", "atoms         300")
        .replace("boxSize       26.0", "boxSize       20.0")
        .replace("steps         100", "steps         5")
        .replace("outputName    demo", "#outputName demo");
    std::fs::write(&conf, text).unwrap();

    let out = namd_rs().arg("run").arg(&conf).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("namd-rs: 300 atoms"), "{stdout}");
    assert!(stdout.contains("done:"), "{stdout}");
}

#[test]
fn info_reports_decomposition() {
    let dir = std::env::temp_dir().join("namd_rs_bin_test");
    std::fs::create_dir_all(&dir).unwrap();
    let conf = dir.join("info.conf");
    std::fs::write(&conf, "system br\nscale 0.2\n").unwrap();
    let out = namd_rs().arg("info").arg(&conf).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("patches"), "{stdout}");
    assert!(stdout.contains("compute objects"), "{stdout}");
}

#[test]
fn config_errors_name_the_line() {
    let dir = std::env::temp_dir().join("namd_rs_bin_test");
    std::fs::create_dir_all(&dir).unwrap();
    let conf = dir.join("bad.conf");
    std::fs::write(&conf, "system water\nbogusKey 12\n").unwrap();
    let out = namd_rs().arg("run").arg(&conf).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("bogusKey") || err.contains("boguskey"), "{err}");
}

#[test]
fn bench_prints_a_speedup_table() {
    let out = namd_rs()
        .args(["bench", "br", "--scale", "0.2", "--pes", "1,4", "--steps", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("speedup"), "{stdout}");
    // Two data rows.
    assert!(stdout.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count() >= 2);
}

#[test]
fn bench_reports_a_killed_pe_as_an_error_line() {
    let out = namd_rs()
        .args(["bench", "bc1", "--pes", "4", "--steps", "3", "--scale", "0.2"])
        .args(["--fault-plan", "kill:entry=PatchRecvForces:dst=1:skip=0"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(!err.contains("panicked"), "{err}");
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 1, "{err}");
    assert!(lines[0].starts_with("error: ") && lines[0].contains("PE 1 was killed"), "{err}");
}

#[test]
fn retired_bench_suites_get_the_usage_text() {
    // The name is resolved before the options: an unknown system must not
    // surface as "unknown option" for the first flag that follows it.
    for suite in ["scaling", "serve", "analyze"] {
        let out = namd_rs().args(["bench", suite, "--check"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "bench {suite}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: namd-rs bench"), "{err}");
        assert!(err.contains("benchmark/run.sh"), "{err}");
    }
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = namd_rs().args(["run", "/nonexistent/path.conf"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("config error"));
}
