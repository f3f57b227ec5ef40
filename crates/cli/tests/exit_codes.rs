//! The exit-code contract: 0 = success, 1 = runtime failure (including
//! would-be panics), 2 = usage error — with stdout flushed before every
//! exit so piped output is never truncated.

use std::process::Command;

fn gpu_fpx(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-fpx"))
        .args(args)
        .output()
        .expect("spawn gpu-fpx")
}

#[test]
fn no_args_prints_help_and_exits_zero() {
    let out = gpu_fpx(&[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE:"), "{stdout}");
    assert!(stdout.contains("serve start"), "help covers serve");
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["frobnicate"][..],
        &["detect"][..],
        &["suite", "bogus"][..],
        &["detect", "k.sass", "--grid", "0"][..],
        &["serve", "submit", "127.0.0.1:1"][..], // missing --programs
    ] {
        let out = gpu_fpx(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn runtime_failures_exit_one() {
    let out = gpu_fpx(&["suite", "run", "not-a-program"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown program \"not-a-program\""),
        "{stderr}"
    );

    // A garbage trace file is a runtime failure, not a panic/abort.
    let dir = std::env::temp_dir();
    let bad = dir.join(format!("fpx-exit-codes-{}.fpxtrace", std::process::id()));
    std::fs::write(&bad, b"not a trace").unwrap();
    let out = gpu_fpx(&["trace", "replay", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&bad).ok();

    // Unreachable server: runtime failure for every serve client command.
    for args in [
        &["serve", "metrics", "127.0.0.1:1"][..],
        &["serve", "stop", "127.0.0.1:1"][..],
        &["serve", "submit", "127.0.0.1:1", "--programs", "LU"][..],
    ] {
        let out = gpu_fpx(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
    }
}

#[test]
fn success_paths_exit_zero_with_complete_stdout() {
    let out = gpu_fpx(&["suite", "list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The last line survives the exit — stdout was flushed, not dropped.
    assert!(
        stdout
            .trim_end()
            .ends_with("(* = exception-bearing per the paper's Table 4)"),
        "{stdout}"
    );

    let out = gpu_fpx(&["suite", "run", "LU"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("row: [0, 0, 0, 0, 3, 0, 0, 1]"), "{stdout}");
}

#[test]
fn only_the_suite_runner_warns_about_cut_off_runs() {
    // A suite run over its hang budget is cut off with one warning.
    let out = gpu_fpx(&["suite", "run", "S3D", "--tool", "binfpe"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.matches("cutting off").count(),
        1,
        "one cut-off warning: {stderr}"
    );
    assert!(
        stderr.contains("S3D: run hung (exceeded 2293760000 cycle budget); cutting off"),
        "{stderr}"
    );

    // Fault injection cuts hung trials off by design and scores them in
    // its own output, so it prints no cut-off warnings.
    let out = gpu_fpx(&[
        "inject", "campaign", "--preset", "smoke", "--seed", "7", "--trials", "2",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("cutting off"), "{stderr}");
}
