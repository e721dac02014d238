//! Bad benchmark names are usage errors: the `clognet` binary exits 2
//! with an `error:` line instead of panicking inside system
//! construction.

use std::process::Command;

fn clognet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_clognet"))
        .args(args)
        .output()
        .expect("run the clognet binary")
}

#[test]
fn unknown_benchmarks_exit_2_with_an_error_line() {
    for (args, want) in [
        (
            &["run", "--gpu", "NOPE", "--cycles", "10"][..],
            "error: unknown GPU benchmark `NOPE`",
        ),
        (
            &["run", "--cpu", "nope", "--cycles", "10"][..],
            "error: unknown CPU benchmark `nope`",
        ),
        (
            &["compare", "--gpu", "NOPE", "--cycles", "10"][..],
            "error: unknown GPU benchmark `NOPE`",
        ),
        (
            &["compare", "--cpu", "nope", "--json"][..],
            "error: unknown CPU benchmark `nope`",
        ),
    ] {
        let out = clognet(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
}
