//! Bad benchmark names, removed options and unbuildable jobs are usage
//! errors: the `clognet` binary exits 2 with an `error:` line instead
//! of panicking inside system construction, and `fingerprint` refuses
//! exactly what `run` refuses.

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
        (
            &["run", "--shards", "2"][..],
            "error: unknown option --shards",
        ),
    ] {
        let out = clognet(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
}

#[test]
fn fingerprint_refuses_jobs_run_refuses_with_the_same_message() {
    for (job, want) in [
        (
            &["--gpu", "NOPE", "--cpu", "nope"][..],
            "error: unknown GPU benchmark `NOPE`",
        ),
        (&["--chips", "0"][..], "error: --chips/--fabric: "),
    ] {
        let run = clognet(&[&["run", "--cycles", "10"][..], job].concat());
        let fp = clognet(&[&["fingerprint"][..], job].concat());
        let (run_err, fp_err) = (
            String::from_utf8_lossy(&run.stderr),
            String::from_utf8_lossy(&fp.stderr),
        );
        assert_eq!(run.status.code(), Some(2), "run {job:?}: {run_err}");
        assert_eq!(fp.status.code(), Some(2), "fingerprint {job:?}: {fp_err}");
        assert!(fp_err.starts_with(want), "fingerprint {job:?}: {fp_err}");
        assert_eq!(fp_err, run_err, "fingerprint and run disagree on {job:?}");
        assert!(
            fp.stdout.is_empty(),
            "fingerprint {job:?} printed a fingerprint"
        );
    }
}
