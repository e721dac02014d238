//! Bad benchmark names, removed options and unbuildable jobs (a traffic
//! class left without a usable VC among them) are usage errors: the
//! `clognet` binary exits 2 with an `error:` line instead of panicking
//! inside system construction, and `fingerprint` refuses exactly what
//! `run` refuses.

use std::process::Command;

/// Run the binary on a whitespace-separated command line.
fn clognet(line: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_clognet"))
        .args(line.split_whitespace())
        .output()
        .expect("run the clognet binary")
}

#[test]
fn unknown_benchmarks_exit_2_with_an_error_line() {
    for (line, want) in [
        (
            "run --gpu NOPE --cycles 10",
            "error: unknown GPU benchmark `NOPE`",
        ),
        (
            "run --cpu nope --cycles 10",
            "error: unknown CPU benchmark `nope`",
        ),
        (
            "compare --gpu NOPE --cycles 10",
            "error: unknown GPU benchmark `NOPE`",
        ),
        (
            "compare --cpu nope --json",
            "error: unknown CPU benchmark `nope`",
        ),
        ("run --shards 2", "error: unknown option --shards"),
        // A traffic class with no VC it may use stalls the chip from the
        // first cycle: dragonfly routes hops inside the destination
        // group on VC 1 and up.
        (
            "run --gpu BT --cpu ferret --warm 800 --cycles 3000 --topology dragonfly --vnets 1+3",
            "error: --vnets 1+3: every traffic class needs at least 2 VC(s)",
        ),
        (
            "run --vnets 0+4",
            "error: --vnets 0+4: every traffic class needs at least 1 VC(s)",
        ),
        (
            "run --vnets 4+0",
            "error: --vnets 4+0: every traffic class needs at least 1 VC(s)",
        ),
        (
            "fingerprint --gpu BT --cpu ferret --topology dragonfly --vnets 3+1",
            "error: --vnets 3+1: every traffic class needs at least 2 VC(s)",
        ),
    ] {
        let out = clognet(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.starts_with(want), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} printed before failing");
    }
}

#[test]
fn fingerprint_refuses_jobs_run_refuses_with_the_same_message() {
    for (job, want) in [
        (
            "--gpu NOPE --cpu nope",
            "error: unknown GPU benchmark `NOPE`",
        ),
        ("--chips 0", "error: --chips/--fabric: "),
        ("--topology dragonfly --vnets 3+1", "error: --vnets 3+1: "),
    ] {
        let run = clognet(&format!("run --cycles 10 {job}"));
        let fp = clognet(&format!("fingerprint {job}"));
        let (run_err, fp_err) = (
            String::from_utf8_lossy(&run.stderr),
            String::from_utf8_lossy(&fp.stderr),
        );
        assert_eq!(run.status.code(), Some(2), "run {job}: {run_err}");
        assert_eq!(fp.status.code(), Some(2), "fingerprint {job}: {fp_err}");
        assert!(fp_err.starts_with(want), "fingerprint {job}: {fp_err}");
        assert_eq!(fp_err, run_err, "fingerprint and run disagree on {job}");
        assert!(
            fp.stdout.is_empty(),
            "fingerprint {job} printed a fingerprint"
        );
    }
}
