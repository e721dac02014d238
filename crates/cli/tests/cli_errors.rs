//! Bad benchmark names and figure ids, removed options, numbers below
//! their floor and unbuildable jobs (a traffic class left without a
//! usable VC, a grid the layout cannot place, a sweep point or
//! retargeted snapshot that fails `SystemConfig::validate`) are usage
//! errors: the `clognet` binary exits 2 with an `error:` line, before
//! printing anything, instead of panicking inside system construction,
//! and `fingerprint` refuses exactly what `run` refuses.

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
    let snap = std::env::temp_dir().join(format!("cli_errors_{}.snap", std::process::id()));
    let snap = snap.to_str().expect("utf-8 temp path");
    let made = clognet(&format!("snapshot --warm 100 --out {snap}"));
    assert!(made.status.success(), "{made:?}");
    let resume = |set: &str| format!("resume --from {snap} --cycles 10 --set {set}");
    let (injbuf_0, width_32) = (resume("injbuf=0"), resume("width=32"));
    let rows = [
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
        // Every sweep point is validated before the header prints.
        (
            "sweep --param width --values 16,0 --cycles 10",
            "error: width=0: --width must be at least 1",
        ),
        (
            "sweep --param l1kb --values 0 --cycles 10",
            "error: l1kb=0: GPU L1",
        ),
        (
            "sweep --param llcmb --values 0 --cycles 10",
            "error: llcmb=0: LLC slice",
        ),
        (
            "sweep --param llcmb --values 1 --mesh 10x7 --cycles 10",
            "error: llcmb=1: LLC slice of 149796 bytes",
        ),
        (
            "sweep --param injbuf --values 0 --cycles 10",
            "error: injbuf=0: --injbuf must be at least 1",
        ),
        (
            "sweep --param width --values 5000000000 --cycles 10",
            "error: width=5000000000: value out of range",
        ),
        (&injbuf_0, "error: --injbuf must be at least 1"),
        (&width_32, "error: --set: `width` is structural"),
        // Numbers below their floor are refused, not clamped.
        (
            "cluster-bench --quick --nodes 1",
            "error: --nodes must be at least 2",
        ),
        (
            "cluster-bench --quick --jobs 0",
            "error: --jobs must be at least 1",
        ),
        (
            "fingerprint --peers 127.0.0.1:1 --vnodes 0",
            "error: --vnodes must be at least 1",
        ),
        // `paper` takes figure ids, not job options.
        (
            "paper --figures fig99",
            "error: unknown figure `fig99`; valid ids: tab1, tab2, fig02, fig05, fig06, fig07, \
             fig09, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18, fig19, \
             nodemix, energy, ablation",
        ),
        ("paper --mesh 4x4", "error: unknown option --mesh"),
    ];
    for (line, want) in rows {
        let out = clognet(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.starts_with(want), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} printed before failing");
    }
    std::fs::remove_file(snap).ok();
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
        ("--width 0", "error: --width must be at least 1"),
        (
            "--mesh 4x1",
            "error: --mesh 4x1: the grid needs at least 2x2 nodes",
        ),
        (
            "--mesh 3x0",
            "error: --mesh 3x0: the grid needs at least 2x2 nodes",
        ),
        (
            "--vnets 33+32",
            "error: --vnets: 65 VCs per port; at most 64",
        ),
        ("--layout b --mesh 5x10", "error: --mesh 5x10: layout b"),
        ("--layout c --mesh 4x4", "error: --mesh 4x4: layout c"),
        (
            "--topology dragonfly --mesh 4x6",
            "error: --mesh 4x6: a dragonfly",
        ),
        ("--mesh 300x300", "error: --mesh 300x300: more nodes than"),
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
