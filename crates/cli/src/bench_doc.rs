//! The bench document: one shape for every `clognet bench` mode and
//! `clognet cluster-bench`, one JSON writer, and one emit path.
//!
//! A document is `{harness, host{nproc}, budget{warm, cycles}, legs[],
//! checks{}}`. Each leg is a batch of jobs timed one or more times:
//! `{label, jobs, threads, wall{min, mean, stddev, reps},
//! sim_cycles_per_s, skipped_cycles, report_digest, metrics{}}`. Legs
//! that run the same jobs two ways are paired, and
//! `checks.identical_reports` holds when every pair's report digests
//! match.

use crate::args::{Args, ParseArgsError};

/// Min / mean / population standard deviation of a rep sample.
fn rep_stats(samples: &[f64]) -> (f64, f64, f64) {
    let n = samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (min, mean, var.sqrt())
}

/// `a / b`, or 0 when `b` is not positive.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// 64-bit FNV-1a over `docs` concatenated in order: for one report, the
/// digest `perfbench/golden.txt` records.
pub(crate) fn report_digest<S: AsRef<str>>(docs: &[S]) -> u64 {
    let bytes = docs.iter().flat_map(|d| d.as_ref().bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A JSON object of `"key":value` fields, each value already rendered.
fn json_object<V: std::fmt::Display>(fields: &[(&str, V)]) -> String {
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// One leg of a bench document: a batch of jobs, timed `walls.len()`
/// times.
#[derive(Debug, Clone)]
pub(crate) struct Leg {
    /// What the leg runs; unique within its document.
    pub(crate) label: String,
    /// Jobs in the batch.
    pub(crate) jobs: usize,
    /// Worker threads (client threads for the cluster legs).
    pub(crate) threads: usize,
    /// Wall-clock seconds of each repetition.
    pub(crate) walls: Vec<f64>,
    /// Cycles one repetition simulates, summed over its jobs.
    pub(crate) sim_cycles: u64,
    /// Measured cycles fast-forward skipped: `None` (JSON `null`) unless
    /// the leg owns its systems.
    pub(crate) skipped_cycles: Option<u64>,
    /// [`report_digest`] of the jobs' report JSON, in job order.
    pub(crate) report_digest: u64,
    /// Harness-specific numbers, each rendered as a JSON value.
    pub(crate) metrics: Vec<(&'static str, String)>,
}

impl Leg {
    /// A leg over the report documents its jobs produced, in job order.
    pub(crate) fn new<S: AsRef<str>>(
        label: impl Into<String>,
        threads: usize,
        walls: Vec<f64>,
        sim_cycles: u64,
        reports: &[S],
    ) -> Leg {
        Leg {
            label: label.into(),
            jobs: reports.len(),
            threads,
            walls,
            sim_cycles,
            skipped_cycles: None,
            report_digest: report_digest(reports),
            metrics: Vec::new(),
        }
    }

    /// Add a metric; `value` must render as a JSON value.
    pub(crate) fn metric(mut self, name: &'static str, value: impl std::fmt::Display) -> Leg {
        self.metrics.push((name, value.to_string()));
        self
    }

    /// Add each of `metrics`, already rendered as JSON values.
    pub(crate) fn tagged(mut self, metrics: &[(&'static str, String)]) -> Leg {
        self.metrics.extend_from_slice(metrics);
        self
    }

    /// Wall-clock seconds of the fastest repetition.
    pub(crate) fn wall_min(&self) -> f64 {
        rep_stats(&self.walls).0
    }

    /// How many times faster than `slower` this leg's fastest rep ran.
    pub(crate) fn speedup_over(&self, slower: &Leg) -> f64 {
        ratio(slower.wall_min(), self.wall_min())
    }

    fn to_json(&self) -> String {
        let (min, mean, stddev) = rep_stats(&self.walls);
        let skipped = self.skipped_cycles.map_or("null".into(), |n| n.to_string());
        format!(
            "{{\"label\":\"{}\",\"jobs\":{},\"threads\":{},\
             \"wall\":{{\"min\":{min:.6},\"mean\":{mean:.6},\"stddev\":{stddev:.6},\"reps\":{}}},\
             \"sim_cycles_per_s\":{:.1},\"skipped_cycles\":{skipped},\
             \"report_digest\":\"{:016x}\",\"metrics\":{}}}",
            self.label,
            self.jobs,
            self.threads,
            self.walls.len(),
            ratio(self.sim_cycles as f64, min),
            self.report_digest,
            json_object(&self.metrics)
        )
    }
}

/// One bench document (`BENCH_*.json`): every `clognet bench` mode and
/// `clognet cluster-bench` emit this shape.
#[derive(Debug, Clone, Default)]
pub struct BenchDoc {
    /// The command that produced it, e.g. `clognet bench --fabric`.
    pub(crate) harness: &'static str,
    /// Warmup cycles per job.
    pub(crate) warm: u64,
    /// Measured cycles per job.
    pub(crate) cycles: u64,
    /// The legs, in run order.
    pub(crate) legs: Vec<Leg>,
    /// Index pairs of legs that must produce the same report bytes.
    pub(crate) pairs: Vec<(usize, usize)>,
    /// Harness verdicts beside `identical_reports`.
    pub(crate) checks: Vec<(&'static str, bool)>,
    /// What the harness measures: the first line of the stderr summary.
    pub(crate) title: String,
}

impl BenchDoc {
    /// An empty document for `harness`, titled `title`, at one budget.
    pub(crate) fn new(harness: &'static str, title: String, warm: u64, cycles: u64) -> BenchDoc {
        let doc = BenchDoc::default();
        BenchDoc {
            harness,
            title,
            warm,
            cycles,
            ..doc
        }
    }

    /// Add two legs that run the same jobs two ways.
    pub(crate) fn push_pair(&mut self, a: Leg, b: Leg) {
        self.pairs.push((self.legs.len(), self.legs.len() + 1));
        self.legs.extend([a, b]);
    }

    /// Whether every pair of legs produced the same report bytes (equal
    /// [`report_digest`]s): the one rule behind every harness's
    /// `identical_reports`.
    pub(crate) fn identical_reports(&self) -> bool {
        let same =
            |&(a, b): &(usize, usize)| self.legs[a].report_digest == self.legs[b].report_digest;
        self.pairs.iter().all(same)
    }

    /// The document: `harness`, `host`, `budget`, `legs` and `checks`.
    pub(crate) fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let legs: Vec<String> = self.legs.iter().map(Leg::to_json).collect();
        format!(
            "{{\"harness\":\"{}\",\"host\":{{\"nproc\":{nproc}}},\
             \"budget\":{{\"warm\":{},\"cycles\":{}}},\"legs\":[{}],\"checks\":{}}}",
            self.harness,
            self.warm,
            self.cycles,
            legs.join(","),
            self.checks_json()
        )
    }

    /// Print the document to stdout (unless only `--out` is given) and
    /// to `--out`; unless `--json`, summarize it on stderr: the title and
    /// budget, each leg's time and flat metrics, and the checks.
    ///
    /// # Errors
    ///
    /// The `--out` file cannot be written.
    pub fn emit(&self, args: &Args) -> Result<(), ParseArgsError> {
        let doc = self.to_json();
        if args.flag("json") || args.get("out").is_none() {
            println!("{doc}");
        }
        if let Some(path) = args.get("out") {
            std::fs::write(path, format!("{doc}\n"))
                .map_err(|e| ParseArgsError(format!("writing {path}: {e}")))?;
            eprintln!("wrote `{}` report to {path}", self.harness);
        }
        if args.flag("json") {
            return Ok(());
        }
        eprintln!(
            "{} ({} warm + {} measured cycles):",
            self.title, self.warm, self.cycles
        );
        for leg in &self.legs {
            let flat = leg.metrics.iter().filter(|(_, v)| !v.starts_with('{'));
            let metrics: String = flat.map(|(k, v)| format!(", {k} {v}")).collect();
            let (label, jobs, wall) = (&leg.label, leg.jobs, leg.wall_min());
            eprintln!("  {label}: {jobs} jobs in {wall:.3}s{metrics}");
        }
        eprintln!("  checks: {}", self.checks_json());
        Ok(())
    }

    fn checks_json(&self) -> String {
        let identical = [("identical_reports", self.identical_reports())];
        json_object(&[&identical[..], &self.checks].concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_stats_min_mean_stddev() {
        let (min, mean, stddev) = rep_stats(&[2.0, 4.0, 6.0]);
        assert_eq!(min, 2.0);
        assert_eq!(mean, 4.0);
        assert!((stddev - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let (min, mean, stddev) = rep_stats(&[1.5]);
        assert_eq!((min, mean, stddev), (1.5, 1.5, 0.0));
    }

    #[test]
    fn report_digest_is_fnv1a_over_the_concatenated_reports() {
        // The FNV-1a 64 test vectors, whole or split across reports.
        assert_eq!(report_digest::<&str>(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(report_digest(&["a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(report_digest(&["foobar"]), 0x8594_4171_f739_67e8);
        assert_eq!(report_digest(&["foo", "bar"]), report_digest(&["foobar"]));
    }

    #[test]
    fn leg_stats_and_speedup() {
        let slow = Leg::new("slow", 1, vec![4.0, 6.0, 2.0], 1_000, &["x"]);
        let fast = Leg::new("fast", 4, vec![1.0], 1_000, &["x"]).metric("speedup", "2.000");
        assert_eq!((slow.wall_min(), fast.speedup_over(&slow)), (2.0, 2.0));
        let j = slow.to_json();
        let want = "\"wall\":{\"min\":2.000000,\"mean\":4.000000,\"stddev\":1.632993,\"reps\":3},\
                    \"sim_cycles_per_s\":500.0,\"skipped_cycles\":null,";
        assert!(j.contains(want) && j.ends_with("\"metrics\":{}}"), "{j}");
        assert!(fast.to_json().ends_with("\"metrics\":{\"speedup\":2.000}}"));
    }
}
