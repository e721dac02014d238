//! The output check: digests of every simulated report, recorded at the
//! commit that defined the benchmark, so a change that alters simulated
//! statistics — on any path, cold, resumed, cached or forwarded — is
//! counted as a failure.

use std::collections::HashMap;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one report (or request line).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// The recorded digests.
#[derive(Debug, Default)]
pub struct Golden {
    /// `(workload, seed, job label)` → report digest.
    sim: HashMap<(String, u64, String), u64>,
    /// Catalog index → (request-line digest, report digest).
    specs: HashMap<usize, (u64, u64)>,
}

/// The table compiled into the benchmark.
pub const GOLDEN_TXT: &str = include_str!("../golden.txt");

impl Golden {
    /// Parse the table format written by `--record-golden`.
    ///
    /// # Panics
    ///
    /// On a malformed line: the table is part of the benchmark's source.
    pub fn parse(text: &str) -> Golden {
        let mut g = Golden::default();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("golden digest is hex");
            match f.as_slice() {
                ["sim", w, seed, label, d] => {
                    let seed = seed.parse().expect("golden seed is a number");
                    g.sim
                        .insert((w.to_string(), seed, label.to_string()), hex(d));
                }
                ["spec", i, line_d, d] => {
                    let i = i.parse().expect("golden catalog index is a number");
                    g.specs.insert(i, (hex(line_d), hex(d)));
                }
                _ => panic!("malformed golden line `{line}`"),
            }
        }
        g
    }

    /// The compiled-in table.
    pub fn load() -> Golden {
        Golden::parse(GOLDEN_TXT)
    }

    /// Whether `seed` has recorded digests for `workload`.
    pub fn covers_seed(&self, workload: &str, seed: u64) -> bool {
        self.sim.keys().any(|(w, s, _)| w == workload && *s == seed)
    }

    /// Check a sim report; `Ok` when no digest is recorded for it.
    ///
    /// # Errors
    ///
    /// The report's digest differs from the recorded one.
    pub fn check_sim(
        &self,
        workload: &str,
        seed: u64,
        label: &str,
        report: &str,
    ) -> Result<(), String> {
        let key = (workload.to_string(), seed, label.to_string());
        match self.sim.get(&key) {
            Some(&want) if want != digest(report.as_bytes()) => Err(format!(
                "{workload} seed {seed} {label}: report digest {:016x} != golden {want:016x}",
                digest(report.as_bytes())
            )),
            _ => Ok(()),
        }
    }

    /// Check a served report for catalog spec `index` whose request
    /// line is `line`.
    ///
    /// # Errors
    ///
    /// No digest recorded, the catalog entry changed, or the report's
    /// digest differs.
    pub fn check_spec(&self, index: usize, line: &str, report: &str) -> Result<(), String> {
        let (line_d, want) = self
            .specs
            .get(&index)
            .ok_or_else(|| format!("catalog spec {index} has no golden digest"))?;
        if *line_d != digest(line.as_bytes()) {
            return Err(format!(
                "catalog spec {index} differs from the recorded one"
            ));
        }
        let got = digest(report.as_bytes());
        if got != *want {
            return Err(format!(
                "catalog spec {index}: report digest {got:016x} != golden {want:016x}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_byte_fails_the_check() {
        let report = "{\"scheme\":\"DR\",\"gpu_ipc\":1.2345}";
        let line = "{\"op\":\"run\"}";
        let table = format!(
            "# t\nsim chip-8x8 1 NN+canneal/DR {:016x}\nspec 3 {:016x} {:016x}\n",
            digest(report.as_bytes()),
            digest(line.as_bytes()),
            digest(report.as_bytes())
        );
        let g = Golden::parse(&table);
        assert!(g.check_sim("chip-8x8", 1, "NN+canneal/DR", report).is_ok());
        assert!(g.check_spec(3, line, report).is_ok());
        let mut bytes = report.as_bytes().to_vec();
        for i in 0..bytes.len() {
            bytes[i] ^= 1;
            let flipped = String::from_utf8_lossy(&bytes).into_owned();
            assert!(g
                .check_sim("chip-8x8", 1, "NN+canneal/DR", &flipped)
                .is_err());
            assert!(g.check_spec(3, line, &flipped).is_err());
            bytes[i] ^= 1;
        }
        assert!(g.check_spec(4, line, report).is_err(), "unrecorded spec");
        assert!(g.covers_seed("chip-8x8", 1) && !g.covers_seed("chip-8x8", 2));
    }

    #[test]
    fn compiled_table_parses_and_covers_the_default_and_held_out_seeds() {
        let g = Golden::load();
        for w in ["chip-8x8", "mesh-16x16"] {
            assert!(g.covers_seed(w, crate::DEFAULT_SEED), "{w}");
            assert!(g.covers_seed(w, crate::HELD_OUT_SEED), "{w}");
        }
        assert_eq!(g.specs.len(), crate::service::catalog().len());
    }
}
