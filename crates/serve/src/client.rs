//! Client side: connect (with deterministic retry), submit, decode.
//!
//! Transient connect failures — the server still binding, a drained
//! listener mid-restart — are retried with capped exponential backoff.
//! The jitter is drawn from a seeded [`clognet_rng::SmallRng`], so a
//! given [`RetryPolicy`] produces the same delay schedule every run:
//! client behavior is as reproducible as the simulations it requests.

use crate::wire::{parse_response, JobSpec, Response, RunResult};
use clognet_rng::{Rng, SeedableRng, SmallRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Connect-retry schedule: capped exponential backoff with
/// deterministic jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connect attempts before giving up (minimum 1).
    pub attempts: u32,
    /// Base delay before the second attempt, in milliseconds.
    pub base_ms: u64,
    /// Delay ceiling, in milliseconds.
    pub cap_ms: u64,
    /// Jitter seed; a fixed seed fixes the whole schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0x0C10_64E7,
        }
    }
}

impl RetryPolicy {
    /// Derive a policy whose jitter stream is decorrelated by a job
    /// fingerprint. A batch of clients resubmitting after a node
    /// death all carry the same default seed — without this they
    /// would back off in lockstep and hammer the recovering node in
    /// synchronized waves. Mixing the fingerprint (already a
    /// well-spread 64-bit content address) into the seed gives every
    /// *job* its own deterministic schedule: reproducible run to run,
    /// desynchronized client to client.
    pub fn for_fingerprint(&self, fp: u64) -> RetryPolicy {
        RetryPolicy {
            seed: self
                .seed
                .rotate_left(32)
                .wrapping_add(fp.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..self.clone()
        }
    }

    /// The full backoff schedule: delay *before* retry `k` (the
    /// second attempt is preceded by `delays()[0]`). Exponential
    /// doubling from `base_ms`, capped at `cap_ms`, scaled by a
    /// seeded jitter factor in `[0.5, 1.0)` so synchronized clients
    /// desynchronize identically every run.
    pub fn delays(&self) -> Vec<Duration> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (1..self.attempts)
            .map(|k| {
                let exp = self
                    .base_ms
                    .saturating_mul(1u64 << (k - 1).min(20))
                    .min(self.cap_ms);
                let jitter = 0.5 + 0.5 * rng.next_f64();
                Duration::from_millis((exp as f64 * jitter) as u64)
            })
            .collect()
    }
}

/// A connected client holding one NDJSON request/response stream.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A client-side failure: transport errors or protocol violations.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's bytes did not decode as a protocol response.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connect, retrying transient failures per `policy`.
    ///
    /// # Errors
    ///
    /// The last connect error once attempts are exhausted.
    pub fn connect(addr: &str, policy: &RetryPolicy) -> Result<Client, ClientError> {
        let delays = policy.delays();
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delays[(attempt - 1) as usize]);
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Client {
                        reader,
                        writer: stream,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ClientError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::other("no connect attempts made")
        })))
    }

    /// Bound every later wait for a response line: a server that
    /// accepted the connection but never answers then fails the
    /// request with a timeout error instead of blocking it forever.
    /// `None`, the default, waits indefinitely.
    ///
    /// # Errors
    ///
    /// A zero duration, which the socket rejects.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Send one raw request line and read one response line.
    ///
    /// # Errors
    ///
    /// Transport failure, or a server that closed without responding.
    pub fn request_line(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection without responding".into(),
            ));
        }
        Ok(response.trim_end_matches(['\n', '\r']).to_string())
    }

    /// Send a request line and decode the response.
    ///
    /// # Errors
    ///
    /// Transport failure or an undecodable response.
    pub fn request(&mut self, line: &str) -> Result<Response, ClientError> {
        let raw = self.request_line(line)?;
        parse_response(&raw).map_err(ClientError::Protocol)
    }

    /// Submit a job; a server-side rejection comes back as
    /// `Ok(Err(Response::Error ...))` via the [`Response`] in the error
    /// position of the returned result.
    ///
    /// # Errors
    ///
    /// Transport/protocol failure, or the server's structured error.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<RunResult, ClientError> {
        match self.request(&spec.to_request_line())? {
            Response::Run(r) => Ok(r),
            Response::Error { code, message } => Err(ClientError::Protocol(format!(
                "server rejected job: {} ({message})",
                code.as_str()
            ))),
            Response::Ok(_) => Err(ClientError::Protocol(
                "expected a run response, got a plain ok".into(),
            )),
        }
    }

    /// Round-trip a `ping`.
    ///
    /// # Errors
    ///
    /// Transport/protocol failure.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request("{\"op\":\"ping\"}")? {
            Response::Ok(_) => Ok(()),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Fetch the server's `stats` document (raw response line).
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.request_line("{\"op\":\"stats\"}")
    }

    /// Ask the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport/protocol failure.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request("{\"op\":\"shutdown\"}")? {
            Response::Ok(_) => Ok(()),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let policy = RetryPolicy {
            attempts: 6,
            base_ms: 100,
            cap_ms: 400,
            seed: 42,
        };
        let a = policy.delays();
        let b = policy.delays();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5);
        for (k, d) in a.iter().enumerate() {
            let exp = (100u64 << k).min(400);
            let ms = d.as_millis() as u64;
            assert!(
                ms >= exp / 2 && ms < exp,
                "delay {k} = {ms}ms vs exp {exp}ms"
            );
        }
    }

    #[test]
    fn different_seeds_desynchronize() {
        let a = RetryPolicy {
            seed: 1,
            ..RetryPolicy::default()
        };
        let b = RetryPolicy {
            seed: 2,
            ..RetryPolicy::default()
        };
        assert_ne!(a.delays(), b.delays());
    }

    #[test]
    fn fingerprint_jitter_desynchronizes_jobs_deterministically() {
        let base = RetryPolicy::default();
        let a = base.for_fingerprint(0x00ff_00ff_00ff_00ff);
        let b = base.for_fingerprint(0x00ff_00ff_00ff_0100);
        // Same job, same schedule — reproducibility survives.
        assert_eq!(
            a.delays(),
            base.for_fingerprint(0x00ff_00ff_00ff_00ff).delays()
        );
        // Different jobs desynchronize even from one base seed.
        assert_ne!(a.delays(), b.delays());
        assert_ne!(a.delays(), base.delays());
        // Only the jitter moves; the envelope is untouched.
        assert_eq!(a.attempts, base.attempts);
        assert_eq!((a.base_ms, a.cap_ms), (base.base_ms, base.cap_ms));
    }

    #[test]
    fn connect_to_nothing_exhausts_attempts_quickly() {
        let policy = RetryPolicy {
            attempts: 2,
            base_ms: 1,
            cap_ms: 1,
            seed: 0,
        };
        // Reserved port that nothing listens on: bind-then-drop.
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        drop(l);
        assert!(Client::connect(&addr, &policy).is_err());
    }
}
