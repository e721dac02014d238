//! Telemetry-driven adaptive control loop for the clognet simulator,
//! plus the deterministic scenario generator behind `clognet fuzz`.
//!
//! The paper's Delegated-Replies mechanism is a *static* scheme chosen
//! before the run; this crate closes the loop (ROADMAP item 4). A
//! [`Controller`] wakes at fixed decision intervals, reads a
//! [`ControlInput`] snapshot of live clogging signals (per-node blocked
//! fractions, injection-queue depths, shed delegation work), evaluates
//! its policy, and — under the hysteresis policy — walks a three-rung
//! scheme ladder:
//!
//! ```text
//!   level 0          level 1                level 2
//!   Baseline  ───►   Realistic Probing ───► Delegated Replies
//!            ◄───                     ◄───
//! ```
//!
//! Every evaluation (including holds) is appended to a [`DecisionLog`]
//! so controlled runs stay replayable: the log is part of the system
//! snapshot and round-trips through `CLOGSNAP` byte-identically.
//!
//! The controller is deliberately *pure*: it never touches the system.
//! `clognet-core` builds the input, calls [`Controller::observe`], and
//! applies the returned scheme itself. That keeps this crate free of
//! any dependency on the simulation engine, so the scenario generator
//! in [`fuzz`] can also live here.

pub mod fuzz;

use clognet_proto::snap::{SnapError, SnapReader, SnapWriter};
use clognet_proto::{ControlConfig, ControlPolicyKind, Knob, Scheme};

/// One decision boundary's worth of clogging signals, sampled by the
/// engine. Counter fields are **cumulative** (monotone within a stats
/// window); the controller keeps its own previous-boundary baselines
/// and diffs, exactly like the telemetry sampler does.
#[derive(Debug, Clone, Copy)]
pub struct ControlInput<'a> {
    /// Current cycle (a multiple of the decision interval).
    pub cycle: u64,
    /// Per-memory-node cumulative cycles spent blocked (injection
    /// buffer full), in dense `MemId` order.
    pub blocked_cycles: &'a [u64],
    /// Per-memory-node instantaneous injection-queue depth in packets.
    pub inj_depth: &'a [usize],
    /// Cumulative reply flits shed from the reply network by
    /// delegation (0 until the ladder reaches Delegated Replies).
    pub shed_flits: &'a [u64],
}

/// What a decision boundary concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// No scheme change (calm, dwelling, or already at the rung the
    /// signals ask for).
    Hold,
    /// Stepped up the ladder (toward Delegated Replies).
    Escalate,
    /// Stepped down the ladder (toward Baseline).
    DeEscalate,
}

impl Action {
    /// Short human label for decision-log rendering.
    pub fn label(self) -> &'static str {
        match self {
            Action::Hold => "hold",
            Action::Escalate => "escalate",
            Action::DeEscalate => "de-escalate",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Action::Hold => 0,
            Action::Escalate => 1,
            Action::DeEscalate => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self, SnapError> {
        Ok(match t {
            0 => Action::Hold,
            1 => Action::Escalate,
            2 => Action::DeEscalate,
            t => {
                return Err(SnapError::BadTag {
                    what: "control_action",
                    tag: u64::from(t),
                })
            }
        })
    }
}

/// One recorded policy evaluation: the observation that was made and
/// the action it produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Cycle of the decision boundary.
    pub cycle: u64,
    /// What the policy did.
    pub action: Action,
    /// Ladder level before the decision.
    pub from_level: u8,
    /// Ladder level after the decision (== `from_level` on a hold).
    pub to_level: u8,
    /// Hottest node's blocked fraction over the last interval, ‰.
    pub max_blocked_pm: u32,
    /// Longest per-node consecutive-hot streak, in cycles.
    pub hot_streak: u64,
    /// Deepest memory-node injection queue at the boundary, packets.
    pub max_inj_depth: u64,
    /// Reply flits shed by delegation since the previous boundary.
    pub shed_delta: u64,
}

/// Append-only, snapshot-capturable record of every decision a
/// controller made. Replaying a controlled run (same config, same
/// workload) reproduces the log byte for byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionLog {
    entries: Vec<Decision>,
}

impl DecisionLog {
    /// All decisions, oldest first.
    pub fn entries(&self) -> &[Decision] {
        &self.entries
    }

    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no decision has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many decisions escalated the ladder.
    pub fn escalations(&self) -> usize {
        self.entries
            .iter()
            .filter(|d| d.action == Action::Escalate)
            .count()
    }

    /// How many decisions de-escalated the ladder.
    pub fn de_escalations(&self) -> usize {
        self.entries
            .iter()
            .filter(|d| d.action == Action::DeEscalate)
            .count()
    }

    /// Serialize every entry (length-prefixed, declaration order).
    pub fn save(&self, w: &mut SnapWriter) {
        w.usize(self.entries.len());
        for d in &self.entries {
            w.u64(d.cycle);
            w.u8(d.action.tag());
            w.u8(d.from_level);
            w.u8(d.to_level);
            w.u32(d.max_blocked_pm);
            w.u64(d.hot_streak);
            w.u64(d.max_inj_depth);
            w.u64(d.shed_delta);
        }
    }

    /// Decode a log written by [`DecisionLog::save`].
    ///
    /// # Errors
    ///
    /// Propagates truncation and bad action tags.
    pub fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            entries.push(Decision {
                cycle: r.u64()?,
                action: Action::from_tag(r.u8()?)?,
                from_level: r.u8()?,
                to_level: r.u8()?,
                max_blocked_pm: r.u32()?,
                hot_streak: r.u64()?,
                max_inj_depth: r.u64()?,
                shed_delta: r.u64()?,
            });
        }
        Ok(DecisionLog { entries })
    }
}

/// Number of rungs on the scheme ladder.
pub const LADDER_LEVELS: u8 = 3;

/// The scheme at a given ladder level. Level 1 preserves a configured
/// RP fanout (a run that starts at `rp:8` de-escalates back to `rp:8`,
/// not to the default fanout).
pub fn ladder_scheme(level: u8, base: Scheme) -> Scheme {
    match level {
        0 => Scheme::Baseline,
        1 => match base {
            Scheme::RealisticProbing { fanout } => Scheme::RealisticProbing { fanout },
            _ => Scheme::rp_default(),
        },
        _ => Scheme::DelegatedReplies,
    }
}

/// The ladder level a static scheme corresponds to (where an adaptive
/// run starts).
pub fn ladder_level(scheme: Scheme) -> u8 {
    match scheme {
        Scheme::Baseline => 0,
        Scheme::RealisticProbing { .. } => 1,
        Scheme::DelegatedReplies => 2,
    }
}

/// The adaptive controller: a deterministic state machine evaluated at
/// every decision boundary. See DESIGN.md §14 for the full state
/// machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Controller {
    cfg: ControlConfig,
    /// Scheme the run was configured with (fixes the RP rung's fanout).
    base: Scheme,
    /// Current ladder level.
    level: u8,
    /// Decision intervals left before another scheme change is allowed.
    dwell_left: u64,
    /// Per-node consecutive-hot streak in cycles (reset to 0 the first
    /// interval a node is below the enter threshold).
    hot: Vec<u64>,
    /// Cycles every node has been continuously below the exit
    /// threshold (the sustained-calm counter gating de-escalation).
    cold: u64,
    /// Previous-boundary baselines of the cumulative input counters.
    prev_blocked: Vec<u64>,
    prev_shed: Vec<u64>,
    log: DecisionLog,
}

impl Controller {
    /// Fresh controller for a system with `n_mem` memory nodes running
    /// `base` as its configured scheme.
    pub fn new(cfg: ControlConfig, base: Scheme, n_mem: usize) -> Self {
        Controller {
            cfg,
            base,
            level: ladder_level(base),
            dwell_left: 0,
            hot: vec![0; n_mem],
            cold: 0,
            prev_blocked: vec![0; n_mem],
            prev_shed: vec![0; n_mem],
            log: DecisionLog::default(),
        }
    }

    /// The configured decision interval in cycles.
    pub fn interval(&self) -> u64 {
        self.cfg.interval.max(1)
    }

    /// Current ladder level.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The scheme the current ladder level corresponds to.
    pub fn scheme(&self) -> Scheme {
        ladder_scheme(self.level, self.base)
    }

    /// Every decision made so far.
    pub fn log(&self) -> &DecisionLog {
        &self.log
    }

    /// The engine switched schemes *externally* (warm-start forks, the
    /// resume command's `--scheme` override): the ladder re-seats on the
    /// new scheme as its base. Streak/dwell evidence belongs to the old
    /// regime and is discarded; the decision log persists.
    pub fn rebase(&mut self, scheme: Scheme) {
        self.base = scheme;
        self.level = ladder_level(scheme);
        self.dwell_left = 0;
        self.cold = 0;
        self.hot.iter_mut().for_each(|h| *h = 0);
    }

    /// The engine zeroed its statistics counters (end of warmup): the
    /// cumulative inputs restart from zero, so the baselines must too.
    /// Streaks, dwell, and the decision log persist — control state is
    /// simulation state, not measurement state.
    pub fn on_stats_reset(&mut self) {
        self.prev_blocked.iter_mut().for_each(|v| *v = 0);
        self.prev_shed.iter_mut().for_each(|v| *v = 0);
    }

    /// Evaluate the policy at a decision boundary. Returns the scheme
    /// to switch to when the policy escalates or de-escalates, `None`
    /// on a hold. The caller (the engine) applies the switch.
    pub fn observe(&mut self, input: &ControlInput<'_>) -> Option<Scheme> {
        debug_assert_eq!(input.blocked_cycles.len(), self.prev_blocked.len());
        let interval = self.interval();
        // Per-node blocked fraction over the interval, in per-mille.
        let mut max_pm: u32 = 0;
        let mut all_cold = true;
        for (i, &blocked) in input.blocked_cycles.iter().enumerate() {
            let delta = blocked.saturating_sub(self.prev_blocked[i]);
            self.prev_blocked[i] = blocked;
            let pm = (delta.min(interval) * 1000 / interval) as u32;
            max_pm = max_pm.max(pm);
            if pm >= self.cfg.enter_blocked_pm {
                self.hot[i] += interval;
            } else {
                self.hot[i] = 0;
            }
            if pm >= self.cfg.exit_blocked_pm {
                all_cold = false;
            }
        }
        self.cold = if all_cold { self.cold + interval } else { 0 };
        let hot_streak = self.hot.iter().copied().max().unwrap_or(0);
        let max_inj = input.inj_depth.iter().copied().max().unwrap_or(0) as u64;
        let mut shed_delta = 0u64;
        for (i, &shed) in input.shed_flits.iter().enumerate() {
            shed_delta += shed.saturating_sub(self.prev_shed[i]);
            self.prev_shed[i] = shed;
        }

        let from = self.level;
        let to = match self.cfg.policy {
            ControlPolicyKind::NoOp => from,
            ControlPolicyKind::Hysteresis => {
                if self.dwell_left > 0 {
                    self.dwell_left -= 1;
                    from
                } else {
                    self.hysteresis_target(from, max_pm, hot_streak)
                }
            }
        };
        let action = match to.cmp(&from) {
            std::cmp::Ordering::Greater => Action::Escalate,
            std::cmp::Ordering::Less => Action::DeEscalate,
            std::cmp::Ordering::Equal => Action::Hold,
        };
        if action != Action::Hold {
            self.level = to;
            self.dwell_left = self.cfg.dwell;
            // A scheme change starts a new regime: demand fresh
            // evidence before the next move in either direction.
            self.cold = 0;
            self.hot.iter_mut().for_each(|h| *h = 0);
        }
        self.log.entries.push(Decision {
            cycle: input.cycle,
            action,
            from_level: from,
            to_level: to,
            max_blocked_pm: max_pm,
            hot_streak,
            max_inj_depth: max_inj,
            shed_delta,
        });
        (action != Action::Hold).then(|| self.scheme())
    }

    /// The hysteresis ladder's target level given this boundary's
    /// signals: a sustained episode jumps straight to Delegated
    /// Replies, a hot interval steps up one rung, sustained calm steps
    /// down one rung.
    fn hysteresis_target(&self, from: u8, max_pm: u32, hot_streak: u64) -> u8 {
        let top = LADDER_LEVELS - 1;
        if hot_streak >= self.cfg.enter_episode && self.cfg.enter_episode > 0 {
            return top;
        }
        if max_pm >= self.cfg.enter_blocked_pm {
            return (from + 1).min(top);
        }
        if self.cold >= self.cfg.exit_episode && max_pm < self.cfg.exit_blocked_pm {
            return from.saturating_sub(1);
        }
        from
    }

    /// Serialize the mutable controller state (everything except the
    /// config, which travels in the snapshot's `SystemConfig`). The
    /// base scheme is included: a snapshot taken after an actuation
    /// embeds the *escalated* scheme in its config, so the original
    /// base (which fixes the RP rung's fanout) would otherwise be lost.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.base.save(w);
        w.u8(self.level);
        w.u64(self.dwell_left);
        w.usize(self.hot.len());
        for &h in &self.hot {
            w.u64(h);
        }
        w.u64(self.cold);
        for &b in &self.prev_blocked {
            w.u64(b);
        }
        for &s in &self.prev_shed {
            w.u64(s);
        }
        self.log.save(w);
    }

    /// Restore the mutable state written by [`Controller::save_state`]
    /// into a controller built from the same config.
    ///
    /// # Errors
    ///
    /// Propagates decode errors; rejects a node count that does not
    /// match this controller's.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.base = Scheme::load(r)?;
        self.level = r.u8()?;
        if self.level >= LADDER_LEVELS {
            return Err(SnapError::Corrupt("controller level out of range"));
        }
        self.dwell_left = r.u64()?;
        let n = r.usize()?;
        if n != self.hot.len() {
            return Err(SnapError::Corrupt("controller node count mismatch"));
        }
        for h in &mut self.hot {
            *h = r.u64()?;
        }
        self.cold = r.u64()?;
        for b in &mut self.prev_blocked {
            *b = r.u64()?;
        }
        for s in &mut self.prev_shed {
            *s = r.u64()?;
        }
        self.log = DecisionLog::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_input<'a>(
        cycle: u64,
        blocked: &'a [u64],
        inj: &'a [usize],
        shed: &'a [u64],
    ) -> ControlInput<'a> {
        ControlInput {
            cycle,
            blocked_cycles: blocked,
            inj_depth: inj,
            shed_flits: shed,
        }
    }

    fn cfg() -> ControlConfig {
        ControlConfig {
            policy: ControlPolicyKind::Hysteresis,
            interval: 100,
            enter_blocked_pm: 500,
            exit_blocked_pm: 100,
            enter_episode: 300,
            exit_episode: 200,
            dwell: 1,
        }
    }

    #[test]
    fn noop_policy_never_actuates_but_logs_every_boundary() {
        let mut c = Controller::new(ControlConfig::noop(), Scheme::Baseline, 2);
        let inj = [9usize, 9];
        let shed = [0u64, 0];
        for k in 1..=5u64 {
            let blocked = [k * 500, k * 500];
            assert_eq!(c.observe(&hot_input(k * 500, &blocked, &inj, &shed)), None);
        }
        assert_eq!(c.log().len(), 5);
        assert_eq!(c.log().escalations(), 0);
        assert_eq!(c.scheme(), Scheme::Baseline);
    }

    #[test]
    fn hysteresis_escalates_on_hot_intervals_and_dwells() {
        let mut c = Controller::new(cfg(), Scheme::Baseline, 1);
        let inj = [4usize];
        let shed = [0u64];
        // 100% blocked interval: one rung up (Baseline -> RP).
        let s = c.observe(&hot_input(100, &[100], &inj, &shed));
        assert_eq!(s, Some(Scheme::rp_default()));
        // Still fully blocked, but dwell=1 holds one boundary.
        assert_eq!(c.observe(&hot_input(200, &[200], &inj, &shed)), None);
        // Dwell expired and still hot: the next rung (RP -> DR).
        let s = c.observe(&hot_input(300, &[300], &inj, &shed));
        assert_eq!(s, Some(Scheme::DelegatedReplies));
        assert_eq!(c.level(), 2);
        assert_eq!(c.log().escalations(), 2);
    }

    #[test]
    fn hysteresis_de_escalates_only_after_sustained_calm() {
        let mut c = Controller::new(cfg(), Scheme::DelegatedReplies, 1);
        let inj = [0usize];
        let shed = [0u64];
        // Calm boundary #1 (cold = 100 < exit_episode 200): hold.
        assert_eq!(c.observe(&hot_input(100, &[0], &inj, &shed)), None);
        // Calm boundary #2 (cold = 200): step down to RP.
        let s = c.observe(&hot_input(200, &[0], &inj, &shed));
        assert_eq!(s, Some(Scheme::rp_default()));
        // Dwell holds one boundary, then another sustained-calm window
        // steps down to Baseline.
        assert_eq!(c.observe(&hot_input(300, &[0], &inj, &shed)), None);
        let s = c.observe(&hot_input(400, &[0], &inj, &shed));
        assert_eq!(s, Some(Scheme::Baseline));
        assert_eq!(c.log().de_escalations(), 2);
    }

    #[test]
    fn rp_fanout_is_preserved_on_the_middle_rung() {
        let base = Scheme::RealisticProbing { fanout: 8 };
        assert_eq!(ladder_scheme(1, base), base);
        assert_eq!(ladder_scheme(1, Scheme::Baseline), Scheme::rp_default());
        assert_eq!(ladder_level(base), 1);
    }

    #[test]
    fn thresholds_that_never_fire_never_actuate() {
        let quiet = ControlConfig {
            enter_blocked_pm: 1001, // above the 1000‰ ceiling
            enter_episode: u64::MAX,
            exit_episode: u64::MAX,
            ..cfg()
        };
        let mut c = Controller::new(quiet, Scheme::Baseline, 1);
        let inj = [16usize];
        let shed = [0u64];
        for k in 1..=10u64 {
            assert_eq!(
                c.observe(&hot_input(k * 100, &[k * 100], &inj, &shed)),
                None
            );
        }
        assert_eq!(c.log().escalations() + c.log().de_escalations(), 0);
    }

    #[test]
    fn state_round_trips_through_snap() {
        let mut c = Controller::new(cfg(), Scheme::Baseline, 2);
        let inj = [3usize, 1];
        let shed = [10u64, 0];
        for k in 1..=4u64 {
            let blocked = [k * 100, k * 40];
            c.observe(&hot_input(k * 100, &blocked, &inj, &shed));
        }
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        // The receiving controller may have been constructed from a
        // snapshot config carrying the *escalated* scheme — the saved
        // state must restore the original base regardless.
        let mut back = Controller::new(cfg(), Scheme::DelegatedReplies, 2);
        let mut r = SnapReader::raw(&bytes);
        back.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, c);
        // Re-encoding is byte-stable.
        let mut w2 = SnapWriter::new();
        back.save_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn rebase_reseats_the_ladder_and_keeps_the_log() {
        let mut c = Controller::new(cfg(), Scheme::Baseline, 1);
        let inj = [4usize];
        let shed = [0u64];
        c.observe(&hot_input(100, &[100], &inj, &shed)); // -> RP
        let logged = c.log().len();
        c.rebase(Scheme::DelegatedReplies);
        assert_eq!(c.level(), 2);
        assert_eq!(c.scheme(), Scheme::DelegatedReplies);
        assert_eq!(c.log().len(), logged);
    }

    #[test]
    fn stats_reset_zeroes_baselines_but_keeps_the_log() {
        let mut c = Controller::new(cfg(), Scheme::Baseline, 1);
        let inj = [2usize];
        let shed = [5u64];
        c.observe(&hot_input(100, &[80], &inj, &shed));
        let logged = c.log().len();
        c.on_stats_reset();
        // Counters restart from zero: a post-reset observation must
        // not see a negative (saturating) delta.
        c.observe(&hot_input(200, &[60], &inj, &shed));
        assert_eq!(c.log().len(), logged + 1);
        assert_eq!(c.log().entries()[logged].max_blocked_pm, 600);
    }
}
