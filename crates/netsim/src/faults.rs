//! Deterministic fault injection for the round executors.
//!
//! The paper's model (Sect. 1.1) is perfectly synchronous and lossless; the
//! lower bounds of Sect. 3 are exactly about what an adversary can force on
//! a τ-round algorithm. This module supplies that adversary as a testing
//! tool: a [`FaultPlan`] describes a *schedule* of message drops,
//! duplications, delivery delays, crash-stop failures, and scheduler
//! stutters, and the round-synchronous executor
//! ([`Network`](crate::Network)) applies it identically at every worker
//! count — byte-identical final states, [`RunMetrics`](crate::RunMetrics),
//! and trace streams.
//!
//! # Determinism
//!
//! Every fault decision is a **pure function** of the plan and the injection
//! point, derived from a dedicated SplitMix64 stream that is disjoint from
//! the per-node protocol RNG streams (`node_rng` stream 0): a message fault
//! hashes `(fault seed, kind, send round, sender, receiver)`, a stutter
//! hashes `(fault seed, kind, round, node)`. Since at most one message per
//! (sender, receiver) pair exists per round, each injection point has a
//! unique key, so the decision does not depend on executor, thread count, or
//! iteration order — and injecting faults never perturbs protocol
//! randomness.
//!
//! # Semantics
//!
//! * **Drop** — the message is accepted (budget-checked, charged to
//!   `RunMetrics`, traced) but never delivered.
//! * **Duplicate** — the receiver sees the message twice in the delivery
//!   round, adjacent in the inbox (inboxes stay sender-sorted).
//! * **Delay(d)** — a message sent in round `r` is delivered in round
//!   `r + 1 + d` instead of `r + 1`, merged into that round's inbox in
//!   sender order (ties: earlier send first).
//! * **Crash-stop at round c** — the node executes neither `init` (if
//!   `c == 0`) nor any `round()` from round `c` on, and sends nothing;
//!   messages addressed to it are delivered into the void. A crashed node
//!   counts as `done` for quiescence.
//! * **Stutter** — the node skips `round()` for that round; messages that
//!   would have been delivered to it are held and merged (sender-sorted)
//!   into the inbox of the next round it executes.
//!
//! Fault precedence per message: drop, then duplicate, then delay. All
//! classes can be restricted to a node [`scope`](FaultPlan::scoped_to);
//! message faults apply only when *both* endpoints are in scope.

use std::collections::{BTreeMap, BTreeSet};

use spanner_graph::NodeId;

use crate::rng::splitmix64;

/// Salt separating the fault stream from every `node_rng` stream.
const FAULT_STREAM_SALT: u64 = 0xFA17_57A7_E5EE_D000;

/// Per-kind sub-salts.
const KIND_DROP: u64 = 1;
const KIND_DUPLICATE: u64 = 2;
const KIND_DELAY: u64 = 3;
const KIND_DELAY_AMOUNT: u64 = 4;
const KIND_STUTTER: u64 = 5;

/// Maps a hash to a uniform `f64` in `[0, 1)`.
#[inline]
fn chance(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The fate the plan assigns to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFate {
    /// Delivered normally next round.
    Deliver,
    /// Never delivered.
    Drop,
    /// Delivered twice next round (adjacent inbox entries).
    Duplicate,
    /// Delivered `d` rounds late (`d ≥ 1`).
    Delay(u32),
}

/// A deterministic fault schedule for one run.
///
/// Built with the `with_*` methods; the empty (default) plan injects
/// nothing, and executors given no plan run the exact pre-fault code path.
///
/// ```
/// use spanner_netsim::FaultPlan;
/// use spanner_graph::NodeId;
///
/// let plan = FaultPlan::new(7)
///     .with_drops(0.01)
///     .with_delays(0.05, 3)
///     .with_crash(NodeId(4), 10);
/// assert!(plan.is_active());
/// assert!(plan.crashed(NodeId(4), 10) && !plan.crashed(NodeId(4), 9));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    drop: f64,
    duplicate: f64,
    delay: f64,
    max_delay: u32,
    stutter: f64,
    crashes: BTreeMap<u32, u32>,
    scope: Option<BTreeSet<u32>>,
}

impl FaultPlan {
    /// An empty plan whose fault stream is derived from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drops each in-scope message independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_drops(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.drop = p;
        self
    }

    /// Duplicates each surviving message with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability out of range"
        );
        self.duplicate = p;
        self
    }

    /// Delays each surviving message with probability `p` by a uniform
    /// `1..=max_delay` rounds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`, or if `p > 0` with `max_delay == 0`.
    pub fn with_delays(mut self, p: f64, max_delay: u32) -> Self {
        assert!((0.0..=1.0).contains(&p), "delay probability out of range");
        assert!(p == 0.0 || max_delay >= 1, "delaying by 0 rounds");
        self.delay = p;
        self.max_delay = max_delay;
        self
    }

    /// Makes each in-scope node skip `round()` with probability `p` per
    /// round (it still receives: held messages arrive the next round it
    /// executes).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_stutters(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "stutter probability out of range");
        self.stutter = p;
        self
    }

    /// Crash-stops `node` at `round`: it executes nothing from that round
    /// on (`round == 0` suppresses `init` too) and sends nothing.
    pub fn with_crash(mut self, node: NodeId, round: u32) -> Self {
        self.crashes.insert(node.0, round);
        self
    }

    /// Restricts every fault class to the given nodes; message faults apply
    /// only when both endpoints are in scope. Scheduled crashes of
    /// out-of-scope nodes still fire (the crash list is explicit).
    pub fn scoped_to<I: IntoIterator<Item = NodeId>>(mut self, nodes: I) -> Self {
        self.scope = Some(nodes.into_iter().map(|v| v.0).collect());
        self
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.delay > 0.0
            || self.stutter > 0.0
            || !self.crashes.is_empty()
    }

    /// The seed of the dedicated fault stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `v` is subject to probabilistic faults.
    fn in_scope(&self, v: NodeId) -> bool {
        self.scope.as_ref().is_none_or(|s| s.contains(&v.0))
    }

    /// A uniform `[0, 1)` roll for one injection point — the dedicated
    /// fault stream (see module docs).
    fn roll(&self, kind: u64, round: u32, a: u32, b: u32) -> f64 {
        self.roll_at(kind, round as u64, a, b)
    }

    /// Like [`FaultPlan::roll`], keyed by a 64-bit timestamp instead of a
    /// round number (the event-driven executor keys delay decisions by the
    /// simulated send time, which outgrows `u32`).
    fn roll_at(&self, kind: u64, when: u64, a: u32, b: u32) -> f64 {
        let mut s = self.seed ^ FAULT_STREAM_SALT ^ kind;
        let x = splitmix64(&mut s);
        let mut t = x ^ (((a as u64) << 32) | b as u64);
        let y = splitmix64(&mut t);
        let mut u = y ^ when;
        chance(splitmix64(&mut u))
    }

    /// Delivery latency, in simulated ticks, of a message `sender → to`
    /// handed to the link at `send_time` — the event-driven executor's
    /// delay model ([`AsyncNetwork`](crate::AsyncNetwork)).
    ///
    /// Reuses the plan's delay machinery: the base latency is one tick;
    /// with probability [`FaultPlan::with_delays`]' `p` the link adds a
    /// uniform `1..=max_delay` extra ticks. Like every fault decision this
    /// is a **pure hash** of `(seed, edge, send time)` — reproducible,
    /// executor- and thread-count-independent — and plans without a delay
    /// clause (or with either endpoint out of scope) always return 1, so
    /// the empty plan is the unit-latency ("zero-delay") model.
    pub fn link_latency(&self, send_time: u64, sender: NodeId, to: NodeId) -> u64 {
        if self.delay <= 0.0 || !self.in_scope(sender) || !self.in_scope(to) {
            return 1;
        }
        if self.roll_at(KIND_DELAY, send_time, sender.0, to.0) < self.delay {
            let r = self.roll_at(KIND_DELAY_AMOUNT, send_time, sender.0, to.0);
            let d = 1 + (r * self.max_delay as f64) as u64;
            return 1 + d.min(self.max_delay.max(1) as u64);
        }
        1
    }

    /// The fate of the message `sender → to` sent in `send_round`.
    ///
    /// Pure: the same arguments always yield the same fate, whatever
    /// executor or thread count evaluates it.
    pub fn message_fate(&self, send_round: u32, sender: NodeId, to: NodeId) -> MsgFate {
        if !self.in_scope(sender) || !self.in_scope(to) {
            return MsgFate::Deliver;
        }
        if self.drop > 0.0 && self.roll(KIND_DROP, send_round, sender.0, to.0) < self.drop {
            return MsgFate::Drop;
        }
        if self.duplicate > 0.0
            && self.roll(KIND_DUPLICATE, send_round, sender.0, to.0) < self.duplicate
        {
            return MsgFate::Duplicate;
        }
        if self.delay > 0.0 && self.roll(KIND_DELAY, send_round, sender.0, to.0) < self.delay {
            let r = self.roll(KIND_DELAY_AMOUNT, send_round, sender.0, to.0);
            let d = 1 + (r * self.max_delay as f64) as u32;
            return MsgFate::Delay(d.min(self.max_delay.max(1)));
        }
        MsgFate::Deliver
    }

    /// The round at which `v` crash-stops, if scheduled.
    pub fn crash_round(&self, v: NodeId) -> Option<u32> {
        self.crashes.get(&v.0).copied()
    }

    /// Whether `v` is crashed in `round` (crashes are permanent).
    pub fn crashed(&self, v: NodeId, round: u32) -> bool {
        self.crash_round(v).is_some_and(|c| c <= round)
    }

    /// Whether `v` stutters in `round` (never during `init`, never once
    /// crashed). Pure, like [`FaultPlan::message_fate`].
    pub fn stutters(&self, v: NodeId, round: u32) -> bool {
        round >= 1
            && self.stutter > 0.0
            && self.in_scope(v)
            && !self.crashed(v, round)
            && self.roll(KIND_STUTTER, round, v.0, u32::MAX) < self.stutter
    }

    /// Whether `v` skips its protocol call in `round` (crashed or
    /// stuttering).
    pub fn skips(&self, v: NodeId, round: u32) -> bool {
        self.crashed(v, round) || self.stutters(v, round)
    }

    /// Parses the `--faults` spec syntax used by the experiment binaries:
    /// comma-separated `key=value` clauses, e.g.
    /// `drop=0.01,dup=0.005,delay=0.05:3,stutter=0.01,crash=4@10,seed=7`.
    ///
    /// Clauses: `seed=<u64>`, `drop=<p>`, `dup=<p>`, `delay=<p>:<max d>`,
    /// `stutter=<p>`, `crash=<node>@<round>` (repeatable),
    /// `scope=<node>-<node>` (inclusive id range).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys or malformed
    /// values.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause `{clause}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|_| format!("bad probability `{v}`"))?;
                if (0.0..=1.0).contains(&p) {
                    Ok(p)
                } else {
                    Err(format!("probability `{v}` outside [0, 1]"))
                }
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                }
                "drop" => plan.drop = prob(value)?,
                "dup" => plan.duplicate = prob(value)?,
                "delay" => {
                    let (p, d) = value
                        .split_once(':')
                        .ok_or_else(|| format!("delay `{value}` is not <p>:<max rounds>"))?;
                    plan.delay = prob(p)?;
                    plan.max_delay = d.parse().map_err(|_| format!("bad delay bound `{d}`"))?;
                    if plan.delay > 0.0 && plan.max_delay == 0 {
                        return Err("delay bound must be >= 1".into());
                    }
                }
                "stutter" => plan.stutter = prob(value)?,
                "crash" => {
                    let (node, round) = value
                        .split_once('@')
                        .ok_or_else(|| format!("crash `{value}` is not <node>@<round>"))?;
                    let node: u32 = node.parse().map_err(|_| format!("bad node `{node}`"))?;
                    let round: u32 = round.parse().map_err(|_| format!("bad round `{round}`"))?;
                    plan.crashes.insert(node, round);
                }
                "scope" => {
                    let (lo, hi) = value
                        .split_once('-')
                        .ok_or_else(|| format!("scope `{value}` is not <lo>-<hi>"))?;
                    let lo: u32 = lo.parse().map_err(|_| format!("bad node `{lo}`"))?;
                    let hi: u32 = hi.parse().map_err(|_| format!("bad node `{hi}`"))?;
                    if lo > hi {
                        return Err(format!("empty scope `{value}`"));
                    }
                    plan.scope = Some((lo..=hi).collect());
                }
                other => return Err(format!("unknown fault clause `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Per-category counts of injected faults, carried in
/// [`RunMetrics`](crate::RunMetrics) and (when non-zero) in the trace
/// stream's [`TraceEvent::Faults`](crate::TraceEvent::Faults) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Messages accepted but never delivered.
    pub dropped: u64,
    /// Extra copies delivered (one per duplicated message).
    pub duplicated: u64,
    /// Messages delivered late.
    pub delayed: u64,
    /// Messages addressed to a node already crashed at delivery time.
    pub dead_letters: u64,
    /// Crash-stop events that took effect.
    pub crashes: u64,
    /// Rounds skipped by stuttering nodes.
    pub stutters: u64,
}

impl FaultCounters {
    /// Whether no fault was injected.
    pub fn is_empty(&self) -> bool {
        *self == FaultCounters::default()
    }

    /// Adds another run's counts (for sequentially composed phases).
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.dead_letters += other.dead_letters;
        self.crashes += other.crashes;
        self.stutters += other.stutters;
    }
}

impl std::fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dropped={} duplicated={} delayed={} dead_letters={} crashes={} stutters={}",
            self.dropped,
            self.duplicated,
            self.delayed,
            self.dead_letters,
            self.crashes,
            self.stutters
        )
    }
}

/// The executors' shared fault engine: applies a [`FaultPlan`] to the
/// message stream at the single point both executors already share — the
/// global-sender-order routing pass — so faulted runs stay deterministic
/// and executor-independent.
///
/// Both executors drive the same call sequence: [`FaultState::begin_round`]
/// once per executed round (counts crash/stutter events),
/// [`FaultState::accept`] per accepted message in global sender order, and
/// [`FaultState::flush_due`] once per round boundary to materialize that
/// round's inboxes. `flush_due` never touches the counters, so the two
/// executors' slightly different call timing around run termination cannot
/// skew accounting.
pub(crate) struct FaultState<M> {
    plan: FaultPlan,
    /// Undelivered messages keyed by delivery round, each
    /// `(receiver, sender, msg)` in acceptance order (= send round, then
    /// global sender order — identical in both executors).
    pending: BTreeMap<u32, Vec<(NodeId, NodeId, M)>>,
    /// Per-receiver staging for the delivery merge; holds messages across
    /// rounds for stuttering receivers.
    carry: Vec<Vec<(NodeId, M)>>,
    in_flight: u64,
    counters: FaultCounters,
}

impl<M: Clone> FaultState<M> {
    /// An engine for `n` nodes executing `plan`.
    pub(crate) fn new(plan: FaultPlan, n: usize) -> Self {
        FaultState {
            plan,
            pending: BTreeMap::new(),
            carry: (0..n).map(|_| Vec::new()).collect(),
            in_flight: 0,
            counters: FaultCounters::default(),
        }
    }

    pub(crate) fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Undelivered messages (pending future rounds plus held carry).
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Counts the crash/stutter events taking effect in `round`. Called
    /// exactly once per *executed* round by both executors (before the
    /// nodes run), so the counts are executor-independent.
    pub(crate) fn begin_round(&mut self, round: u32) {
        for v in 0..self.carry.len() as u32 {
            let v = NodeId(v);
            if self.plan.crash_round(v) == Some(round) {
                self.counters.crashes += 1;
            } else if self.plan.stutters(v, round) {
                self.counters.stutters += 1;
            }
        }
    }

    /// Routes one accepted message sent in `send_round`, applying its fate.
    pub(crate) fn accept(&mut self, send_round: u32, sender: NodeId, to: NodeId, msg: M) {
        let deliver = send_round + 1;
        match self.plan.message_fate(send_round, sender, to) {
            MsgFate::Drop => {
                self.counters.dropped += 1;
                return;
            }
            MsgFate::Duplicate => {
                self.counters.duplicated += 1;
                self.push(deliver, to, sender, msg.clone());
                self.push(deliver, to, sender, msg);
            }
            MsgFate::Delay(d) => {
                self.counters.delayed += 1;
                self.push(deliver + d, to, sender, msg);
            }
            MsgFate::Deliver => self.push(deliver, to, sender, msg),
        }
        // Observational: the receiver will already be dead on arrival. The
        // message still occupies the wire (and drains normally), so this
        // cannot skew quiescence between executors.
        if self.plan.crashed(to, deliver) {
            self.counters.dead_letters += 1;
        }
    }

    fn push(&mut self, round: u32, to: NodeId, sender: NodeId, msg: M) {
        self.pending
            .entry(round)
            .or_default()
            .push((to, sender, msg));
        self.in_flight += 1;
    }

    /// Materializes the inboxes for `round` through `sink(receiver, sender,
    /// msg)`, sender-sorted per receiver (ties: older sends first), holding
    /// back messages for receivers that stutter in `round`. Returns how many
    /// messages were sunk. Counter-neutral by design (see type docs).
    pub(crate) fn flush_due(&mut self, round: u32, mut sink: impl FnMut(NodeId, NodeId, M)) -> u64 {
        if let Some(due) = self.pending.remove(&round) {
            for (to, sender, msg) in due {
                self.carry[to.index()].push((sender, msg));
            }
        }
        let mut delivered = 0u64;
        for v in 0..self.carry.len() {
            if self.carry[v].is_empty() {
                continue;
            }
            let node = NodeId(v as u32);
            if self.plan.stutters(node, round) {
                continue;
            }
            // Stable: equal senders keep acceptance order (older first).
            self.carry[v].sort_by_key(|&(s, _)| s);
            for (s, m) in self.carry[v].drain(..) {
                delivered += 1;
                sink(node, s, m);
            }
        }
        self.in_flight -= delivered;
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        assert_eq!(p.message_fate(3, NodeId(1), NodeId(2)), MsgFate::Deliver);
        assert!(!p.stutters(NodeId(0), 5));
        assert!(!p.crashed(NodeId(0), 5));
    }

    #[test]
    fn decisions_are_pure() {
        let p = FaultPlan::new(11)
            .with_drops(0.3)
            .with_duplicates(0.3)
            .with_delays(0.3, 4)
            .with_stutters(0.2);
        for r in 0..50u32 {
            for (a, b) in [(0u32, 1u32), (5, 9), (9, 5)] {
                let f1 = p.message_fate(r, NodeId(a), NodeId(b));
                let f2 = p.clone().message_fate(r, NodeId(a), NodeId(b));
                assert_eq!(f1, f2);
            }
            assert_eq!(p.stutters(NodeId(3), r), p.stutters(NodeId(3), r));
        }
    }

    #[test]
    fn direction_matters() {
        // The (sender, receiver) pair is ordered: the two directions of an
        // edge are distinct streams.
        let p = FaultPlan::new(1).with_drops(0.5);
        let mut differ = false;
        for r in 0..64 {
            differ |=
                p.message_fate(r, NodeId(0), NodeId(1)) != p.message_fate(r, NodeId(1), NodeId(0));
        }
        assert!(differ);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::new(5).with_drops(0.25);
        let mut dropped = 0;
        let total = 10_000;
        for i in 0..total {
            if p.message_fate(i % 97, NodeId(i / 97), NodeId(1000 + i % 97)) == MsgFate::Drop {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / total as f64;
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
    }

    #[test]
    fn delay_bounds_respected() {
        let p = FaultPlan::new(9).with_delays(1.0, 3);
        for i in 0..500u32 {
            match p.message_fate(i, NodeId(i), NodeId(i + 1)) {
                MsgFate::Delay(d) => assert!((1..=3).contains(&d)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn link_latency_is_pure_and_bounded() {
        let unit = FaultPlan::default();
        assert_eq!(unit.link_latency(0, NodeId(0), NodeId(1)), 1);
        assert_eq!(unit.link_latency(u64::MAX, NodeId(7), NodeId(3)), 1);

        let p = FaultPlan::new(13).with_delays(0.5, 4);
        let mut slow = 0u32;
        for t in 0..2_000u64 {
            let l1 = p.link_latency(t, NodeId(2), NodeId(9));
            let l2 = p.link_latency(t, NodeId(2), NodeId(9));
            assert_eq!(l1, l2, "latency must be a pure hash");
            assert!((1..=5).contains(&l1), "latency {l1} out of 1..=1+max");
            if l1 > 1 {
                slow += 1;
            }
        }
        // Roughly half the sends should hit the delay clause.
        assert!((700..1300).contains(&slow), "slow sends {slow}");

        // Scoped plans leave out-of-scope links at unit latency.
        let q = FaultPlan::new(1).with_delays(1.0, 3).scoped_to([NodeId(0)]);
        assert_eq!(q.link_latency(5, NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn crash_is_permanent_and_suppresses_stutter() {
        let p = FaultPlan::new(2)
            .with_stutters(1.0)
            .with_crash(NodeId(4), 6);
        assert!(!p.crashed(NodeId(4), 5));
        assert!(p.crashed(NodeId(4), 6));
        assert!(p.crashed(NodeId(4), 1000));
        assert!(p.stutters(NodeId(4), 5));
        assert!(!p.stutters(NodeId(4), 6));
        assert!(p.stutters(NodeId(3), 6));
        assert!(!p.stutters(NodeId(3), 0), "init never stutters");
    }

    #[test]
    fn scope_confines_probabilistic_faults() {
        let p = FaultPlan::new(3)
            .with_drops(1.0)
            .with_stutters(1.0)
            .scoped_to([NodeId(0), NodeId(1)]);
        assert_eq!(p.message_fate(1, NodeId(0), NodeId(1)), MsgFate::Drop);
        assert_eq!(p.message_fate(1, NodeId(0), NodeId(2)), MsgFate::Deliver);
        assert_eq!(p.message_fate(1, NodeId(2), NodeId(1)), MsgFate::Deliver);
        assert!(p.stutters(NodeId(1), 4));
        assert!(!p.stutters(NodeId(2), 4));
    }

    #[test]
    fn state_orders_delayed_messages_by_sender() {
        let mut st: FaultState<u64> = FaultState::new(FaultPlan::default(), 4);
        // Simulate: round 0 sends from 3 and 1 to 0; round 1 sends from 2.
        st.accept(0, NodeId(3), NodeId(0), 30);
        st.accept(0, NodeId(1), NodeId(0), 10);
        let mut got = Vec::new();
        st.flush_due(1, |to, s, m| got.push((to, s, m)));
        assert_eq!(
            got,
            vec![(NodeId(0), NodeId(1), 10), (NodeId(0), NodeId(3), 30)]
        );
        assert_eq!(st.in_flight(), 0);
    }

    #[test]
    fn state_holds_carry_for_stutterers() {
        let plan = FaultPlan::new(0).with_stutters(1.0);
        let mut st: FaultState<u64> = FaultState::new(plan, 2);
        st.accept(0, NodeId(1), NodeId(0), 7);
        let mut got = Vec::new();
        // Node 0 stutters every round, so nothing is ever flushed.
        st.flush_due(1, |to, s, m| got.push((to, s, m)));
        assert!(got.is_empty());
        assert_eq!(st.in_flight(), 1);
    }

    #[test]
    fn parse_spec_round_trips_all_clauses() {
        let p =
            FaultPlan::parse_spec("seed=9,drop=0.1,dup=0.05,delay=0.2:4,stutter=0.01,crash=3@7")
                .unwrap();
        assert_eq!(p.seed(), 9);
        assert!(p.is_active());
        assert_eq!(p.crash_round(NodeId(3)), Some(7));
        let q = FaultPlan::parse_spec("scope=2-5,drop=1").unwrap();
        assert_eq!(q.message_fate(1, NodeId(2), NodeId(5)), MsgFate::Drop);
        assert_eq!(q.message_fate(1, NodeId(1), NodeId(5)), MsgFate::Deliver);
    }

    #[test]
    fn parse_spec_rejects_garbage() {
        for bad in [
            "nonsense",
            "drop=2.0",
            "delay=0.5",
            "delay=0.5:0",
            "crash=5",
            "scope=9-3",
            "frob=1",
        ] {
            assert!(FaultPlan::parse_spec(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn counters_absorb_and_display() {
        let mut a = FaultCounters {
            dropped: 1,
            duplicated: 2,
            delayed: 3,
            dead_letters: 4,
            crashes: 5,
            stutters: 6,
        };
        assert!(!a.is_empty());
        assert!(FaultCounters::default().is_empty());
        a.absorb(&a.clone());
        assert_eq!(a.dropped, 2);
        assert_eq!(a.stutters, 12);
        let s = a.to_string();
        assert!(s.contains("dropped=2") && s.contains("crashes=10"));
    }
}
