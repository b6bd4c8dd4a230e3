//! Round-level tracing: where a run spends its rounds, messages, and words.
//!
//! [`RunMetrics`] answers *how much* a run cost in the
//! paper's currency (rounds, messages, words); this module answers *where*.
//! Both executors can feed a [`TraceSink`] with one [`TraceEvent::Round`]
//! per executed round (messages routed, words charged, active senders, a
//! message-size histogram in O(log n)-word units). **Phase spans** come
//! from the construction's timetable, which every node knows: a driver
//! wraps its sink in a [`ScheduledSink`] holding one sorted schedule of
//! `(round, `[`PhaseMark`]`)` entries, so the skeleton's `Expand` calls and
//! the Fibonacci construction's stages show up as named spans whose
//! per-phase costs can be cited next to the paper's per-phase bounds
//! (Theorems 2, 7, 8). Nodes declare nothing and the executors buffer
//! nothing per node.
//!
//! # Design contract
//!
//! * **Zero cost when disabled.** The executors consult
//!   [`TraceSink::enabled`] once per run; with [`NullSink`] no event is
//!   built, no phase schedule is built, and the hot path only pays an
//!   already-predicted branch per message.
//! * **Deterministic streams.** Events are emitted in global sender order —
//!   the same order in which messages are routed and budgets are charged —
//!   so a run produces *byte-identical* JSONL streams at every worker
//!   count (asserted in `tests/executor_parity.rs`).
//! * **Errors retain the partial trace.** A budget violation or round-limit
//!   error flushes the partial round, closes the open phase span and emits
//!   a final [`TraceEvent::RunEnd`] carrying the error, mirroring how
//!   `RunMetrics` retains partial accounting on failed runs.
//!
//! # Example
//!
//! ```
//! use spanner_graph::generators;
//! use spanner_netsim::{patterns::FloodProtocol, MessageBudget, Network, TraceSummary};
//!
//! let g = generators::cycle(16);
//! let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 42);
//! let mut summary = TraceSummary::new();
//! net.run_traced(|v, _| FloodProtocol::new(v.0 == 0, 8), 64, &mut summary)
//!     .expect("flood terminates");
//! // The summary's totals are exactly the aggregate metrics.
//! assert_eq!(summary.total_rounds(), net.metrics().rounds);
//! assert_eq!(summary.total_messages(), net.metrics().messages);
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::faults::FaultCounters;
use crate::metrics::RunMetrics;
use crate::sync::RunError;

/// Number of logarithmic message-size buckets tracked per round.
///
/// Bucket 0 counts messages of at most one word; bucket `i > 0` counts
/// messages of `2^i ..= 2^(i+1) - 1` words. 32 buckets cover every message
/// length the simulator can represent.
pub const SIZE_BUCKETS: usize = 32;

/// The histogram bucket a message of `words` words falls into.
///
/// ```
/// use spanner_netsim::trace::size_bucket;
/// assert_eq!(size_bucket(0), 0);
/// assert_eq!(size_bucket(1), 0);
/// assert_eq!(size_bucket(2), 1);
/// assert_eq!(size_bucket(3), 1);
/// assert_eq!(size_bucket(19), 4);
/// ```
#[inline]
pub fn size_bucket(words: usize) -> usize {
    if words <= 1 {
        0
    } else {
        ((usize::BITS - 1 - words.leading_zeros()) as usize).min(SIZE_BUCKETS - 1)
    }
}

/// One record in a run's trace stream.
///
/// Events are ordered: the phase transitions scheduled for round `r`
/// precede the `Round { round: r, .. }` record, and a final
/// [`TraceEvent::RunEnd`] closes every stream — including failed runs,
/// where it carries the error after the partial round and the closing
/// [`TraceEvent::PhaseExit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A scheduled phase began in `round`.
    ///
    /// Emitted once per transition, by [`ScheduledSink`] from the run's
    /// phase schedule.
    PhaseEnter {
        /// Round in which the phase began (0 = `init`).
        round: u32,
        /// Phase name from the schedule (e.g. `expand[03]`, `L1.ball`).
        name: String,
    },
    /// The named phase ended in `round`: at a scheduled
    /// [`PhaseMark::Exit`], at the next scheduled
    /// [`PhaseMark::Enter`], or at the run's last round when the run ends
    /// with the phase open.
    PhaseExit {
        /// Round in which the span closed.
        round: u32,
        /// Name of the phase being closed.
        name: String,
    },
    /// Aggregate cost of one executed round.
    Round {
        /// The round number (0 = the `init` round, whose sends are
        /// delivered in round 1).
        round: u32,
        /// Messages accepted (routed and charged) this round.
        messages: u64,
        /// Words charged against the budget this round.
        words: u64,
        /// Nodes that sent at least one message this round.
        active: u32,
        /// Message-size histogram for this round: `sizes[b]` counts
        /// messages in bucket `b` (see [`size_bucket`]); trailing zero
        /// buckets are trimmed.
        sizes: Vec<u64>,
    },
    /// One message arrival observed by the event-driven executor
    /// ([`AsyncNetwork`](crate::AsyncNetwork)) with delivery tracing
    /// enabled. Emitted between the `Round` record of the send round and
    /// the next round's events, in deterministic `(time, sender, seq)`
    /// event order. Round-synchronous executors never emit this event, and
    /// the asynchronous executor omits it by default
    /// ([`AsyncNetwork::with_delivery_trace`](crate::AsyncNetwork::with_delivery_trace)),
    /// so default streams stay byte-identical across all executors.
    Deliver {
        /// Simulated arrival time, in ticks.
        time: u64,
        /// The protocol round the message was sent in.
        round: u32,
        /// Sending node id.
        from: u32,
        /// Receiving node id.
        to: u32,
        /// Message length in words.
        words: u64,
    },
    /// Per-category fault counts of the run; emitted once, immediately
    /// before [`TraceEvent::RunEnd`], and **only** when at least one fault
    /// was injected — unfaulted runs keep their pre-fault byte-identical
    /// streams. Mirrors `RunMetrics::faults`.
    Faults {
        /// Messages accepted but never delivered.
        dropped: u64,
        /// Extra copies delivered.
        duplicated: u64,
        /// Messages delivered late.
        delayed: u64,
        /// Messages addressed to an already-crashed node.
        dead_letters: u64,
        /// Crash-stop events that took effect.
        crashes: u64,
        /// Rounds skipped by stuttering nodes.
        stutters: u64,
    },
    /// The run ended; totals equal the run's [`RunMetrics`].
    RunEnd {
        /// Total rounds executed (partial rounds count, matching
        /// `RunMetrics::rounds`).
        rounds: u32,
        /// Total messages accepted.
        messages: u64,
        /// Total words charged.
        words: u64,
        /// Longest accepted message, in words.
        max_message_words: u64,
        /// The error that ended the run, if it failed.
        error: Option<String>,
    },
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl TraceEvent {
    /// Serializes the event as one line of JSON (no trailing newline).
    ///
    /// The schema is stable and documented in EXPERIMENTS.md; it
    /// round-trips through [`TraceEvent::from_json_line`].
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(64);
        match self {
            TraceEvent::PhaseEnter { round, name } => {
                s.push_str(&format!(
                    "{{\"ev\":\"phase_enter\",\"round\":{round},\"name\":\""
                ));
                escape_into(&mut s, name);
                s.push_str("\"}");
            }
            TraceEvent::PhaseExit { round, name } => {
                s.push_str(&format!(
                    "{{\"ev\":\"phase_exit\",\"round\":{round},\"name\":\""
                ));
                escape_into(&mut s, name);
                s.push_str("\"}");
            }
            TraceEvent::Round {
                round,
                messages,
                words,
                active,
                sizes,
            } => {
                s.push_str(&format!(
                    "{{\"ev\":\"round\",\"round\":{round},\"messages\":{messages},\
                     \"words\":{words},\"active\":{active},\"sizes\":["
                ));
                for (i, v) in sizes.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&v.to_string());
                }
                s.push_str("]}");
            }
            TraceEvent::Deliver {
                time,
                round,
                from,
                to,
                words,
            } => {
                s.push_str(&format!(
                    "{{\"ev\":\"deliver\",\"time\":{time},\"round\":{round},\
                     \"from\":{from},\"to\":{to},\"words\":{words}}}"
                ));
            }
            TraceEvent::Faults {
                dropped,
                duplicated,
                delayed,
                dead_letters,
                crashes,
                stutters,
            } => {
                s.push_str(&format!(
                    "{{\"ev\":\"faults\",\"dropped\":{dropped},\"duplicated\":{duplicated},\
                     \"delayed\":{delayed},\"dead_letters\":{dead_letters},\
                     \"crashes\":{crashes},\"stutters\":{stutters}}}"
                ));
            }
            TraceEvent::RunEnd {
                rounds,
                messages,
                words,
                max_message_words,
                error,
            } => {
                s.push_str(&format!(
                    "{{\"ev\":\"run_end\",\"rounds\":{rounds},\"messages\":{messages},\
                     \"words\":{words},\"max_message_words\":{max_message_words},\"error\":"
                ));
                match error {
                    None => s.push_str("null"),
                    Some(e) => {
                        s.push('"');
                        escape_into(&mut s, e);
                        s.push('"');
                    }
                }
                s.push('}');
            }
        }
        s
    }

    /// Parses one JSONL line produced by [`TraceEvent::to_json_line`].
    ///
    /// Returns `None` for blank lines and anything that is not a valid
    /// trace record (the summarizer skips such lines rather than failing).
    pub fn from_json_line(line: &str) -> Option<TraceEvent> {
        let fields = parse_object(line.trim())?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let num = |k: &str| match get(k) {
            Some(JsonVal::Num(n)) => Some(*n),
            _ => None,
        };
        let text = |k: &str| match get(k) {
            Some(JsonVal::Str(s)) => Some(s.clone()),
            _ => None,
        };
        match text("ev")?.as_str() {
            "phase_enter" => Some(TraceEvent::PhaseEnter {
                round: num("round")? as u32,
                name: text("name")?,
            }),
            "phase_exit" => Some(TraceEvent::PhaseExit {
                round: num("round")? as u32,
                name: text("name")?,
            }),
            "round" => Some(TraceEvent::Round {
                round: num("round")? as u32,
                messages: num("messages")?,
                words: num("words")?,
                active: num("active")? as u32,
                sizes: match get("sizes") {
                    Some(JsonVal::Arr(v)) => v.clone(),
                    _ => return None,
                },
            }),
            "deliver" => Some(TraceEvent::Deliver {
                time: num("time")?,
                round: num("round")? as u32,
                from: num("from")? as u32,
                to: num("to")? as u32,
                words: num("words")?,
            }),
            "faults" => Some(TraceEvent::Faults {
                dropped: num("dropped")?,
                duplicated: num("duplicated")?,
                delayed: num("delayed")?,
                dead_letters: num("dead_letters")?,
                crashes: num("crashes")?,
                stutters: num("stutters")?,
            }),
            "run_end" => Some(TraceEvent::RunEnd {
                rounds: num("rounds")? as u32,
                messages: num("messages")?,
                words: num("words")?,
                max_message_words: num("max_message_words")?,
                error: match get("error") {
                    Some(JsonVal::Str(s)) => Some(s.clone()),
                    Some(JsonVal::Null) => None,
                    _ => return None,
                },
            }),
            _ => None,
        }
    }
}

/// Minimal JSON value for the flat objects the trace schema uses.
#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Str(String),
    Num(u64),
    Arr(Vec<u64>),
    Null,
}

/// Parses a flat JSON object of string/number/number-array/null values.
fn parse_object(s: &str) -> Option<Vec<(String, JsonVal)>> {
    let mut chars = s.chars().peekable();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> Option<String> {
        if chars.next()? != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'u' => {
                        let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                        let code = u32::from_str_radix(&hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    };
    let parse_num = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> Option<u64> {
        let mut n: u64 = 0;
        let mut any = false;
        while let Some(c) = chars.peek() {
            if let Some(d) = c.to_digit(10) {
                n = n.checked_mul(10)?.checked_add(d as u64)?;
                any = true;
                chars.next();
            } else {
                break;
            }
        }
        any.then_some(n)
    };

    skip_ws(&mut chars);
    if chars.next()? != '{' {
        return None;
    }
    let mut fields = Vec::new();
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        return Some(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let val = match chars.peek()? {
            '"' => JsonVal::Str(parse_string(&mut chars)?),
            '[' => {
                chars.next();
                let mut arr = Vec::new();
                skip_ws(&mut chars);
                if chars.peek() == Some(&']') {
                    chars.next();
                } else {
                    loop {
                        skip_ws(&mut chars);
                        arr.push(parse_num(&mut chars)?);
                        skip_ws(&mut chars);
                        match chars.next()? {
                            ',' => continue,
                            ']' => break,
                            _ => return None,
                        }
                    }
                }
                JsonVal::Arr(arr)
            }
            'n' => {
                for expect in "null".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                JsonVal::Null
            }
            _ => JsonVal::Num(parse_num(&mut chars)?),
        };
        fields.push((key, val));
        skip_ws(&mut chars);
        match chars.next()? {
            ',' => continue,
            '}' => return Some(fields),
            _ => return None,
        }
    }
}

/// Receives the trace stream of a run.
///
/// Implementations decide what to keep: nothing ([`NullSink`]), every
/// event (`Vec<TraceEvent>`), a JSONL file ([`JsonLinesSink`]), or online
/// aggregates ([`TraceSummary`]).
pub trait TraceSink {
    /// Whether the executors should collect events at all.
    ///
    /// When this returns `false` the run performs **no** tracing work:
    /// no phase schedule is built and no event is constructed.
    /// Checked once per run, not per event.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event. Events arrive in stream order (see
    /// [`TraceEvent`]).
    fn record(&mut self, event: TraceEvent);
}

/// The disabled sink: reports `enabled() == false` and drops everything.
///
/// `Network::run` uses it internally, so untraced runs pay no tracing
/// cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// Keeps every event, in stream order: the sink tests compare whole
/// traces with.
impl TraceSink for Vec<TraceEvent> {
    fn record(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

/// Writes each event as one line of JSON to an [`io::Write`].
///
/// The stream is deterministic: the same run produces the same bytes on
/// both executors. I/O errors are latched (tracing must not abort a
/// simulation); check [`JsonLinesSink::io_error`] after the run.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl JsonLinesSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the [`File::create`] failure.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonLinesSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink { out, error: None }
    }

    /// The first I/O error encountered while writing, if any.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the latched write error or the flush failure.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_json_line();
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }
}

/// Per-phase cost aggregated by [`TraceSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCost {
    /// The phase name, or `(untracked)` for rounds outside any span.
    pub name: String,
    /// First round attributed to the phase.
    pub first_round: u32,
    /// Last round attributed to the phase.
    pub last_round: u32,
    /// Rounds attributed to the phase (init round 0 is not counted, so
    /// phase rounds sum to `RunMetrics::rounds`).
    pub rounds: u32,
    /// Messages accepted while the phase was current.
    pub messages: u64,
    /// Words charged while the phase was current.
    pub words: u64,
}

impl PhaseCost {
    fn new(name: String, round: u32) -> Self {
        PhaseCost {
            name,
            first_round: round,
            last_round: round,
            rounds: 0,
            messages: 0,
            words: 0,
        }
    }
}

/// Online aggregation of a trace stream: rounds/messages/words per phase
/// plus a run-wide message-size histogram.
///
/// Implements [`TraceSink`], so it can be handed directly to
/// `run_traced`, or fed recorded events via [`TraceSummary::observe`] /
/// [`TraceSummary::from_events`] (the `trace_summary` binary does the
/// latter with a parsed JSONL file).
///
/// Invariants (property-tested): summing `rounds`, `messages`, and `words`
/// over all phases — including the `(untracked)` bucket — yields exactly
/// the run's [`RunMetrics`] aggregates, and the size histogram's total
/// count equals `RunMetrics::messages`.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    phases: Vec<PhaseCost>,
    /// Index into `phases` of the currently open span.
    current: Option<usize>,
    untracked: Option<PhaseCost>,
    rounds: u32,
    messages: u64,
    words: u64,
    sizes: Vec<u64>,
    deliveries: u64,
    faults: Option<FaultCounters>,
    error: Option<String>,
    ended: bool,
}

impl TraceSummary {
    /// An empty summary.
    pub fn new() -> Self {
        TraceSummary::default()
    }

    /// Builds a summary from a recorded event sequence.
    pub fn from_events<'a, I: IntoIterator<Item = &'a TraceEvent>>(events: I) -> Self {
        let mut s = TraceSummary::new();
        for ev in events {
            s.observe(ev);
        }
        s
    }

    /// Folds one event into the aggregates.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::PhaseEnter { round, name } => {
                let idx = match self.phases.iter().position(|p| p.name == *name) {
                    Some(i) => i,
                    None => {
                        self.phases.push(PhaseCost::new(name.clone(), *round));
                        self.phases.len() - 1
                    }
                };
                self.current = Some(idx);
            }
            TraceEvent::PhaseExit { .. } => {
                self.current = None;
            }
            TraceEvent::Round {
                round,
                messages,
                words,
                sizes,
                ..
            } => {
                if *round >= 1 {
                    self.rounds += 1;
                }
                self.messages += messages;
                self.words += words;
                if self.sizes.len() < sizes.len() {
                    self.sizes.resize(sizes.len(), 0);
                }
                for (acc, v) in self.sizes.iter_mut().zip(sizes) {
                    *acc += v;
                }
                let bucket = match self.current {
                    Some(i) => &mut self.phases[i],
                    None => self
                        .untracked
                        .get_or_insert_with(|| PhaseCost::new("(untracked)".into(), *round)),
                };
                if *round >= 1 {
                    bucket.rounds += 1;
                }
                bucket.messages += messages;
                bucket.words += words;
                bucket.last_round = (*round).max(bucket.last_round);
                bucket.first_round = (*round).min(bucket.first_round);
            }
            TraceEvent::Deliver { .. } => {
                self.deliveries += 1;
            }
            TraceEvent::Faults {
                dropped,
                duplicated,
                delayed,
                dead_letters,
                crashes,
                stutters,
            } => {
                self.faults = Some(FaultCounters {
                    dropped: *dropped,
                    duplicated: *duplicated,
                    delayed: *delayed,
                    dead_letters: *dead_letters,
                    crashes: *crashes,
                    stutters: *stutters,
                });
            }
            TraceEvent::RunEnd { error, .. } => {
                self.ended = true;
                self.error.clone_from(error);
            }
        }
    }

    /// Named phase costs in first-entry order (excludes the untracked
    /// bucket — see [`TraceSummary::untracked`]).
    pub fn phases(&self) -> &[PhaseCost] {
        &self.phases
    }

    /// Costs accrued outside any phase span, if any.
    pub fn untracked(&self) -> Option<&PhaseCost> {
        self.untracked.as_ref()
    }

    /// Total executed rounds observed (equals `RunMetrics::rounds`).
    pub fn total_rounds(&self) -> u32 {
        self.rounds
    }

    /// Total messages observed (equals `RunMetrics::messages`).
    pub fn total_messages(&self) -> u64 {
        self.messages
    }

    /// Total words observed (equals `RunMetrics::words`).
    pub fn total_words(&self) -> u64 {
        self.words
    }

    /// Run-wide message-size histogram; entry `b` counts messages in
    /// bucket `b` (see [`size_bucket`]). Trailing zero buckets trimmed.
    pub fn size_histogram(&self) -> &[u64] {
        &self.sizes
    }

    /// Number of [`Deliver`](TraceEvent::Deliver) events observed — zero
    /// unless the stream came from an event-driven run with delivery
    /// tracing enabled.
    pub fn total_deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Fault counts recorded by the stream's
    /// [`Faults`](TraceEvent::Faults) event; `None` when the run injected
    /// no faults (the event is omitted from unfaulted streams).
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.faults.as_ref()
    }

    /// The error that ended the traced run, if it failed.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Whether a [`TraceEvent::RunEnd`] was observed.
    pub fn is_complete(&self) -> bool {
        self.ended
    }

    /// Renders the per-phase table and size histogram as aligned text.
    pub fn render(&self) -> String {
        let mut rows: Vec<[String; 6]> = Vec::new();
        let fmt = |p: &PhaseCost| {
            [
                p.name.clone(),
                format!("{}..{}", p.first_round, p.last_round),
                p.rounds.to_string(),
                p.messages.to_string(),
                p.words.to_string(),
                if p.messages == 0 {
                    "-".into()
                } else {
                    format!("{:.2}", p.words as f64 / p.messages as f64)
                },
            ]
        };
        if let Some(u) = &self.untracked {
            rows.push(fmt(u));
        }
        for p in &self.phases {
            rows.push(fmt(p));
        }
        rows.push([
            "TOTAL".into(),
            String::new(),
            self.rounds.to_string(),
            self.messages.to_string(),
            self.words.to_string(),
            String::new(),
        ]);
        let header = ["phase", "span", "rounds", "messages", "words", "w/msg"];
        let mut width: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for r in &rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, h) in header.iter().enumerate() {
            out.push_str(&format!("{h:<w$}  ", w = width[i]));
        }
        out.push('\n');
        for r in &rows {
            for (i, c) in r.iter().enumerate() {
                out.push_str(&format!("{c:<w$}  ", w = width[i]));
            }
            out.push('\n');
        }
        out.push_str("\nmessage sizes (words):\n");
        for (b, &count) in self.sizes.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let range = if b == 0 {
                "0..=1".to_string()
            } else {
                format!("{}..={}", 1u64 << b, (1u64 << (b + 1)) - 1)
            };
            out.push_str(&format!("  [{range}] {count}\n"));
        }
        if let Some(fc) = &self.faults {
            out.push_str(&format!("\nfaults injected: {fc}\n"));
        }
        if let Some(e) = &self.error {
            out.push_str(&format!("\nrun FAILED: {e}\n"));
        }
        out
    }
}

impl TraceSink for TraceSummary {
    fn record(&mut self, event: TraceEvent) {
        self.observe(&event);
    }
}

/// One entry of a run's phase schedule (see [`ScheduledSink`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseMark {
    /// The named span opens, closing the open one first.
    Enter(String),
    /// The open span closes.
    Exit,
}

/// Adds a run's phase spans to the stream of the sink it wraps.
///
/// A distributed construction runs on a global timetable, so its phase
/// spans depend only on the round: the driver builds one schedule of
/// `(round, mark)` entries from its configuration, sorted by round. Before
/// forwarding `Round { round: r, .. }` the adapter emits every pending
/// entry with a round `≤ r`, and before the first `Faults` or `RunEnd`
/// event it closes the span still open at the last round. So a scheduled
/// span appears even in rounds where no node runs.
///
/// ```
/// use spanner_graph::generators;
/// use spanner_netsim::{
///     patterns::FloodProtocol, MessageBudget, Network, PhaseMark, ScheduledSink, TraceSummary,
/// };
///
/// let g = generators::path(8);
/// let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
/// let mut summary = TraceSummary::new();
/// let mut sink = ScheduledSink::new(&mut summary, || {
///     vec![(0, PhaseMark::Enter("flood".into())), (4, PhaseMark::Exit)]
/// });
/// net.run_traced(|v, _| FloodProtocol::new(v.0 == 0, 8), 64, &mut sink)
///     .expect("flood terminates");
/// let flood = &summary.phases()[0];
/// assert_eq!((flood.name.as_str(), flood.first_round, flood.last_round), ("flood", 0, 3));
/// ```
pub struct ScheduledSink<'s> {
    sink: &'s mut dyn TraceSink,
    schedule: std::iter::Peekable<std::vec::IntoIter<(u32, PhaseMark)>>,
    open: Option<String>,
    /// The round of the last entry or `Round` record passed on.
    round: u32,
}

impl<'s> ScheduledSink<'s> {
    /// Wraps `sink`. `schedule` is called only if `sink` is enabled, so an
    /// untraced run builds no phase names.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is not sorted by round.
    pub fn new(
        sink: &'s mut dyn TraceSink,
        schedule: impl FnOnce() -> Vec<(u32, PhaseMark)>,
    ) -> Self {
        let schedule = if sink.enabled() {
            schedule()
        } else {
            Vec::new()
        };
        assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "a phase schedule must be sorted by round"
        );
        ScheduledSink {
            sink,
            schedule: schedule.into_iter().peekable(),
            open: None,
            round: 0,
        }
    }

    /// Closes the open span, if any, at the current round.
    fn close(&mut self) {
        if let Some(name) = self.open.take() {
            self.sink.record(TraceEvent::PhaseExit {
                round: self.round,
                name,
            });
        }
    }
}

impl TraceSink for ScheduledSink<'_> {
    fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    fn record(&mut self, event: TraceEvent) {
        match &event {
            TraceEvent::Round { round, .. } => {
                while let Some((at, mark)) = self.schedule.next_if(|(at, _)| at <= round) {
                    self.round = at;
                    self.close();
                    if let PhaseMark::Enter(name) = mark {
                        self.sink.record(TraceEvent::PhaseEnter {
                            round: at,
                            name: name.clone(),
                        });
                        self.open = Some(name);
                    }
                }
                self.round = *round;
            }
            TraceEvent::Faults { .. } | TraceEvent::RunEnd { .. } => self.close(),
            _ => {}
        }
        self.sink.record(event);
    }
}

/// The executors' shared tracing state machine.
///
/// Every executor drives it through the same call sequence — per round:
/// `begin_round`, then per node in global sender order
/// `on_outbox`/`on_messages`, then `end_round`; and `finish` exactly once —
/// which is what makes the trace streams identical.
pub(crate) struct Tracer<'s> {
    sink: &'s mut dyn TraceSink,
    enabled: bool,
    round: u32,
    in_round: bool,
    messages: u64,
    words: u64,
    active: u32,
    sizes: [u64; SIZE_BUCKETS],
}

impl<'s> Tracer<'s> {
    pub fn new(sink: &'s mut dyn TraceSink) -> Self {
        let enabled = sink.enabled();
        Tracer {
            sink,
            enabled,
            round: 0,
            in_round: false,
            messages: 0,
            words: 0,
            active: 0,
            sizes: [0; SIZE_BUCKETS],
        }
    }

    /// Whether events are being collected.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Marks `round` as executing; its costs accumulate until `end_round`.
    pub fn begin_round(&mut self, round: u32) {
        if !self.enabled {
            return;
        }
        self.round = round;
        self.in_round = true;
    }

    /// Counts a node's flushed outbox toward the active-sender count.
    #[inline]
    pub fn on_outbox(&mut self, len: usize) {
        if self.enabled && len > 0 {
            self.active += 1;
        }
    }

    /// Counts `count` accepted messages of `words` words each — one send,
    /// or a whole broadcast in O(1).
    #[inline]
    pub fn on_messages(&mut self, count: usize, words: usize) {
        if self.enabled {
            self.messages += count as u64;
            self.words += (count * words) as u64;
            self.sizes[size_bucket(words)] += count as u64;
        }
    }

    /// Records one [`TraceEvent::Deliver`] — called by the event-driven
    /// executor between rounds, in `(time, sender, seq)` event order.
    pub fn on_deliver(&mut self, time: u64, round: u32, from: u32, to: u32, words: u64) {
        if self.enabled {
            self.sink.record(TraceEvent::Deliver {
                time,
                round,
                from,
                to,
                words,
            });
        }
    }

    /// Emits the `Round` record for the executing round and resets the
    /// per-round scratch.
    pub fn end_round(&mut self) {
        if !self.enabled || !self.in_round {
            return;
        }
        let mut sizes: Vec<u64> = self.sizes.to_vec();
        while sizes.last() == Some(&0) {
            sizes.pop();
        }
        self.sink.record(TraceEvent::Round {
            round: self.round,
            messages: self.messages,
            words: self.words,
            active: self.active,
            sizes,
        });
        self.in_round = false;
        self.messages = 0;
        self.words = 0;
        self.active = 0;
        self.sizes = [0; SIZE_BUCKETS];
    }

    /// Closes the stream: flushes a partial round (error paths) and emits
    /// `Faults` (if any were injected) and `RunEnd` with the final metrics.
    pub fn finish(&mut self, metrics: &RunMetrics, error: Option<&RunError>) {
        if !self.enabled {
            return;
        }
        // A run that failed mid-round still reports the partial round —
        // its accepted messages are in the metrics, so they must be in the
        // trace (same invariant as metrics retention on failed runs).
        self.end_round();
        if !metrics.faults.is_empty() {
            let f = metrics.faults;
            self.sink.record(TraceEvent::Faults {
                dropped: f.dropped,
                duplicated: f.duplicated,
                delayed: f.delayed,
                dead_letters: f.dead_letters,
                crashes: f.crashes,
                stutters: f.stutters,
            });
        }
        self.sink.record(TraceEvent::RunEnd {
            rounds: metrics.rounds,
            messages: metrics.messages,
            words: metrics.words,
            max_message_words: metrics.max_message_words as u64,
            error: error.map(|e| e.to_string()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseEnter {
                round: 1,
                name: "expand[00]".into(),
            },
            TraceEvent::Round {
                round: 1,
                messages: 10,
                words: 30,
                active: 5,
                sizes: vec![2, 0, 8],
            },
            TraceEvent::Round {
                round: 2,
                messages: 4,
                words: 4,
                active: 4,
                sizes: vec![4],
            },
            TraceEvent::PhaseExit {
                round: 3,
                name: "expand[00]".into(),
            },
            TraceEvent::PhaseEnter {
                round: 3,
                name: "kill \"q\"\\phase".into(),
            },
            TraceEvent::Round {
                round: 3,
                messages: 0,
                words: 0,
                active: 0,
                sizes: vec![],
            },
            TraceEvent::PhaseExit {
                round: 3,
                name: "kill \"q\"\\phase".into(),
            },
            TraceEvent::Deliver {
                time: 17,
                round: 3,
                from: 4,
                to: 9,
                words: 2,
            },
            TraceEvent::Faults {
                dropped: 2,
                duplicated: 1,
                delayed: 3,
                dead_letters: 0,
                crashes: 1,
                stutters: 4,
            },
            TraceEvent::RunEnd {
                rounds: 3,
                messages: 14,
                words: 34,
                max_message_words: 7,
                error: None,
            },
        ]
    }

    #[test]
    fn json_round_trip() {
        for ev in sample_events() {
            let line = ev.to_json_line();
            let back = TraceEvent::from_json_line(&line);
            assert_eq!(back.as_ref(), Some(&ev), "line {line}");
        }
        let err = TraceEvent::RunEnd {
            rounds: 1,
            messages: 2,
            words: 3,
            max_message_words: 4,
            error: Some("message of 9 words exceeds budget".into()),
        };
        assert_eq!(TraceEvent::from_json_line(&err.to_json_line()), Some(err));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert_eq!(TraceEvent::from_json_line(""), None);
        assert_eq!(TraceEvent::from_json_line("not json"), None);
        assert_eq!(TraceEvent::from_json_line("{\"ev\":\"unknown\"}"), None);
        assert_eq!(TraceEvent::from_json_line("{\"ev\":\"round\"}"), None);
    }

    #[test]
    fn size_buckets() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 0);
        assert_eq!(size_bucket(2), 1);
        assert_eq!(size_bucket(4), 2);
        assert_eq!(size_bucket(7), 2);
        assert_eq!(size_bucket(1 << 20), 20);
        assert_eq!(size_bucket(usize::MAX), SIZE_BUCKETS - 1);
    }

    #[test]
    fn null_sink_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn summary_aggregates_phases() {
        let events = sample_events();
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.total_rounds(), 3);
        assert_eq!(s.total_messages(), 14);
        assert_eq!(s.total_words(), 34);
        assert!(s.is_complete());
        assert!(s.error().is_none());
        assert_eq!(s.phases().len(), 2);
        assert_eq!(s.phases()[0].name, "expand[00]");
        assert_eq!(s.phases()[0].rounds, 2);
        assert_eq!(s.phases()[0].messages, 14);
        assert_eq!(s.phases()[1].rounds, 1);
        assert_eq!(s.untracked(), None);
        assert_eq!(s.total_deliveries(), 1);
        let fc = s.fault_counters().expect("faults event observed");
        assert_eq!(fc.dropped, 2);
        assert_eq!(fc.stutters, 4);
        // Phase rounds sum to the total.
        let sum: u32 = s.phases().iter().map(|p| p.rounds).sum();
        assert_eq!(sum, s.total_rounds());
        assert_eq!(s.size_histogram(), &[6, 0, 8]);
        let rendered = s.render();
        assert!(rendered.contains("expand[00]"));
        assert!(rendered.contains("TOTAL"));
    }

    #[test]
    fn summary_untracked_bucket() {
        let events = vec![
            TraceEvent::Round {
                round: 0,
                messages: 3,
                words: 3,
                active: 3,
                sizes: vec![3],
            },
            TraceEvent::Round {
                round: 1,
                messages: 1,
                words: 2,
                active: 1,
                sizes: vec![0, 1],
            },
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.total_rounds(), 1); // init round 0 is not an executed round
        assert_eq!(s.total_messages(), 4);
        let u = s.untracked().expect("untracked bucket");
        assert_eq!(u.rounds, 1);
        assert_eq!(u.messages, 4);
        assert!(!s.is_complete());
    }

    fn round(round: u32) -> TraceEvent {
        TraceEvent::Round {
            round,
            messages: 0,
            words: 0,
            active: 0,
            sizes: vec![],
        }
    }

    fn enter(round: u32, name: &str) -> TraceEvent {
        TraceEvent::PhaseEnter {
            round,
            name: name.into(),
        }
    }

    fn exit(round: u32, name: &str) -> TraceEvent {
        TraceEvent::PhaseExit {
            round,
            name: name.into(),
        }
    }

    /// Spans follow each other without overlap: a scheduled entry comes
    /// before its round's record, an `Enter` closes the open span first,
    /// an `Exit` leaves rounds outside any span, and the span open at the
    /// end closes at the last round before `Faults` and `RunEnd`.
    #[test]
    fn scheduled_sink_emits_spans_around_round_records() {
        let mut kept: Vec<TraceEvent> = Vec::new();
        let mut sink = ScheduledSink::new(&mut kept, || {
            vec![
                (1, PhaseMark::Enter("a".into())),
                (2, PhaseMark::Enter("b".into())),
                (3, PhaseMark::Exit),
                (5, PhaseMark::Enter("c".into())),
                (9, PhaseMark::Enter("never".into())),
            ]
        });
        for r in 0..=6 {
            sink.record(round(r));
        }
        let (faults, end) = (sample_events()[8].clone(), sample_events()[9].clone());
        sink.record(faults.clone());
        sink.record(end.clone());
        let expect = vec![
            round(0),
            enter(1, "a"),
            round(1),
            exit(2, "a"),
            enter(2, "b"),
            round(2),
            exit(3, "b"),
            round(3),
            round(4),
            enter(5, "c"),
            round(5),
            round(6),
            exit(6, "c"),
            faults,
            end,
        ];
        assert_eq!(kept, expect);
    }

    #[test]
    fn scheduled_sink_builds_nothing_when_disabled() {
        let mut null = NullSink;
        let sink = ScheduledSink::new(&mut null, || unreachable!("schedule built while untraced"));
        assert!(!sink.enabled());
    }

    #[test]
    #[should_panic(expected = "sorted by round")]
    fn scheduled_sink_rejects_unsorted_schedules() {
        let mut kept: Vec<TraceEvent> = Vec::new();
        ScheduledSink::new(&mut kept, || {
            vec![(2, PhaseMark::Exit), (1, PhaseMark::Exit)]
        });
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut sink = JsonLinesSink::new(Vec::new());
        for ev in sample_events() {
            sink.record(ev);
        }
        assert!(sink.io_error().is_none());
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<TraceEvent> = text
            .lines()
            .filter_map(TraceEvent::from_json_line)
            .collect();
        assert_eq!(parsed, sample_events());
    }
}
