//! Experiment harness: regenerates every table and figure of the paper.
//!
//! One binary per experiment (see EXPERIMENTS.md for the index); this
//! library holds the shared pieces: a markdown table printer, the standard
//! workloads, wall-clock timing, the flag parsers, the size tier
//! ([`Scale`]) every binary and bench reads, and the one `--json` artifact
//! writer ([`write_json`]), which writes a [`report::Json`] value whose
//! timings come from [`report::sample`]. Every flag reader records the
//! flag it asks for; once a binary has read its flags,
//! [`deny_unknown_args`] fails the run on any argument none of them asked
//! for.
//!
//! Run an experiment with e.g.
//!
//! ```text
//! cargo run --release -p spanner-bench --bin fig1_table
//! cargo run --release -p spanner-bench --bin exp_skeleton_size -- --scale quick
//! ```

use std::fmt::Display;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Mutex;
use std::time::Instant;

use spanner_graph::Graph;
use spanner_netsim::{Executor, FaultPlan, JsonLinesSink, NullSink, TraceSink};

pub mod report;

/// The size tier of an experiment or bench run, read once from the
/// command line by [`Scale::from_args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// Pinned seconds-scale instances: the goldens and the CI smoke runs.
    Tiny,
    /// Smaller instances for a quick look.
    Quick,
    /// The default: the scale of the paper's experiments.
    Full,
    /// n ≥ 2²⁰ instances built through the streaming CSR generators
    /// (EXPERIMENTS.md, "Million-node runs"); excluded from CI.
    Huge,
}

impl Scale {
    /// Every tier, smallest first.
    pub const ALL: [Scale; 4] = [Scale::Tiny, Scale::Quick, Scale::Full, Scale::Huge];

    /// The tier's name, as `--scale` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
            Scale::Huge => "huge",
        }
    }

    /// The tier the process arguments ask for: `--tiny`, `--quick`,
    /// `--scale <tier>` or `--scale=<tier>`, and [`Scale::Full`] without
    /// any of them. If several are given the smallest wins, so `--tiny`
    /// beats `--quick`. `tiers` are the tiers the caller has.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tier or one missing from `tiers`, naming
    /// `tiers`: experiments fail loudly rather than silently run another
    /// scale than the one asked for.
    pub fn from_args(tiers: &[Scale]) -> Scale {
        asked("--scale", true);
        asked("--tiny", false);
        asked("--quick", false);
        Scale::parse(&std::env::args().collect::<Vec<_>>(), tiers)
    }

    fn parse(args: &[String], tiers: &[Scale]) -> Scale {
        let names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
        let names = names.join(", ");
        let named = flag_value(args, "--scale").map(|v| {
            Scale::ALL
                .into_iter()
                .find(|t| t.name() == v)
                .unwrap_or_else(|| panic!("unknown --scale tier {v:?} (tiers here: {names})"))
        });
        let flag = |f: &str, tier| args.iter().any(|a| a == f).then_some(tier);
        let scale = [
            flag("--tiny", Scale::Tiny),
            flag("--quick", Scale::Quick),
            named,
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(Scale::Full);
        assert!(
            tiers.contains(&scale),
            "no {} tier here (tiers here: {names})",
            scale.name()
        );
        scale
    }
}

/// The `--faults <spec>` argument parsed into a [`FaultPlan`]. Accepts both
/// `--faults drop=0.05,seed=7` and `--faults=drop=0.05,seed=7`; the spec
/// grammar is [`FaultPlan::parse_spec`]'s (see EXPERIMENTS.md).
///
/// # Panics
///
/// Panics with the parser's message on a malformed spec — experiments fail
/// loudly rather than run a different schedule than the one asked for.
pub fn fault_plan_arg() -> Option<FaultPlan> {
    let spec = arg_value("--faults")?;
    Some(FaultPlan::parse_spec(&spec).unwrap_or_else(|e| panic!("bad --faults spec: {e}")))
}

/// The `--threads N` argument (also `--threads=N`), defaulting to 1.
///
/// Experiments feed this to the distance engine: the worker count of
/// `PairSample::new` and of `Spanner::stretch`'s pair walk, and (in
/// `exp_skeleton_size`) the executor through [`executor_for`]. Results
/// are identical at every thread count, so the flag only changes
/// wall-clock time.
///
/// # Panics
///
/// Panics on a malformed or zero count — experiments fail loudly rather
/// than silently run single-threaded.
pub fn threads_arg() -> usize {
    let n = parsed_arg("--threads").unwrap_or(1);
    assert!(n >= 1, "--threads must be at least 1");
    n
}

/// The `name value` or `name=value` argument parsed as a `T`, if the flag
/// is present.
///
/// # Panics
///
/// Panics on a missing value, as [`trace_out_arg`] does, or one that does not
/// parse as a `T`.
pub fn parsed_arg<T: FromStr>(name: &str) -> Option<T>
where
    T::Err: Display,
{
    let spec = arg_value(name)?;
    Some(
        spec.parse()
            .unwrap_or_else(|e| panic!("bad {name} value {spec:?}: {e}")),
    )
}

/// The construction executor for a `--threads` count: one thread is the
/// sequential executor, more are the parallel one. Both build the same
/// spanner with the same metrics.
pub fn executor_for(threads: usize) -> Executor {
    if threads > 1 {
        Executor::Parallel { threads }
    } else {
        Executor::Sequential
    }
}

/// The `--trace-out <path>` argument, if present. Accepts both
/// `--trace-out runs.jsonl` and `--trace-out=runs.jsonl`.
///
/// # Panics
///
/// Panics on a `--trace-out` without a path — a trailing flag, or one
/// followed by another flag — instead of silently tracing nothing or
/// writing to a file named after the next flag.
pub fn trace_out_arg() -> Option<PathBuf> {
    arg_value("--trace-out").map(PathBuf::from)
}

/// The `--json <path>` argument (also `--json=path`), if present, for
/// binaries that write a machine-readable artifact. Read it before the
/// run, so a bad flag fails before the work; write with [`write_json`].
///
/// # Panics
///
/// Panics on a `--json` without a path, as [`trace_out_arg`] does.
pub fn json_out_arg() -> Option<PathBuf> {
    arg_value("--json").map(PathBuf::from)
}

/// Writes a binary's artifact to `path`, the [`json_out_arg`] of the
/// run, and prints where; without `--json` it writes no file.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_json(path: Option<&Path>, json: &report::Json) {
    if let Some(path) = path {
        std::fs::write(path, json.render())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// Whether the switch `name` (a flag without a value, e.g. `--verify`)
/// is among the process arguments.
pub fn switch_arg(name: &str) -> bool {
    asked(name, false);
    std::env::args().any(|a| a == name)
}

/// [`flag_value`] over the process arguments.
fn arg_value(name: &str) -> Option<String> {
    asked(name, true);
    flag_value(&std::env::args().collect::<Vec<_>>(), name)
}

/// The flags this process's readers have asked for, each with whether it
/// takes a value.
static ASKED: Mutex<Vec<(String, bool)>> = Mutex::new(Vec::new());

fn asked(name: &str, takes_value: bool) {
    let mut asked = ASKED.lock().unwrap_or_else(|e| e.into_inner());
    asked.push((name.to_owned(), takes_value));
}

/// Fails the run on any process argument that none of the flag readers
/// called so far has asked for. A binary calls it once it has read all of
/// its flags, before any workload runs, so a misspelt flag stops the run
/// instead of leaving it at the default.
///
/// # Panics
///
/// Panics naming the first unknown argument and the flags the binary
/// reads.
pub fn deny_unknown_args() {
    let asked = ASKED.lock().unwrap_or_else(|e| e.into_inner());
    let args: Vec<String> = std::env::args().collect();
    if let Some(arg) = unknown_arg(&args, &asked) {
        let names: Vec<&str> = asked.iter().map(|(f, _)| f.as_str()).collect();
        panic!(
            "unknown argument {arg:?} (flags here: {})",
            names.join(", ")
        );
    }
}

/// The first of `args` (after the program name) that is neither one of
/// the `asked` flags, in `name`, `name value` or `name=value` form as the
/// flag takes, nor the value of such a flag.
fn unknown_arg<'a>(args: &'a [String], asked: &[(String, bool)]) -> Option<&'a str> {
    let mut args = args.iter().skip(1);
    while let Some(arg) = args.next() {
        let (name, joined) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg.as_str(), false),
        };
        match asked.iter().find(|(f, _)| f == name) {
            Some((_, true)) if !joined => {
                args.next();
            }
            Some(&(_, takes_value)) if takes_value == joined => {}
            _ => return Some(arg),
        }
    }
    None
}

/// The value of the first `name value` or `name=value` in `args`, if the
/// flag is present.
///
/// # Panics
///
/// Panics if the flag has no value, or if its value starts with `--` and
/// so is really the next flag: experiments fail loudly rather than run
/// something other than what was asked for.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    let mut args = args.iter().map(String::as_str);
    while let Some(a) = args.next() {
        let value = if a == name {
            args.next()
        } else if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            Some(v)
        } else {
            continue;
        };
        return match value {
            Some(v) if !v.is_empty() && !v.starts_with("--") => Some(v.to_owned()),
            _ => panic!("{name} needs a value, got {value:?}"),
        };
    }
    None
}

/// Round-level trace output for an experiment binary, driven by the
/// `--trace-out <path>.jsonl` flag.
///
/// Experiments run many simulated protocols; each traced run gets its own
/// JSON-lines file so every file holds exactly one event stream ending in a
/// single `run_end` record (the format `trace_summary` consumes). The file
/// for the run labeled `L` is `<stem>.<L>.jsonl` next to the requested
/// path. Without the flag every sink is a no-op [`NullSink`] and tracing
/// cost is zero.
#[derive(Debug, Clone, Default)]
pub struct TraceOutput {
    base: Option<PathBuf>,
}

impl TraceOutput {
    /// Reads `--trace-out` from the process arguments.
    pub fn from_args() -> Self {
        TraceOutput {
            base: trace_out_arg(),
        }
    }

    /// Whether `--trace-out` was passed.
    pub fn enabled(&self) -> bool {
        self.base.is_some()
    }

    /// Opens the trace destination for the run labeled `label`
    /// (disabled when `--trace-out` is absent).
    ///
    /// # Panics
    ///
    /// Panics if the trace file cannot be created — experiments should
    /// fail loudly rather than silently drop requested output.
    pub fn open(&self, label: &str) -> RunTrace {
        let Some(base) = &self.base else {
            return RunTrace {
                inner: None,
                null: NullSink,
            };
        };
        let path = labeled_path(base, label);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create trace dir {}: {e}", dir.display()));
        }
        let sink = JsonLinesSink::create(&path)
            .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
        RunTrace {
            inner: Some((path, sink)),
            null: NullSink,
        }
    }
}

/// Inserts `label` before the extension: `runs.jsonl` + `skeleton` →
/// `runs.skeleton.jsonl`. A path without an extension gets `.jsonl`.
fn labeled_path(base: &Path, label: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
    base.with_file_name(format!("{stem}.{label}.{ext}"))
}

/// One run's trace destination: a JSON-lines file, or a no-op when
/// `--trace-out` was not passed. Hand [`RunTrace::sink`] to a
/// `build_distributed` driver, then call [`RunTrace::finish`].
#[derive(Debug)]
pub struct RunTrace {
    inner: Option<(PathBuf, JsonLinesSink<BufWriter<File>>)>,
    null: NullSink,
}

impl RunTrace {
    /// The sink to stream this run's events into.
    pub fn sink(&mut self) -> &mut dyn TraceSink {
        match &mut self.inner {
            Some((_, sink)) => sink,
            None => &mut self.null,
        }
    }

    /// Flushes the file and prints where it was written.
    ///
    /// # Panics
    ///
    /// Panics if the file could not be written in full.
    pub fn finish(self) {
        if let Some((path, sink)) = self.inner {
            sink.finish()
                .unwrap_or_else(|e| panic!("writing trace file {}: {e}", path.display()));
            println!("  trace: wrote {}", path.display());
        }
    }
}

/// A simple aligned markdown table printer.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let mut width: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], width: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(width) {
                out.push(' ');
                out.push_str(c);
                out.push_str(&" ".repeat(w - c.len() + 1));
                out.push('|');
            }
            out.push('\n');
        };
        line(&self.header, &width, &mut out);
        out.push('|');
        for w in &width {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            line(row, &width, &mut out);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Times a closure, returning (result, seconds). The result passes
/// through `black_box`, so work whose result the caller drops is still
/// done.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// The standard random workload of the experiment suite: a connected
/// G(n, m) graph with m = `density` · n edges.
pub fn workload(n: usize, density: f64, seed: u64) -> Graph {
    let m = ((n as f64) * density) as usize;
    spanner_graph::generators::connected_gnm(n, m.max(n - 1), seed)
}

/// [`workload`] built straight into a [`spanner_graph::CsrAdjacency`]:
/// same sampler,
/// same seed, same edges — with no intermediate `Graph` materialization.
/// The `--scale huge` tiers run on this.
pub fn workload_csr(n: usize, density: f64, seed: u64) -> spanner_graph::CsrAdjacency {
    let m = ((n as f64) * density) as usize;
    spanner_graph::generators::connected_gnm_csr(n, m.max(n - 1), seed)
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`;
/// 0 where unavailable). The huge experiment tiers and the construction
/// bench report this next to their timings.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flag_value_reads_both_spellings() {
        let spaced = args(&["bin", "--tiny", "--trace-out", "runs.jsonl"]);
        let joined = args(&["bin", "--trace-out=runs.jsonl", "--tiny"]);
        for a in [&spaced, &joined] {
            assert_eq!(flag_value(a, "--trace-out").as_deref(), Some("runs.jsonl"));
            assert_eq!(flag_value(a, "--scale"), None);
        }
        // A longer flag sharing the prefix is a different flag.
        assert_eq!(
            flag_value(&args(&["bin", "--threadsx=3"]), "--threads"),
            None
        );
    }

    #[test]
    #[should_panic(expected = "--trace-out needs a value, got None")]
    fn flag_value_rejects_trailing_flag() {
        flag_value(&args(&["bin", "--tiny", "--trace-out"]), "--trace-out");
    }

    #[test]
    #[should_panic(expected = "--trace-out needs a value, got Some(\"--tiny\")")]
    fn flag_value_rejects_flag_as_value() {
        flag_value(&args(&["bin", "--trace-out", "--tiny"]), "--trace-out");
    }

    #[test]
    #[should_panic(expected = "--threads needs a value")]
    fn flag_value_rejects_empty_joined_value() {
        flag_value(&args(&["bin", "--threads="]), "--threads");
    }

    #[test]
    fn scale_reads_every_spelling() {
        assert_eq!(Scale::parse(&args(&["bin"]), &Scale::ALL), Scale::Full);
        assert_eq!(
            Scale::parse(&args(&["bin", "--tiny"]), &Scale::ALL),
            Scale::Tiny
        );
        assert_eq!(
            Scale::parse(&args(&["bin", "--quick"]), &Scale::ALL),
            Scale::Quick
        );
        for tier in Scale::ALL {
            let spaced = args(&["bin", "--scale", tier.name(), "--bench"]);
            let joined = args(&["bin", &format!("--scale={}", tier.name())]);
            assert_eq!(Scale::parse(&spaced, &Scale::ALL), tier);
            assert_eq!(Scale::parse(&joined, &Scale::ALL), tier);
        }
    }

    #[test]
    fn scale_tiny_beats_quick() {
        for list in [
            ["bin", "--tiny", "--quick"],
            ["bin", "--quick", "--tiny"],
            ["bin", "--quick", "--scale=tiny"],
        ] {
            assert_eq!(
                Scale::parse(&args(&list), &Scale::ALL),
                Scale::Tiny,
                "{list:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown --scale tier \"bogus\" (tiers here: tiny, full)")]
    fn scale_rejects_unknown_tier() {
        Scale::parse(
            &args(&["bin", "--scale", "bogus"]),
            &[Scale::Tiny, Scale::Full],
        );
    }

    #[test]
    #[should_panic(expected = "no tiny tier here (tiers here: quick, full)")]
    fn scale_rejects_missing_tier() {
        Scale::parse(&args(&["bin", "--tiny"]), &[Scale::Quick, Scale::Full]);
    }

    #[test]
    #[should_panic(expected = "no huge tier here (tiers here: tiny, quick, full)")]
    fn scale_rejects_missing_named_tier() {
        let tiers = [Scale::Tiny, Scale::Quick, Scale::Full];
        Scale::parse(&args(&["bin", "--scale", "huge"]), &tiers);
    }

    #[test]
    fn unknown_arg_names_the_first_flag_no_reader_asked_for() {
        let asked: Vec<(String, bool)> = [("--scale", true), ("--tiny", false), ("--json", true)]
            .map(|(f, v)| (f.to_owned(), v))
            .to_vec();
        let known = args(&["bin", "--tiny", "--scale", "quick", "--json=a.json"]);
        assert_eq!(unknown_arg(&known, &asked), None);
        // A value flag's value is skipped, not read as an argument.
        assert_eq!(unknown_arg(&args(&["bin", "--json", "x"]), &asked), None);
        for (list, bad) in [
            (&["bin", "--scael", "tiny"][..], "--scael"),
            (&["bin", "--tiny", "--threads", "2"], "--threads"),
            (&["bin", "--tiny=1"], "--tiny=1"),
            (&["bin", "tiny"], "tiny"),
            (&["bin", "--scale", "tiny", "extra"], "extra"),
        ] {
            assert_eq!(unknown_arg(&args(list), &asked), Some(bad), "{list:?}");
        }
    }

    #[test]
    fn table_render_aligned() {
        let mut t = Table::new(["a", "long header", "x"]);
        t.row(["1", "2", "3"]);
        t.row(["wide cell", "4", "5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal length (aligned).
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("| long header |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn workload_connected() {
        let g = workload(200, 3.0, 1);
        assert_eq!(g.node_count(), 200);
        assert!(g.edge_count() >= 199);
        assert!(spanner_graph::components::is_connected(&g));
    }

    #[test]
    fn timing_positive() {
        let (v, secs) = timed(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(secs >= 0.0);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2344), "1.234");
    }
}
