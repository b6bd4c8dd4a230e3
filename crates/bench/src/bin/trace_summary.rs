//! Summarizes JSON-lines round traces produced with `--trace-out`.
//!
//! Every experiment binary that simulates a distributed protocol accepts
//! `--trace-out <path>.jsonl` and writes one event stream per traced run
//! (see EXPERIMENTS.md for the schema). This tool folds those streams back
//! into per-phase cost tables: rounds, messages, and words per protocol
//! phase, plus the message-size histogram in power-of-two word buckets.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p spanner-bench --bin trace_summary -- results/runs.skeleton.jsonl
//! cargo run --release -p spanner-bench --bin trace_summary            # all results/*.jsonl
//! ```
//!
//! Exits non-zero if a file cannot be read or contains no valid events.

use std::path::PathBuf;
use std::process::ExitCode;

use spanner_netsim::{TraceEvent, TraceSummary};

fn main() -> ExitCode {
    let mut files: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    // It takes trace paths only: anything flag-shaped is a mistake.
    if let Some(flag) = files.iter().find(|f| f.to_string_lossy().starts_with('-')) {
        eprintln!("trace_summary: unknown argument {flag:?} (it takes trace files only)");
        return ExitCode::FAILURE;
    }
    if files.is_empty() {
        files = match std::fs::read_dir("results") {
            Ok(dir) => {
                let mut v: Vec<PathBuf> = dir
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
                    .collect();
                v.sort();
                v
            }
            Err(e) => {
                eprintln!("trace_summary: no files given and cannot read results/: {e}");
                return ExitCode::FAILURE;
            }
        };
        if files.is_empty() {
            eprintln!(
                "trace_summary: no *.jsonl files in results/; run an experiment with \
                 --trace-out first (see EXPERIMENTS.md)"
            );
            return ExitCode::FAILURE;
        }
    }

    let mut failed = false;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trace_summary: {}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        let mut summary = TraceSummary::new();
        let mut parsed = 0usize;
        let mut bad = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match TraceEvent::from_json_line(line) {
                Some(ev) => {
                    summary.observe(&ev);
                    parsed += 1;
                }
                None => bad += 1,
            }
        }
        if bad > 0 {
            eprintln!("trace_summary: {}: {bad} malformed line(s)", path.display());
        }
        if parsed == 0 {
            eprintln!("trace_summary: {}: no trace events", path.display());
            failed = true;
            continue;
        }
        println!("== {} ({parsed} events) ==", path.display());
        if !summary.is_complete() {
            println!("(truncated stream: no run_end record)");
        }
        print!("{}", summary.render());
        println!();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
