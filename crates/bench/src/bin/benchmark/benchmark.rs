//! The repository benchmark: end-to-end and per-layer metrics of the
//! distributed constructions and of the query server, one workload per
//! process.
//!
//! ```text
//! benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <path>]
//! ```
//!
//! The report table, host facts and provenance go to stdout (and to
//! `--out` when given); the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of `report::END_TO_END` untraced, the per-layer metrics of
//! `report::PER_LAYER` with `--trace 1`. A failed output check exits 1
//! after the JSON line; a failure that leaves nothing to measure exits 1
//! without it. See README.md beside this file for the metrics and the
//! workloads.

mod clock;
mod construction;
mod host;
mod probe;
mod report;
mod serving;

use std::process::ExitCode;
use std::time::Duration;

use construction::{Algo, Construction};
use report::{Report, Tally, END_TO_END, PER_LAYER};
use serving::{Mode, Serving};

/// What one run measures and how.
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    pub trace: bool,
}

enum Workload {
    Construction(Construction),
    Serving(Serving),
}

impl Workload {
    /// Whether the run keeps two CPUs busy: only a traced skeleton run,
    /// which times the parallel executor. Everywhere else one thread
    /// computes at a time (the serve client and server take turns).
    fn uses_two_cpus(&self, trace: bool) -> bool {
        trace
            && matches!(
                self,
                Workload::Construction(Construction {
                    algo: Algo::Skeleton,
                    ..
                })
            )
    }
}

/// The workloads, by name. The sizes give dozens to hundreds of driver
/// calls of 0.05 to 0.3 s, or hundreds of thousands of requests, per window
/// and a few seconds of set-up: calls that short follow the host probe
/// closely (see `probe`). Both constructions run on the same graphs.
fn workload(name: &str) -> Option<Workload> {
    use Workload::{Construction as C, Serving as S};
    let construction = |algo| Construction {
        log2_n: 14,
        edges_per_node: 4,
        algo,
    };
    Some(match name {
        "skeleton_er14" => C(construction(Algo::Skeleton)),
        "bs_logn_er14" => C(construction(Algo::BaswanaSen)),
        "serve_batch_zipf" => S(Serving {
            log2_n: 14,
            edges_per_node: 4,
            mode: Mode::Batch,
            attribution_requests: 1 << 14,
        }),
        "serve_line_restart" => S(Serving {
            log2_n: 14,
            edges_per_node: 4,
            mode: Mode::Line,
            attribution_requests: 1 << 17,
        }),
        _ => return None,
    })
}

const WORKLOADS: &[&str] = &[
    "skeleton_er14",
    "bs_logn_er14",
    "serve_batch_zipf",
    "serve_line_restart",
];

struct Args {
    workload: String,
    opts: RunOpts,
    out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut out = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                opts.seconds = Duration::from_secs(s);
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        opts,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
                 [--out <path>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "benchmark: unknown workload {}; one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let opts = &args.opts;

    let mut text = format!(
        "benchmark workload={} seed={} seconds={} trace={}\n",
        args.workload,
        opts.seed,
        opts.seconds.as_secs(),
        u8::from(opts.trace)
    );
    let fact = |v: Option<usize>| v.map_or("unknown".to_string(), |n| n.to_string());
    text += &format!(
        "host nproc={} available_parallelism={} git={}\n",
        fact(host::allowed_cpus().map(|c| c.len())),
        fact(std::thread::available_parallelism().ok().map(|n| n.get())),
        host::git_head().unwrap_or_else(|| "none".to_string())
    );
    // A process that keeps at most one CPU busy runs on one: on a VM, a
    // wakeup across virtual CPUs costs more than a serve request, and
    // where the scheduler put the client and server thread decided
    // whether p50 came out near 8 or near 20 microseconds.
    if !w.uses_two_cpus(opts.trace) {
        match host::pin_to_one_cpu() {
            Ok(cpu) => text += &format!("pinned to cpu {cpu}\n"),
            Err(e) => text += &format!("not pinned: {e}\n"),
        }
    }
    text += &format!("input {}\n", describe(&w));
    print!("{text}");

    let mut report = Report::default();
    let mut tally = Tally::default();
    let outcome = match &w {
        Workload::Construction(c) => construction::run(c, opts, &mut report, &mut tally),
        Workload::Serving(s) => serving::run(s, opts, &mut report, &mut tally),
    };
    if let Err(e) = outcome {
        eprintln!("benchmark: {e}");
        return ExitCode::FAILURE;
    }
    report.add(
        "fail_frac",
        "ratio",
        tally.fail_frac(),
        tally.attempted as usize,
    );

    let listed = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut body = report.table(listed);
    for f in &tally.failures {
        body += &format!("FAILED {f}\n");
    }
    body += &report.json_line(listed, &tally, opts.trace);
    body.push('\n');
    print!("{body}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, text + &body) {
            eprintln!("benchmark: --out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn describe(w: &Workload) -> String {
    match w {
        Workload::Construction(c) => {
            let n = 1usize << c.log2_n;
            let algo = match c.algo {
                Algo::Skeleton => "Theorem 2 skeleton, sequential executor".to_string(),
                Algo::BaswanaSen => format!("Baswana-Sen k={}, sequential executor", c.log2_n),
            };
            format!("{algo} on connected_gnm(n={n}, m={})", c.edges_per_node * n)
        }
        Workload::Serving(s) => {
            let n = 1usize << s.log2_n;
            let mode = match s.mode {
                Mode::Batch => "BATCH 64 requests, 80% Zipf(0.99) endpoints, 20% ROUTE",
                Mode::Line => "single-line uniform DIST requests after SAVE and a restart",
            };
            format!(
                "serve_listener over connected_gnm(n={n}, m={}), k=2, one closed-loop TCP \
                 client, {mode}",
                s.edges_per_node * n
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn every_listed_workload_resolves() {
        for name in WORKLOADS {
            assert!(workload(name).is_some(), "{name}");
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn arguments_are_parsed_and_checked() {
        let a = args("--workload bs_logn_er14 --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, "bs_logn_er14");
        assert_eq!(
            (a.opts.seed, a.opts.seconds.as_secs(), a.opts.trace),
            (7, 3, true)
        );
        assert!(args("--workload x --trace yes").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }
}
