//! Golden-file regression tests for the experiment binaries.
//!
//! `fig1_table` and `exp_skeleton_size` run at the pinned `--tiny`
//! configuration; their stdout — with the wall-clock `secs` column
//! normalized to `#.##` — must match the snapshots under
//! `results/golden/`, and so must the JSONL traces `fig1_table
//! --trace-out` writes for its distributed rows, byte for byte. Every
//! number in those files is seeded and deterministic, so any drift is a
//! real behavior change.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p spanner-bench --test golden
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Runs an experiment binary and returns its stdout.
fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("experiment output is UTF-8")
}

/// Blanks the wall-clock `secs` column of every markdown table in `text`,
/// preserving alignment (the replacement is padded to the original cell
/// width). All other cells are seeded and deterministic.
fn normalize_secs(text: &str) -> String {
    // `secs` is always the trailing column, so operate on the last cell;
    // column-index bookkeeping would trip over header cells like `|S|/n`
    // that contain their own `|`.
    let mut in_secs_table = false;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let body = line.trim_end();
        if !body.starts_with('|') {
            in_secs_table = false;
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let last_cell = body
            .rfind('|')
            .and_then(|end| body[..end].rfind('|').map(|start| (start + 1, end)));
        match last_cell {
            Some((start, end)) => {
                let cell = &body[start..end];
                if cell.trim() == "secs" {
                    in_secs_table = true;
                    out.push_str(line);
                } else if in_secs_table && !cell.trim_start().starts_with('-') {
                    out.push_str(&body[..start]);
                    out.push_str(&format!(
                        " {:<width$}",
                        "#.##",
                        width = cell.len().saturating_sub(1)
                    ));
                    out.push('|');
                } else {
                    out.push_str(line);
                }
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[test]
fn normalizer_blanks_only_the_secs_column() {
    let table = "| |S|/n | secs |\n|-------|------|\n| 7.66  | 0.03 |\nprose 0.03\n";
    let norm = normalize_secs(table);
    assert!(norm.contains("| 7.66  | #.## |"), "{norm}");
    assert!(norm.contains("prose 0.03"), "{norm}");
    assert!(norm.contains("|-------|------|"), "{norm}");
}

/// Compares normalized output against `results/golden/<name>`, rewriting
/// the snapshot instead when `UPDATE_GOLDEN` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "..",
        "..",
        "results",
        "golden",
        name,
    ]
    .iter()
    .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create results/golden");
        std::fs::write(&path, actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden snapshot; if the change is intended, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fig1_table_tiny_matches_golden() {
    let out = run(env!("CARGO_BIN_EXE_fig1_table"), &["--tiny"]);
    assert_matches_golden("fig1_table.tiny.txt", &normalize_secs(&out));
}

/// The stretch columns are computed by the parallel distance engine, whose
/// results are thread-count-independent: the same golden snapshot must
/// hold verbatim when the table is produced with `--threads 4`.
#[test]
fn fig1_table_tiny_unchanged_by_threads() {
    let out = run(
        env!("CARGO_BIN_EXE_fig1_table"),
        &["--tiny", "--threads", "4"],
    );
    assert_matches_golden("fig1_table.tiny.txt", &normalize_secs(&out));
}

/// The labels `fig1_table` gives its traced runs, one JSONL file each.
const TRACED_RUNS: [&str; 5] = ["bfs", "bs-k2", "bs-klog", "skeleton", "fibonacci"];

/// The JSONL trace of every distributed Fig. 1 row is pinned byte for
/// byte — phase spans, per-round counts and size buckets — at one and two
/// threads.
#[test]
fn fig1_table_tiny_traces_match_golden() {
    for threads in ["1", "2"] {
        let dir = std::env::temp_dir().join(format!(
            "fig1-golden-trace-{}-t{threads}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create trace dir");
        let base = dir.join("fig1_table.tiny.jsonl");
        run(
            env!("CARGO_BIN_EXE_fig1_table"),
            &[
                "--tiny",
                "--threads",
                threads,
                "--trace-out",
                base.to_str().expect("utf-8 temp path"),
            ],
        );
        for label in TRACED_RUNS {
            let name = format!("fig1_table.tiny.{label}.jsonl");
            let trace = std::fs::read_to_string(dir.join(&name))
                .unwrap_or_else(|e| panic!("{name} not written at --threads {threads}: {e}"));
            assert_matches_golden(&name, &trace);
        }
        std::fs::remove_dir_all(&dir).expect("remove trace dir");
    }
}

#[test]
fn exp_skeleton_size_tiny_matches_golden() {
    let out = run(env!("CARGO_BIN_EXE_exp_skeleton_size"), &["--tiny"]);
    assert_matches_golden("exp_skeleton_size.tiny.txt", &normalize_secs(&out));
}

/// `--scale tiny` is a synonym for `--tiny`: the new flag must reproduce
/// the existing snapshots byte for byte — the huge tier rides in through
/// `--scale` without perturbing any pinned small-n column.
#[test]
fn scale_flag_tiny_matches_golden() {
    let out = run(env!("CARGO_BIN_EXE_fig1_table"), &["--scale", "tiny"]);
    assert_matches_golden("fig1_table.tiny.txt", &normalize_secs(&out));
    let out = run(env!("CARGO_BIN_EXE_exp_skeleton_size"), &["--scale=tiny"]);
    assert_matches_golden("exp_skeleton_size.tiny.txt", &normalize_secs(&out));
}

/// An unknown tier must fail loudly, not silently run the default scale.
#[test]
fn bad_scale_tier_fails_loudly() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig1_table"))
        .args(["--scale", "gigantic"])
        .output()
        .expect("spawn fig1_table");
    assert!(!out.status.success(), "unknown tier must not run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown --scale tier"), "{stderr}");
}

/// A tier the binary lacks must fail loudly, naming the tiers it has,
/// not silently run another scale: `exp_fib_size` has only quick and full.
#[test]
fn missing_tier_fails_loudly() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_fib_size"))
        .arg("--tiny")
        .output()
        .expect("spawn exp_fib_size");
    assert!(!out.status.success(), "a missing tier must not run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no tiny tier here (tiers here: quick, full)"),
        "{stderr}"
    );
}

/// Drops the `wrote <path>` artifact line: the JSON path is
/// machine-dependent (the table above it is what the snapshot pins).
fn strip_artifact_line(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("wrote "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The async experiment's table is fully deterministic — including the
/// simulated-time column, which the golden snapshot pins on purpose (the
/// event clock is seeded, thread-count-independent state, not wall time);
/// only the trailing `secs` column is normalized.
#[test]
fn exp_async_messages_tiny_matches_golden() {
    let json = std::env::temp_dir().join("BENCH_async.golden-test.json");
    let json = json.to_str().expect("utf-8 temp path");
    let out = run(
        env!("CARGO_BIN_EXE_exp_async_messages"),
        &["--tiny", "--json", json],
    );
    assert_matches_golden(
        "exp_async_messages.tiny.txt",
        &strip_artifact_line(&normalize_secs(&out)),
    );
    let artifact = std::fs::read_to_string(json).expect("JSON artifact written");
    assert!(artifact.contains("\"experiment\": \"exp_async_messages\""));
    assert!(artifact.contains("\"alpha\""));
    assert!(artifact.contains("\"skeleton\""));
}

/// Repeat invocations are byte-identical modulo wall time — the acceptance
/// criterion's determinism half, checked process-to-process.
#[test]
fn exp_async_messages_tiny_repeats_identically() {
    let json = std::env::temp_dir().join("BENCH_async.repeat-test.json");
    let json = json.to_str().expect("utf-8 temp path");
    let args = ["--tiny", "--json", json];
    let first = normalize_secs(&run(env!("CARGO_BIN_EXE_exp_async_messages"), &args));
    let second = normalize_secs(&run(env!("CARGO_BIN_EXE_exp_async_messages"), &args));
    assert_eq!(first, second, "repeat run drifted");
}

#[test]
fn faults_flag_runs_and_reports_counters() {
    let out = run(
        env!("CARGO_BIN_EXE_fig1_table"),
        &["--tiny", "--faults", "drop=0.05,seed=9"],
    );
    assert!(out.contains("fault injection active"), "{out}");
    assert!(out.contains("dropped="), "fault counters missing:\n{out}");
}

#[test]
fn faults_flag_accepts_crash_schedules() {
    let out = run(
        env!("CARGO_BIN_EXE_exp_skeleton_size"),
        &["--tiny", "--faults", "seed=3,drop=0.01,crash=0@2"],
    );
    assert!(out.contains("fault injection active"), "{out}");
}

#[test]
fn bad_faults_spec_fails_loudly() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig1_table"))
        .args(["--tiny", "--faults", "drop=nonsense"])
        .output()
        .expect("spawn fig1_table");
    assert!(!out.status.success(), "malformed spec must not run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --faults spec"), "{stderr}");
}
