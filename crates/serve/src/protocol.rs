//! Parsing and formatting for the spanner-serve wire protocol.
//!
//! The protocol is a line-oriented textual command language, fully
//! specified in `PROTOCOL.md` at the repository root. Every byte this
//! module produces is part of the documented wire contract: the worked
//! transcripts in `PROTOCOL.md` are replayed byte-for-byte against the
//! server by `tests/protocol_conformance.rs`, so a formatting change here
//! without a matching doc change is a test failure, not a silent drift.

use std::fmt;

use spanner_graph::distance::UNREACHABLE;
use spanner_graph::NodeId;

/// Maximum batch size accepted by `BATCH n`. Bounds the per-batch buffer
/// the server allocates, so a malformed header cannot request unbounded
/// memory.
pub const MAX_BATCH: u32 = 1 << 20;

/// Node cap of every `LOAD` spec: generated graphs have at most this many
/// vertices, and `file:` edge lists may name ids below it only.
pub const MAX_N: u32 = 1 << 24;

/// Edge cap of an `er` spec: m = 4n at the [`MAX_N`] node cap. The
/// generator allocates in proportion to `m`, so a larger request would
/// abort the server instead of failing the one line.
pub const MAX_M: u64 = 1 << 26;

/// A parsed client command — one request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `DIST u v` — approximate distance between two vertices.
    Dist(u32, u32),
    /// `ROUTE u v` — compact-routing path from `u` to `v`.
    Route(u32, u32),
    /// `BATCH n` — the next `n` lines are DIST/ROUTE sub-commands,
    /// executed as one batch fanned over the worker pool.
    Batch(u32),
    /// `STATS` — one-line counters snapshot.
    Stats,
    /// `LOAD <spec> [k=..] [seed=..] [routing=on|off]` — build the graph,
    /// oracle and (optionally) routing tables to serve from.
    Load(LoadRequest),
    /// `SAVE <path>` — persist the loaded graph and its parameters as a
    /// `spanner-store` snapshot directory at `path`.
    Save(String),
    /// `PING` — liveness check.
    Ping,
    /// `QUIT` — end the session.
    Quit,
}

/// Parameters of a `LOAD` command.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRequest {
    /// The graph to build.
    pub spec: GraphSpec,
    /// Oracle levels (stretch 2k−1). Default 2.
    pub k: u32,
    /// Sampling seed shared by the oracle and the routing scheme.
    /// Default 1.
    pub seed: u64,
    /// Whether to also build the compact-routing tables (`ROUTE` needs
    /// them; they cost O(n^{3/2}) space). Default off.
    pub routing: bool,
}

/// The graph-specification grammar of `LOAD` (see PROTOCOL.md §LOAD).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// `er:n=<n>,m=<m>,seed=<s>` — connected Erdős–Rényi G(n, m).
    Er {
        /// Number of vertices (≥ 2).
        n: u32,
        /// Number of edges (`n−1 ≤ m ≤ n(n−1)/2`).
        m: u64,
        /// Generator seed.
        seed: u64,
    },
    /// `grid:rows=<r>,cols=<c>` — r × c grid.
    Grid {
        /// Grid rows (≥ 1).
        rows: u32,
        /// Grid columns (≥ 1).
        cols: u32,
    },
    /// `cycle:n=<n>` — cycle on n ≥ 3 vertices.
    Cycle {
        /// Cycle length (≥ 3).
        n: u32,
    },
    /// `path:n=<n>` — path on n ≥ 1 vertices.
    Path {
        /// Path length in vertices (≥ 1).
        n: u32,
    },
    /// `file:<path>` — whitespace-separated `u v` edge list, one edge per
    /// line; `n` is the largest id + 1.
    File {
        /// Filesystem path of the edge list (no whitespace).
        path: String,
    },
    /// `snapshot:<path>` — a `spanner-store` snapshot directory written
    /// by `SAVE` (or any `Store::save`). The snapshot carries its own
    /// `k`/`seed`/`routing`, so explicit LOAD options are rejected.
    Snapshot {
        /// Filesystem path of the snapshot directory (no whitespace).
        path: String,
    },
}

/// The longest request line a session reads, in bytes, not counting its
/// `\n`; a longer line is answered with [`WireError::too_long`] and
/// skipped up to its newline, so a peer cannot grow the read buffer
/// without bound.
pub const MAX_LINE: usize = 64 * 1024;

/// A protocol-level error, rendered on the wire as `ERR <CODE> <message>`.
///
/// The code set is closed and documented in PROTOCOL.md §Errors; messages
/// are stable strings exercised by the conformance transcripts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    code: &'static str,
    message: String,
}

impl WireError {
    /// `PARSE` — the request line is malformed (unknown command, wrong
    /// arity, bad number).
    pub fn parse(message: impl Into<String>) -> Self {
        WireError {
            code: "PARSE",
            message: message.into(),
        }
    }

    /// `TOOLONG` — the request line is longer than [`MAX_LINE`] bytes.
    pub fn too_long() -> Self {
        WireError {
            code: "TOOLONG",
            message: format!("request line longer than {MAX_LINE} bytes"),
        }
    }

    /// `UNKNOWN-NODE` — a query referenced a node id outside the loaded
    /// graph.
    pub fn unknown_node(node: u32, nodes: usize) -> Self {
        WireError {
            code: "UNKNOWN-NODE",
            message: format!("node {node} out of range: graph has {nodes} nodes"),
        }
    }

    /// `NO-GRAPH` — a query arrived before any successful `LOAD`.
    pub fn no_graph() -> Self {
        WireError {
            code: "NO-GRAPH",
            message: "no graph loaded; send LOAD first".to_string(),
        }
    }

    /// `NO-ROUTING` — `ROUTE` arrived but the graph was loaded with
    /// `routing=off`.
    pub fn no_routing() -> Self {
        WireError {
            code: "NO-ROUTING",
            message: "routing tables not built; reload with routing=on".to_string(),
        }
    }

    /// `BADSPEC` — the `LOAD` spec or options are invalid.
    pub fn bad_spec(message: impl Into<String>) -> Self {
        WireError {
            code: "BADSPEC",
            message: message.into(),
        }
    }

    /// `STORE` — a snapshot operation failed: `SAVE` could not write, or
    /// a `snapshot:` LOAD found a missing, corrupt, or incompatible
    /// snapshot. The message carries the store layer's typed diagnosis.
    pub fn store(message: impl Into<String>) -> Self {
        WireError {
            code: "STORE",
            message: message.into(),
        }
    }

    /// `UNSUPPORTED` — the command is valid but not allowed here (only
    /// DIST/ROUTE may appear inside a batch).
    pub fn unsupported(message: impl Into<String>) -> Self {
        WireError {
            code: "UNSUPPORTED",
            message: message.into(),
        }
    }

    /// `TRUNCATED` — the input stream ended before the announced batch
    /// was complete.
    pub fn truncated(expected: u32, got: u32) -> Self {
        WireError {
            code: "TRUNCATED",
            message: format!("batch expected {expected} sub-commands, got {got}"),
        }
    }

    /// The error code (e.g. `PARSE`).
    pub fn code(&self) -> &'static str {
        self.code
    }

    /// The full response line: `ERR <CODE> <message>`.
    pub fn line(&self) -> String {
        format!("ERR {} {}", self.code, self.message)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ERR {} {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Response line for `PING`.
pub const OK_PONG: &str = "OK PONG";
/// Response line for `QUIT`.
pub const OK_BYE: &str = "OK BYE";

/// Formats a distance response: `OK <d>` or `OK UNREACHABLE` for
/// disconnected pairs.
pub fn format_dist(d: u32) -> String {
    if d == UNREACHABLE {
        "OK UNREACHABLE".to_string()
    } else {
        format!("OK {d}")
    }
}

/// Formats a route response: `OK <hops> <v0> <v1> … <vk>` (hop count, then
/// the full vertex path including both endpoints), or `OK UNREACHABLE`
/// when the endpoints lie in different components.
pub fn format_route(path: Option<&[NodeId]>) -> String {
    match path {
        None => "OK UNREACHABLE".to_string(),
        Some(p) => {
            let mut s = format!("OK {}", p.len() - 1);
            for v in p {
                s.push(' ');
                s.push_str(&v.0.to_string());
            }
            s
        }
    }
}

fn parse_uint<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, WireError> {
    if tok.is_empty() || !tok.bytes().all(|b| b.is_ascii_digit()) {
        return Err(WireError::parse(format!("invalid {what} {tok}")));
    }
    tok.parse::<T>()
        .map_err(|_| WireError::parse(format!("invalid {what} {tok}")))
}

fn parse_node(tok: &str) -> Result<u32, WireError> {
    parse_uint::<u32>(tok, "node id")
}

fn expect_arity(tokens: &[&str], n: usize, cmd: &str) -> Result<(), WireError> {
    if tokens.len() != n + 1 {
        let noun = if n == 1 { "argument" } else { "arguments" };
        return Err(WireError::parse(format!("{cmd} expects {n} {noun}")));
    }
    Ok(())
}

/// Parses one request line into a [`Command`].
///
/// The caller is expected to skip blank lines outside batches (the
/// protocol ignores them); inside a batch every line counts and blank
/// lines are a `PARSE` error.
pub fn parse_command(line: &str) -> Result<Command, WireError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some(&head) = tokens.first() else {
        return Err(WireError::parse("empty command"));
    };
    match head {
        "DIST" => {
            expect_arity(&tokens, 2, "DIST")?;
            Ok(Command::Dist(
                parse_node(tokens[1])?,
                parse_node(tokens[2])?,
            ))
        }
        "ROUTE" => {
            expect_arity(&tokens, 2, "ROUTE")?;
            Ok(Command::Route(
                parse_node(tokens[1])?,
                parse_node(tokens[2])?,
            ))
        }
        "BATCH" => {
            expect_arity(&tokens, 1, "BATCH")?;
            let n: u32 = parse_uint(tokens[1], "batch size")?;
            if n > MAX_BATCH {
                return Err(WireError::parse(format!(
                    "batch size {n} exceeds maximum {MAX_BATCH}"
                )));
            }
            Ok(Command::Batch(n))
        }
        "STATS" => {
            expect_arity(&tokens, 0, "STATS")?;
            Ok(Command::Stats)
        }
        "PING" => {
            expect_arity(&tokens, 0, "PING")?;
            Ok(Command::Ping)
        }
        "QUIT" => {
            expect_arity(&tokens, 0, "QUIT")?;
            Ok(Command::Quit)
        }
        "LOAD" => parse_load(&tokens),
        "SAVE" => {
            expect_arity(&tokens, 1, "SAVE")?;
            Ok(Command::Save(tokens[1].to_string()))
        }
        other => Err(WireError::parse(format!("unknown command {other}"))),
    }
}

fn parse_load(tokens: &[&str]) -> Result<Command, WireError> {
    if tokens.len() < 2 {
        return Err(WireError::parse("LOAD expects a graph spec"));
    }
    let spec = parse_spec(tokens[1])?;
    if matches!(spec, GraphSpec::Snapshot { .. }) && tokens.len() > 2 {
        return Err(WireError::bad_spec(
            "snapshot carries its own k/seed/routing; options are not allowed",
        ));
    }
    let mut req = LoadRequest {
        spec,
        k: 2,
        seed: 1,
        routing: false,
    };
    for opt in &tokens[2..] {
        let Some((key, val)) = opt.split_once('=') else {
            return Err(WireError::parse(format!("invalid LOAD option {opt}")));
        };
        match key {
            "k" => {
                req.k = parse_uint(val, "k")?;
                if req.k < 1 || req.k > 16 {
                    return Err(WireError::bad_spec(format!(
                        "k must be between 1 and 16, got {}",
                        req.k
                    )));
                }
            }
            "seed" => req.seed = parse_uint(val, "seed")?,
            "routing" => {
                req.routing = match val {
                    "on" => true,
                    "off" => false,
                    _ => {
                        return Err(WireError::parse(format!(
                            "routing must be on or off, got {val}"
                        )))
                    }
                }
            }
            _ => return Err(WireError::parse(format!("unknown LOAD option {key}"))),
        }
    }
    Ok(Command::Load(req))
}

/// Parses a `LOAD` graph spec (`<kind>:<fields>`), e.g.
/// `er:n=1000,m=4000,seed=7` or `file:/tmp/graph.edges`.
pub fn parse_spec(tok: &str) -> Result<GraphSpec, WireError> {
    let Some((kind, rest)) = tok.split_once(':') else {
        return Err(WireError::bad_spec(format!(
            "spec {tok} is missing a ':' separator"
        )));
    };
    if kind == "file" {
        if rest.is_empty() {
            return Err(WireError::bad_spec("file spec has an empty path"));
        }
        return Ok(GraphSpec::File {
            path: rest.to_string(),
        });
    }
    if kind == "snapshot" {
        if rest.is_empty() {
            return Err(WireError::bad_spec("snapshot spec has an empty path"));
        }
        return Ok(GraphSpec::Snapshot {
            path: rest.to_string(),
        });
    }
    let mut fields: Vec<(&str, &str)> = Vec::new();
    for part in rest.split(',') {
        let Some((key, val)) = part.split_once('=') else {
            return Err(WireError::bad_spec(format!("invalid spec field {part}")));
        };
        fields.push((key, val));
    }
    let get = |name: &str| -> Result<&str, WireError> {
        fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| WireError::bad_spec(format!("missing field {name} in {kind} spec")))
    };
    let uint = |name: &str| -> Result<u64, WireError> {
        let val = get(name)?;
        if val.is_empty() || !val.bytes().all(|b| b.is_ascii_digit()) {
            return Err(WireError::bad_spec(format!(
                "invalid value for {name}: {val}"
            )));
        }
        val.parse::<u64>()
            .map_err(|_| WireError::bad_spec(format!("invalid value for {name}: {val}")))
    };
    let small = |name: &str, min: u32, max: u32| -> Result<u32, WireError> {
        let v = uint(name)?;
        if v < min.into() || v > max.into() {
            return Err(WireError::bad_spec(format!(
                "{name} must be between {min} and {max}, got {v}"
            )));
        }
        Ok(v as u32)
    };
    let expect_fields = |allowed: &[&str]| -> Result<(), WireError> {
        for (k, _) in &fields {
            if !allowed.contains(k) {
                return Err(WireError::bad_spec(format!(
                    "unknown field {k} in {kind} spec"
                )));
            }
        }
        Ok(())
    };
    match kind {
        "er" => {
            expect_fields(&["n", "m", "seed"])?;
            let n = small("n", 2, MAX_N)?;
            let m = uint("m")?;
            if m > MAX_M {
                return Err(WireError::bad_spec(format!(
                    "m must be at most {MAX_M}, got {m}"
                )));
            }
            let total = n as u64 * (n as u64 - 1) / 2;
            if m + 1 < n as u64 || m > total {
                return Err(WireError::bad_spec(format!(
                    "er spec needs n-1 <= m <= n(n-1)/2, got n={n} m={m}"
                )));
            }
            Ok(GraphSpec::Er {
                n,
                m,
                seed: uint("seed")?,
            })
        }
        "grid" => {
            expect_fields(&["rows", "cols"])?;
            let rows = small("rows", 1, MAX_N)?;
            let cols = small("cols", 1, MAX_N)?;
            if rows as u64 * cols as u64 > MAX_N.into() {
                return Err(WireError::bad_spec(format!(
                    "grid {rows}x{cols} exceeds {MAX_N} nodes"
                )));
            }
            Ok(GraphSpec::Grid { rows, cols })
        }
        "cycle" => {
            expect_fields(&["n"])?;
            Ok(GraphSpec::Cycle {
                n: small("n", 3, MAX_N)?,
            })
        }
        "path" => {
            expect_fields(&["n"])?;
            Ok(GraphSpec::Path {
                n: small("n", 1, MAX_N)?,
            })
        }
        other => Err(WireError::bad_spec(format!("unknown generator {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_queries() {
        assert_eq!(parse_command("DIST 3 9"), Ok(Command::Dist(3, 9)));
        assert_eq!(parse_command("ROUTE 0 42"), Ok(Command::Route(0, 42)));
        assert_eq!(parse_command("  DIST  3   9 "), Ok(Command::Dist(3, 9)));
        assert_eq!(parse_command("BATCH 16"), Ok(Command::Batch(16)));
        assert_eq!(parse_command("PING"), Ok(Command::Ping));
    }

    #[test]
    fn rejects_malformed_lines() {
        for line in [
            "DIST 3",
            "DIST 3 9 12",
            "DIST -1 4",
            "DIST +1 4",
            "DIST 1e3 4",
            "DIST 99999999999 0",
            "ROUTE x y",
            "BATCH",
            "BATCH -4",
            "STATS now",
            "dist 3 9",
            "EXPLODE",
        ] {
            let err = parse_command(line).unwrap_err();
            assert_eq!(err.code(), "PARSE", "{line}: {}", err.line());
        }
        assert_eq!(
            parse_command(&format!("BATCH {}", MAX_BATCH + 1))
                .unwrap_err()
                .code(),
            "PARSE"
        );
    }

    #[test]
    fn parses_load_specs() {
        let cmd = parse_command("LOAD er:n=100,m=400,seed=7 k=3 seed=9 routing=on").unwrap();
        assert_eq!(
            cmd,
            Command::Load(LoadRequest {
                spec: GraphSpec::Er {
                    n: 100,
                    m: 400,
                    seed: 7
                },
                k: 3,
                seed: 9,
                routing: true,
            })
        );
        assert_eq!(
            parse_command("LOAD cycle:n=12").unwrap(),
            Command::Load(LoadRequest {
                spec: GraphSpec::Cycle { n: 12 },
                k: 2,
                seed: 1,
                routing: false,
            })
        );
        assert_eq!(
            parse_spec("file:/tmp/g.edges").unwrap(),
            GraphSpec::File {
                path: "/tmp/g.edges".to_string()
            }
        );
    }

    #[test]
    fn rejects_bad_specs() {
        for spec in [
            "er",
            "er:n=1,m=0,seed=1",
            "er:n=10,m=2,seed=1",
            "er:n=10,m=99,seed=1",
            "er:n=10,seed=1",
            "er:n=10,m=20,seed=1,extra=2",
            "cycle:n=2",
            "blob:n=4",
            "grid:rows=0,cols=5",
            "file:",
        ] {
            let err = parse_spec(spec).unwrap_err();
            assert_eq!(err.code(), "BADSPEC", "{spec}: {}", err.line());
        }
        // k out of range is BADSPEC; malformed option is PARSE.
        assert_eq!(
            parse_command("LOAD cycle:n=5 k=0").unwrap_err().code(),
            "BADSPEC"
        );
        assert_eq!(
            parse_command("LOAD cycle:n=5 k=17").unwrap_err().code(),
            "BADSPEC"
        );
        assert_eq!(
            parse_command("LOAD cycle:n=5 routing=maybe")
                .unwrap_err()
                .code(),
            "PARSE"
        );
        assert_eq!(
            parse_command("LOAD cycle:n=5 verbose=1")
                .unwrap_err()
                .code(),
            "PARSE"
        );
    }

    #[test]
    fn parses_save_and_snapshot_specs() {
        assert_eq!(
            parse_command("SAVE /tmp/snap").unwrap(),
            Command::Save("/tmp/snap".to_string())
        );
        assert_eq!(parse_command("SAVE").unwrap_err().code(), "PARSE");
        assert_eq!(parse_command("SAVE a b").unwrap_err().code(), "PARSE");
        assert_eq!(
            parse_command("LOAD snapshot:/tmp/snap").unwrap(),
            Command::Load(LoadRequest {
                spec: GraphSpec::Snapshot {
                    path: "/tmp/snap".to_string()
                },
                k: 2,
                seed: 1,
                routing: false,
            })
        );
        // The snapshot carries its own parameters: every explicit option
        // is rejected, even redundant-looking ones.
        for line in [
            "LOAD snapshot:/tmp/snap k=2",
            "LOAD snapshot:/tmp/snap seed=1",
            "LOAD snapshot:/tmp/snap routing=on",
        ] {
            assert_eq!(parse_command(line).unwrap_err().code(), "BADSPEC", "{line}");
        }
        assert_eq!(parse_spec("snapshot:").unwrap_err().code(), "BADSPEC");
    }

    #[test]
    fn formats_responses() {
        assert_eq!(format_dist(7), "OK 7");
        assert_eq!(format_dist(UNREACHABLE), "OK UNREACHABLE");
        assert_eq!(format_route(None), "OK UNREACHABLE");
        let path = [NodeId(4), NodeId(2), NodeId(9)];
        assert_eq!(format_route(Some(&path)), "OK 2 4 2 9");
        assert_eq!(format_route(Some(&path[..1])), "OK 0 4");
        assert_eq!(
            WireError::unknown_node(9, 4).line(),
            "ERR UNKNOWN-NODE node 9 out of range: graph has 4 nodes"
        );
    }
}
