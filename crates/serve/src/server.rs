//! The server core: load state, the batched query pipeline, sessions.
//!
//! # Execution model (DESIGN.md §2.11)
//!
//! A batch of queries runs through two phases, so that **both responses
//! and counters are byte-identical at every thread count**:
//!
//! 1. **Resolve** (parallel) — validation, the oracle query or route,
//!    and response formatting; pure reads of the loaded state, each
//!    worker writing its own contiguous chunk of the batch as split by
//!    [`spanner_graph::pool::for_each_region`].
//! 2. **Commit** (sequential, request order) — accumulate each query's
//!    cost counters.
//!
//! The parallel phase touches no shared mutable state, so the only
//! scheduling freedom is *when* pure values are computed — never what
//! they are, and never the order the counters evolve in.

use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;

use spanner_graph::pool::for_each_region;
use spanner_graph::{generators, Graph, NodeId};
use spanner_oracle::{DistanceOracle, RoutingScheme};
use spanner_store::{Edit, SnapshotMeta, Store};

use crate::protocol::{
    format_dist, format_route, parse_command, Command, GraphSpec, LoadRequest, WireError, MAX_LINE,
    MAX_N, OK_BYE, OK_PONG,
};

/// Below this many requests per worker the batch runs inline — the spawn
/// cost of a fork-join region outweighs fanning out tiny batches.
const MIN_PER_WORKER: usize = 8;

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Fan-out width for batched query execution (≥ 1).
    pub threads: usize,
    /// Unused: the server keeps no result cache. Kept only so the repo
    /// benchmark package, which sets it, builds unchanged.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 1,
            cache_capacity: 0,
        }
    }
}

/// Monotonic serving counters, exposed verbatim by `STATS`.
///
/// Every field is deterministic in the request stream alone — thread
/// count cannot change any value, because all counter mutation happens in
/// the sequential commit phase of the batch pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Total queries executed (DIST + ROUTE, including erroneous ones).
    pub queries: u64,
    /// DIST queries that produced an `OK` response.
    pub dist_queries: u64,
    /// ROUTE queries that produced an `OK` response.
    pub route_queries: u64,
    /// Queries answered with an `ERR` response.
    pub errors: u64,
    /// Always 0: the server keeps no result cache. The three `cache_*`
    /// fields are kept only so the repo benchmark package, which reads
    /// them, builds unchanged; `STATS` does not print them.
    pub cache_hits: u64,
    /// Always 0 (see `cache_hits`).
    pub cache_misses: u64,
    /// Always 0 (see `cache_hits`).
    pub cache_evictions: u64,
    /// Bunch-table probes performed by query execution.
    pub bunch_probes: u64,
    /// Witness-array reads performed by query execution.
    pub witness_reads: u64,
    /// Total hops over all delivered routes.
    pub route_hops: u64,
    /// Response payload words after `OK` (the per-query word cost of the
    /// reply: 1 for a distance, 1 + path length for a route).
    pub resp_words: u64,
}

struct Loaded {
    oracle: DistanceOracle,
    routing: Option<RoutingScheme>,
    nodes: usize,
    edges: usize,
    /// The served graph, kept for `SAVE`: a snapshot persists the exact
    /// edge set the oracle was built over.
    graph: Graph,
    /// The construction seed, persisted by `SAVE` so a later
    /// `LOAD snapshot:` rebuilds the identical oracle.
    seed: u64,
}

/// One query of a batch (or a singleton DIST/ROUTE), pre-parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReq {
    /// `DIST u v`.
    Dist(u32, u32),
    /// `ROUTE u v`.
    Route(u32, u32),
    /// A sub-line that failed to parse or named a non-query command; the
    /// error becomes that slot's response.
    Invalid(WireError),
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum Kind {
    Dist,
    Route,
    #[default]
    Error,
}

/// One resolved query: its response line and what it adds to the
/// counters.
#[derive(Default)]
struct Outcome {
    line: String,
    kind: Kind,
    bunch_probes: u32,
    witness_reads: u32,
    route_hops: u32,
    resp_words: u32,
}

/// Runs `f(i, &mut items[i])` for every index, fanned over at most
/// `threads` workers on contiguous chunks by [`for_each_region`]. One
/// worker — always so when the batch is too small to amortize a spawn —
/// is an inline loop on the caller's thread.
fn fan_out<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let t = threads
        .max(1)
        .min(items.len().div_ceil(MIN_PER_WORKER).max(1));
    for_each_region(items, 1, &mut vec![(); t], |first, region, _| {
        for (off, item) in region.iter_mut().enumerate() {
            f(first + off, item);
        }
    });
}

/// The query server: loaded oracle/routing state and the counters. One
/// server may outlive many [`Session`]s (state persists across
/// connections).
pub struct Server {
    cfg: ServeConfig,
    state: Option<Loaded>,
    stats: ServeStats,
}

impl Server {
    /// A server with no graph loaded.
    pub fn new(cfg: ServeConfig) -> Self {
        Server {
            cfg,
            state: None,
            stats: ServeStats::default(),
        }
    }

    /// The current counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The configured fan-out width.
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// Builds the graph named by `req`, then the oracle (and routing
    /// tables when requested) over it, replacing any previous state;
    /// counters persist. Returns the `OK` response line.
    ///
    /// A `snapshot:` spec is the O(size) path: the graph (and the
    /// parameters to rebuild the oracle with) come from the snapshot
    /// directory instead of a generator, with any write-ahead-logged
    /// edits folded in; the parser guarantees no explicit options
    /// accompany it.
    pub fn load(&mut self, req: &LoadRequest) -> Result<String, WireError> {
        let (g, k, seed, routing_on) = match &req.spec {
            GraphSpec::Snapshot { path } => {
                let (g, meta) = load_snapshot(path)?;
                (g, meta.k, meta.seed, meta.routing)
            }
            other => (build_graph(other)?, req.k, req.seed, req.routing),
        };
        let oracle = DistanceOracle::build(&g, k, seed);
        let routing = routing_on.then(|| RoutingScheme::build(&g, seed));
        let (nodes, edges) = (g.node_count(), g.edge_count());
        let landmarks = match &routing {
            Some(r) => r.landmark_count().to_string(),
            None => "-".to_string(),
        };
        self.state = Some(Loaded {
            oracle,
            routing,
            nodes,
            edges,
            graph: g,
            seed,
        });
        Ok(format!(
            "OK n={nodes} m={edges} k={k} landmarks={landmarks}"
        ))
    }

    /// Persists the loaded graph plus its construction parameters as a
    /// snapshot directory at `path` (`LOAD snapshot:<path>` restores it).
    /// Returns the `OK SAVED` response line.
    pub fn save(&mut self, path: &str) -> Result<String, WireError> {
        let Some(state) = &self.state else {
            return Err(WireError::no_graph());
        };
        let meta = SnapshotMeta {
            k: state.oracle.k(),
            seed: state.seed,
            routing: state.routing.is_some(),
        };
        // Serve snapshots carry an empty spanner section: the serving
        // artifact is the oracle, rebuilt from (graph, k, seed) on load.
        Store::save(Path::new(path), state.graph.csr(), &[], meta)
            .map_err(|e| WireError::store(e.to_string()))?;
        Ok(format!("OK SAVED n={} m={}", state.nodes, state.edges))
    }

    /// The one-line `STATS` response.
    pub fn stats_line(&self) -> String {
        let (nodes, edges, k, landmarks) = match &self.state {
            None => (0, 0, "-".to_string(), "-".to_string()),
            Some(s) => (
                s.nodes,
                s.edges,
                s.oracle.k().to_string(),
                match &s.routing {
                    Some(r) => r.landmark_count().to_string(),
                    None => "-".to_string(),
                },
            ),
        };
        let st = &self.stats;
        format!(
            "OK nodes={nodes} edges={edges} k={k} landmarks={landmarks} queries={} dist={} \
             route={} errors={} bunch_probes={} witness_reads={} route_hops={} resp_words={}",
            st.queries,
            st.dist_queries,
            st.route_queries,
            st.errors,
            st.bunch_probes,
            st.witness_reads,
            st.route_hops,
            st.resp_words,
        )
    }

    /// Executes a slice of queries as one batch and returns one response
    /// line per query, in request order. See the module docs for the
    /// two-phase pipeline and its determinism guarantees.
    pub fn run_queries(&mut self, reqs: &[QueryReq]) -> Vec<String> {
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(reqs.len());
        outcomes.resize_with(reqs.len(), Outcome::default);

        // Phase 1 — Resolve (parallel, pure).
        let state = self.state.as_ref();
        fan_out(self.cfg.threads, &mut outcomes, |i, out| {
            *out = resolve(state, &reqs[i]);
        });

        // Phase 2 — Commit (sequential, request order).
        let st = &mut self.stats;
        outcomes
            .into_iter()
            .map(|out| {
                st.queries += 1;
                match out.kind {
                    Kind::Dist => st.dist_queries += 1,
                    Kind::Route => st.route_queries += 1,
                    Kind::Error => st.errors += 1,
                }
                st.bunch_probes += out.bunch_probes as u64;
                st.witness_reads += out.witness_reads as u64;
                st.route_hops += out.route_hops as u64;
                st.resp_words += out.resp_words as u64;
                out.line
            })
            .collect()
    }
}

/// Phase-1 resolution of one request: validation, then the oracle query
/// or the route, formatted. Pure.
fn resolve(state: Option<&Loaded>, req: &QueryReq) -> Outcome {
    let error = |e: WireError| Outcome {
        line: e.line(),
        ..Outcome::default()
    };
    let (u, v, is_route) = match req {
        QueryReq::Invalid(e) => return error(e.clone()),
        QueryReq::Dist(u, v) => (*u, *v, false),
        QueryReq::Route(u, v) => (*u, *v, true),
    };
    let Some(state) = state else {
        return error(WireError::no_graph());
    };
    let nodes = state.nodes;
    if let Some(&id) = [u, v].iter().find(|&&id| id as usize >= nodes) {
        return error(WireError::unknown_node(id, nodes));
    }
    if is_route {
        let Some(routing) = &state.routing else {
            return error(WireError::no_routing());
        };
        let path = routing
            .try_route(NodeId(u), NodeId(v))
            .expect("ids validated");
        let len = path.as_ref().map_or(0, |p| p.len() as u32);
        return Outcome {
            line: format_route(path.as_deref()),
            kind: Kind::Route,
            route_hops: len.saturating_sub(1),
            resp_words: 1 + len,
            ..Outcome::default()
        };
    }
    let (d, cost) = state
        .oracle
        .query_cost(NodeId(u), NodeId(v))
        .expect("ids validated");
    Outcome {
        line: format_dist(d),
        kind: Kind::Dist,
        bunch_probes: cost.bunch_probes,
        witness_reads: cost.witness_reads,
        resp_words: 1,
        ..Outcome::default()
    }
}

/// Opens the snapshot at `path` and reconstructs the served graph: the
/// persisted CSR edge set with every write-ahead-logged edit folded in.
/// Any store-level failure — corruption, version skew, an inapplicable
/// WAL record — surfaces as a `STORE` wire error.
fn load_snapshot(path: &str) -> Result<(Graph, SnapshotMeta), WireError> {
    let state = Store::open(Path::new(path)).map_err(|e| WireError::store(e.to_string()))?;
    if state.edits.is_empty() {
        return Ok((Graph::from_csr(Arc::new(state.csr)), state.meta));
    }
    let n = state.csr.node_count();
    let mut edges: BTreeSet<(u32, u32)> = state
        .csr
        .forward_edges()
        .map(|(_, a, b)| (a.0, b.0))
        .collect();
    for (index, edit) in state.edits.iter().enumerate() {
        let (u, v) = edit.endpoints();
        let applied = match edit {
            Edit::Insert(..) => (v as usize) < n && edges.insert((u, v)),
            Edit::Delete(..) => edges.remove(&(u, v)),
        };
        if !applied {
            return Err(WireError::store(format!(
                "snapshot WAL record {index} ({u}-{v}) does not apply to the graph"
            )));
        }
    }
    // BTreeSet iterates in canonical ascending order, exactly what the
    // sorted constructor wants.
    Ok((Graph::from_sorted_edges(n, edges), state.meta))
}

fn build_graph(spec: &GraphSpec) -> Result<Graph, WireError> {
    match spec {
        GraphSpec::Snapshot { .. } => {
            unreachable!("snapshot specs take the load_snapshot path")
        }
        GraphSpec::Er { n, m, seed } => {
            Ok(generators::connected_gnm(*n as usize, *m as usize, *seed))
        }
        GraphSpec::Grid { rows, cols } => Ok(generators::grid(*rows as usize, *cols as usize)),
        GraphSpec::Cycle { n } => Ok(generators::cycle(*n as usize)),
        GraphSpec::Path { n } => Ok(generators::path(*n as usize)),
        GraphSpec::File { path } => {
            let text = std::fs::read_to_string(path)
                .map_err(|_| WireError::bad_spec(format!("cannot read {path}")))?;
            let mut edges: Vec<(u32, u32)> = Vec::new();
            let mut max_id = 0u32;
            for (lineno, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let mut it = line.split_whitespace();
                let (a, b) = (it.next(), it.next());
                let bad = || WireError::bad_spec(format!("invalid edge list line {}", lineno + 1));
                let (Some(a), Some(b), None) = (a, b, it.next()) else {
                    return Err(bad());
                };
                let a: u32 = a.parse().map_err(|_| bad())?;
                let b: u32 = b.parse().map_err(|_| bad())?;
                if a.max(b) >= MAX_N {
                    return Err(WireError::bad_spec(format!(
                        "node id {} on line {} exceeds the {MAX_N}-node cap",
                        a.max(b),
                        lineno + 1
                    )));
                }
                if a == b {
                    return Err(WireError::bad_spec(format!(
                        "self-loop on line {}",
                        lineno + 1
                    )));
                }
                max_id = max_id.max(a).max(b);
                edges.push((a, b));
            }
            if edges.is_empty() {
                return Err(WireError::bad_spec(format!("empty edge list {path}")));
            }
            Ok(Graph::from_edges(max_id as usize + 1, edges))
        }
    }
}

/// A protocol session: reads request lines from an input stream, writes
/// response lines to an output stream, owning a [`Server`].
///
/// The same session (and server state) may serve several streams in
/// sequence — e.g. successive TCP connections.
pub struct Session {
    server: Server,
}

impl Session {
    /// Wraps a server in a session.
    pub fn new(server: Server) -> Self {
        Session { server }
    }

    /// Read access to the underlying server (counters, configuration).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Mutable access to the underlying server (e.g. to `load` before
    /// serving).
    pub fn server_mut(&mut self) -> &mut Server {
        &mut self.server
    }

    /// Serves one input stream to completion: processes request lines
    /// until end-of-stream or `QUIT`. Blank lines outside batches are
    /// ignored; inside a batch every line counts (see PROTOCOL.md). A line
    /// that is not UTF-8 is answered with `ERR PARSE`, like any other
    /// malformed request, and one longer than [`MAX_LINE`] bytes with
    /// `ERR TOOLONG`.
    pub fn run<R: BufRead, W: Write>(&mut self, mut input: R, mut output: W) -> io::Result<()> {
        let mut line = Vec::new();
        loop {
            let command = match read_request(&mut input, &mut line)? {
                None => return output.flush(),
                Some(Ok(line)) if line.trim().is_empty() => continue,
                Some(line) => line.and_then(parse_command),
            };
            match command {
                Err(e) => writeln!(output, "{}", e.line())?,
                Ok(Command::Dist(u, v)) => {
                    let resp = self.server.run_queries(&[QueryReq::Dist(u, v)]);
                    writeln!(output, "{}", resp[0])?;
                }
                Ok(Command::Route(u, v)) => {
                    let resp = self.server.run_queries(&[QueryReq::Route(u, v)]);
                    writeln!(output, "{}", resp[0])?;
                }
                Ok(Command::Batch(n)) => {
                    let mut subs: Vec<QueryReq> = Vec::with_capacity(n as usize);
                    let mut sub = Vec::new();
                    let mut truncated = false;
                    for _ in 0..n {
                        let subline = match read_request(&mut input, &mut sub)? {
                            None => {
                                truncated = true;
                                break;
                            }
                            Some(Err(e)) => {
                                subs.push(QueryReq::Invalid(e));
                                continue;
                            }
                            Some(Ok(subline)) => subline,
                        };
                        subs.push(match parse_command(subline) {
                            Ok(Command::Dist(u, v)) => QueryReq::Dist(u, v),
                            Ok(Command::Route(u, v)) => QueryReq::Route(u, v),
                            Ok(_) => {
                                let name = subline
                                    .split_whitespace()
                                    .next()
                                    .unwrap_or_default()
                                    .to_string();
                                QueryReq::Invalid(WireError::unsupported(format!(
                                    "only DIST and ROUTE are allowed in a batch, got {name}"
                                )))
                            }
                            Err(e) => QueryReq::Invalid(e),
                        });
                    }
                    if truncated {
                        let e = WireError::truncated(n, subs.len() as u32);
                        writeln!(output, "{}", e.line())?;
                        output.flush()?;
                        continue;
                    }
                    writeln!(output, "OK BATCH {n}")?;
                    for resp in self.server.run_queries(&subs) {
                        writeln!(output, "{resp}")?;
                    }
                }
                Ok(Command::Stats) => writeln!(output, "{}", self.server.stats_line())?,
                Ok(Command::Load(req)) => match self.server.load(&req) {
                    Ok(okline) => writeln!(output, "{okline}")?,
                    Err(e) => writeln!(output, "{}", e.line())?,
                },
                Ok(Command::Save(path)) => match self.server.save(&path) {
                    Ok(okline) => writeln!(output, "{okline}")?,
                    Err(e) => writeln!(output, "{}", e.line())?,
                },
                Ok(Command::Ping) => writeln!(output, "{OK_PONG}")?,
                Ok(Command::Quit) => {
                    writeln!(output, "{OK_BYE}")?;
                    return output.flush();
                }
            }
            output.flush()?;
        }
    }

    /// Convenience for tests and drivers: feeds `script` (one command per
    /// line) through [`Session::run`] and returns the full response text.
    pub fn handle_script(&mut self, script: &str) -> String {
        let mut out = Vec::new();
        self.run(io::Cursor::new(script.as_bytes()), &mut out)
            .expect("in-memory session I/O cannot fail");
        String::from_utf8(out).expect("responses are UTF-8")
    }
}

/// Reads one request line into `buf`: `None` at end of stream, else the
/// line without its `\n` or `\r\n`, a `TOOLONG` error if it has more than
/// [`MAX_LINE`] bytes (the rest of it is skipped unread into `buf`), or a
/// `PARSE` error if it is not UTF-8.
fn read_request<'b>(
    input: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, WireError>>> {
    buf.clear();
    let cap = MAX_LINE as u64 + 1;
    if input.by_ref().take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.len() as u64 == cap && buf.last() != Some(&b'\n') {
        input.skip_until(b'\n')?;
        return Ok(Some(Err(WireError::too_long())));
    }
    Ok(Some(
        std::str::from_utf8(buf)
            .map(|line| line.trim_end_matches(['\n', '\r']))
            .map_err(|_| WireError::parse("request line is not valid UTF-8")),
    ))
}

/// Serves TCP connections from `listener` sequentially, one session
/// stream per connection, sharing a single [`Server`] (state and
/// counters persist across connections). `QUIT` ends a connection, not
/// the server. A connection that fails to open — a failed `accept`, e.g.
/// EMFILE or ECONNABORTED, or a failed stream clone — is logged to stderr
/// and skipped, and does not count as served. Stops after `max_conns`
/// served connections when given (useful for tests and smoke runs; `None`
/// loops forever). Returns the server for post-run inspection.
pub fn serve_listener(
    listener: TcpListener,
    server: Server,
    max_conns: Option<usize>,
) -> io::Result<Server> {
    let mut session = Session::new(server);
    let mut served = 0usize;
    for conn in listener.incoming() {
        let Some((reader, writer)) = open_connection(conn) else {
            continue;
        };
        // A dropped connection mid-session is that client's problem, not
        // a server-fatal condition.
        let _ = session.run(reader, writer);
        served += 1;
        if max_conns.is_some_and(|m| served >= m) {
            break;
        }
    }
    Ok(session.server)
}

/// The reader and writer of an accepted connection, or `None` after
/// logging why it could not be opened.
fn open_connection(
    conn: io::Result<TcpStream>,
) -> Option<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    let opened = conn.and_then(|stream| {
        let reader = BufReader::new(stream.try_clone()?);
        Ok((reader, BufWriter::new(stream)))
    });
    match opened {
        Ok(pair) => Some(pair),
        Err(e) => {
            eprintln!("spanner-serve: skipping connection: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_accept_is_skipped() {
        for kind in [io::ErrorKind::ConnectionAborted, io::ErrorKind::Other] {
            assert!(open_connection(Err(io::Error::from(kind))).is_none());
        }
    }

    #[test]
    fn accepted_connection_opens() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (_reader, mut writer) =
            open_connection(listener.accept().map(|(s, _)| s)).expect("opened");
        writer.write_all(b"x").expect("write");
        drop(client);
    }
}
