//! Serving workloads: an in-process `serve_listener` on a thread and one
//! TCP loopback client in a closed loop, one request in flight.
//!
//! An untraced run sets the server up `SETUP_REPS` times (setup), warms
//! it for a tenth of the window, then times every request round trip for
//! the window, with the host probed between set-ups and every few
//! milliseconds of requests (`probe`). Afterwards it replays every 16th
//! request on an in-process server without a cache and compares the bytes,
//! checks 1 000 sampled distance answers against exact BFS, and has already
//! checked every route reply as a walk along graph edges.
//!
//! A traced run replays one fixed request prefix through nested public
//! entry points (TCP, `Session::handle_script`, `Server::run_queries` with
//! and without the cache, `protocol::parse_command`) and attributes each
//! request's time by subtraction.

use std::fs;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spanner_graph::generators::connected_gnm_csr;
use spanner_graph::traversal::bfs_distances_csr;
use spanner_graph::{CsrAdjacency, NodeId};
use spanner_serve::protocol::parse_command;
use spanner_serve::workload::{batch_script, generate, QueryPair, WorkloadSpec};
use spanner_serve::{
    serve_listener, GraphSpec, LoadRequest, QueryReq, ServeConfig, ServeStats, Server, Session,
};
use spanner_store::Store;

use crate::probe::{HostTimer, Timed};
use crate::report::{median, tail, Report, Tally};
use crate::RunOpts;

/// Server set-ups per run; setup_s is their median.
const SETUP_REPS: usize = 3;
/// The gated tail percentile of a request, taken per `SLICE` of the window
/// (a slice holds thousands of requests); the median over slices keeps a
/// few seconds of host hiccups from setting the run's tail. p90, not p99:
/// between runs of the same code, the p99 of single-line requests moved by
/// a fifth and p90 by a fiftieth. p99 and p99.9 are in the table.
const TAIL: f64 = 90.0;
const SLICE: Duration = Duration::from_secs(1);
/// Every this many requests one is replayed on a cacheless server.
const COMPARE_EVERY: usize = 16;
/// Distance answers checked against exact BFS.
const DIST_SAMPLES: usize = 1000;
/// Queries per generated block of the request stream.
const STREAM_BLOCK: usize = 1 << 14;
/// The oracle's stretch at k = 2.
const STRETCH: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `BATCH 64` requests, 80 % Zipf(0.99) endpoints, 20 % `ROUTE`; the
    /// server LOADs with routing tables.
    Batch,
    /// Single-line uniform `DIST` requests against a server restarted
    /// from a snapshot (`SAVE`, then a fresh server `LOAD snapshot:`).
    Line,
}

/// A serving workload over `connected_gnm(2^log2_n, edges_per_node · n)`.
#[derive(Debug, Clone, Copy)]
pub struct Serving {
    pub log2_n: u32,
    pub edges_per_node: usize,
    pub mode: Mode,
    /// Requests replayed by each attribution pass of a traced run.
    pub attribution_requests: usize,
}

impl Serving {
    fn n(&self) -> u32 {
        1 << self.log2_n
    }

    fn m(&self) -> u64 {
        u64::from(self.n()) * self.edges_per_node as u64
    }

    fn queries_per_request(&self) -> usize {
        match self.mode {
            Mode::Batch => 64,
            Mode::Line => 1,
        }
    }

    fn routing(&self) -> bool {
        self.mode == Mode::Batch
    }

    fn load_line(&self, seed: u64) -> String {
        let routing = if self.routing() { "on" } else { "off" };
        format!(
            "LOAD er:n={},m={},seed={seed} routing={routing} seed={seed}\n",
            self.n(),
            self.m()
        )
    }

    fn load_request(&self, seed: u64) -> LoadRequest {
        LoadRequest {
            spec: GraphSpec::Er {
                n: self.n(),
                m: self.m(),
                seed,
            },
            k: 2,
            seed,
            routing: self.routing(),
        }
    }

    fn stream(&self, seed: u64) -> Stream {
        let (zipf_frac, route_frac) = match self.mode {
            Mode::Batch => (0.8, 0.2),
            Mode::Line => (0.0, 0.0),
        };
        Stream {
            spec: WorkloadSpec {
                nodes: self.n(),
                queries: STREAM_BLOCK,
                zipf_frac,
                zipf_theta: 0.99,
                route_frac,
                seed,
            },
            seed,
            block: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The next request of the stream: its queries and its wire text.
    fn next_request(&self, stream: &mut Stream) -> (Vec<QueryPair>, String) {
        let qs: Vec<QueryPair> = (0..self.queries_per_request())
            .map(|_| stream.next())
            .collect();
        let text = match self.mode {
            Mode::Batch => batch_script(&qs),
            Mode::Line => format!("DIST {} {}\n", qs[0].u, qs[0].v),
        };
        (qs, text)
    }
}

/// The deterministic request stream: `workload::generate` blocks with
/// per-block seeds derived from the run's seed.
struct Stream {
    spec: WorkloadSpec,
    seed: u64,
    block: u64,
    buf: Vec<QueryPair>,
    pos: usize,
}

impl Stream {
    fn next(&mut self) -> QueryPair {
        if self.pos == self.buf.len() {
            self.spec.seed = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.block);
            self.buf = generate(&self.spec);
            self.block += 1;
            self.pos = 0;
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }
}

fn as_reqs(qs: &[QueryPair]) -> Vec<QueryReq> {
    qs.iter()
        .map(|q| {
            if q.route {
                QueryReq::Route(q.u, q.v)
            } else {
                QueryReq::Dist(q.u, q.v)
            }
        })
        .collect()
}

/// The exact reply `Session` writes for `responses` to a request of `qs`.
fn render(batch: bool, responses: &[String]) -> String {
    let mut out = if batch {
        format!("OK BATCH {}\n", responses.len())
    } else {
        String::new()
    };
    for r in responses {
        out.push_str(r);
        out.push('\n');
    }
    out
}

/// The TCP client end of a closed loop.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends `text` and reads its reply into `reply`: `lines` lines, or
    /// one when the server answers `ERR`.
    fn roundtrip(&mut self, text: &str, lines: usize, reply: &mut String) -> io::Result<()> {
        self.writer.write_all(text.as_bytes())?;
        reply.clear();
        for i in 0..lines {
            if self.reader.read_line(reply)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if i == 0 && reply.starts_with("ERR") {
                break;
            }
        }
        Ok(())
    }

    /// A one-line command whose reply must start with `OK`.
    fn command(&mut self, text: &str) -> Result<String, String> {
        let mut reply = String::new();
        self.roundtrip(text, 1, &mut reply)
            .map_err(|e| format!("{}: {e}", text.trim()))?;
        if reply.starts_with("OK") {
            Ok(reply)
        } else {
            Err(format!("{} -> {}", text.trim(), reply.trim()))
        }
    }
}

/// A `serve_listener` thread serving one connection, and that connection.
struct Remote {
    client: Client,
    thread: JoinHandle<io::Result<Server>>,
}

impl Remote {
    fn start() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || {
            serve_listener(listener, Server::new(ServeConfig::default()), Some(1))
        });
        let client = Client::connect(addr)?;
        Ok(Remote { client, thread })
    }

    /// Ends the session and joins the server thread, returning the server.
    fn stop(mut self) -> Result<Server, String> {
        self.client.command("QUIT\n")?;
        drop(self.client);
        match self.thread.join() {
            Ok(Ok(server)) => Ok(server),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// Snapshot directories beside the benchmark's executable, i.e. inside its
/// build directory, so a run writes nothing into the source tree and
/// nothing outside the build; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Self> {
        let exe = std::env::current_exe()?;
        let build_dir = exe
            .parent()
            .ok_or_else(|| io::Error::other("the executable has no parent directory"))?;
        let dir = build_dir.join(format!("benchmark-scratch-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn snapshot(&self, rep: usize) -> String {
        self.0.join(format!("snap-{rep}")).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &str) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Set-up costs of one server start, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    total: f64,
    /// `LOAD er:` (graph generation plus oracle build).
    load: f64,
    /// `SAVE` (line mode).
    save: f64,
    /// The fresh server's `LOAD snapshot:` (line mode).
    load_snapshot: f64,
    /// `Store::open` of the same directory, outside `total` (line mode).
    open: f64,
    /// Bytes of the snapshot directory (line mode).
    snapshot_bytes: u64,
}

/// Brings up the server the timed phase talks to and measures the set-up.
fn set_up(
    w: &Serving,
    seed: u64,
    scratch: &Scratch,
    rep: usize,
) -> Result<(Remote, SetupTimes), String> {
    let io = |e: io::Error| format!("server start: {e}");
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let mut remote = Remote::start().map_err(io)?;
    let load = Instant::now();
    remote.client.command(&w.load_line(seed))?;
    t.load = load.elapsed().as_secs_f64();
    if w.mode == Mode::Batch {
        t.total = start.elapsed().as_secs_f64();
        return Ok((remote, t));
    }
    let dir = scratch.snapshot(rep);
    let save = Instant::now();
    remote.client.command(&format!("SAVE {dir}\n"))?;
    t.save = save.elapsed().as_secs_f64();
    remote.stop()?;
    let mut fresh = Remote::start().map_err(io)?;
    let load = Instant::now();
    fresh.client.command(&format!("LOAD snapshot:{dir}\n"))?;
    t.load_snapshot = load.elapsed().as_secs_f64();
    t.total = start.elapsed().as_secs_f64();
    let open = Instant::now();
    Store::open(Path::new(&dir)).map_err(|e| format!("Store::open: {e}"))?;
    t.open = open.elapsed().as_secs_f64();
    t.snapshot_bytes = dir_bytes(&dir);
    Ok((fresh, t))
}

pub fn run(
    w: &Serving,
    opts: &RunOpts,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    if opts.trace {
        run_traced(w, opts, &scratch, report, tally)
    } else {
        run_untraced(w, opts, &scratch, report, tally)
    }
}

fn run_untraced(
    w: &Serving,
    opts: &RunOpts,
    scratch: &Scratch,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let probe_failed = |e: io::Error| format!("host probe failed: {e}");
    let mut timer = HostTimer::start().map_err(probe_failed)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut remote = None;
    for rep in 0..SETUP_REPS {
        if let Some(r) = remote.take() {
            Remote::stop(r)?;
        }
        timer.resume().map_err(probe_failed)?;
        let (r, t) = set_up(w, opts.seed, scratch, rep)?;
        timer.record(t.total).map_err(probe_failed)?;
        setups.push(t);
        remote = Some(r);
    }
    let setup = timer.take().map_err(probe_failed)?;
    let mut remote = remote.expect("SETUP_REPS > 0");
    let checker = Checker::new(w, opts.seed);

    let mut stream = w.stream(opts.seed);
    let lines = w.queries_per_request() + usize::from(w.mode == Mode::Batch);
    let batch = w.mode == Mode::Batch;
    let mut sampled: Vec<(Vec<QueryPair>, String)> = Vec::new();
    let mut reply = String::new();
    let mut peak = None;
    let mut requests = Timed::default();
    let mut slice_tails = Vec::new();
    let mut close_slice = |timer: &mut HostTimer| -> Result<(), String> {
        let slice = timer.take().map_err(probe_failed)?;
        if let Ok(t) = tail(&slice.normalized, TAIL) {
            slice_tails.push(t);
        }
        requests.append(slice);
        Ok(())
    };
    let warm_end = Instant::now() + opts.seconds / 10;
    let end = warm_end + opts.seconds;
    let mut slice_end: Option<Instant> = None;
    let mut i = 0usize;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        match slice_end {
            None if now >= warm_end => {
                // The server is loaded and its cache warm. Read the peak
                // RSS now, before the window's per-request records grow the
                // benchmark's own memory with the host's speed.
                peak = crate::host::peak_rss_mib();
                timer.resume().map_err(probe_failed)?;
                slice_end = Some(now + SLICE);
            }
            Some(e) if now >= e => {
                close_slice(&mut timer)?;
                slice_end = Some(e + SLICE);
            }
            _ => {}
        }
        let (qs, text) = w.next_request(&mut stream);
        let t = Instant::now();
        remote
            .client
            .roundtrip(&text, lines, &mut reply)
            .map_err(|e| format!("request {i}: {e}"))?;
        let dt = t.elapsed().as_secs_f64();
        if slice_end.is_some() {
            timer.record(dt).map_err(probe_failed)?;
        }
        tally.record(checker.check_reply(batch, &qs, &reply));
        if i.is_multiple_of(COMPARE_EVERY) {
            sampled.push((qs, reply.clone()));
        }
        i += 1;
    }
    close_slice(&mut timer)?;
    drop(timer);
    let served = remote.stop()?;
    report.add("peak_rss_mib", "MiB", peak.ok_or("cannot read VmHWM")?, 1);
    if slice_tails.is_empty() {
        return Err(format!(
            "no {}-second slice held enough requests for p{TAIL}",
            SLICE.as_secs()
        ));
    }

    report.add(
        "setup_s",
        "s",
        median(&setup.normalized),
        setup.normalized.len(),
    );
    report.add_ops(&requests, median(&slice_tails));
    report.note(&format!(
        "op_tail_ms is the median over {} one-second slices of each slice's p{TAIL}",
        slice_tails.len()
    ));
    for (name, p) in [("op_p99_ms", 99.0), ("op_p999_ms", 99.9)] {
        if let Ok(t) = tail(&requests.normalized, p) {
            report.add(name, "ms", t * 1e3, requests.normalized.len());
        }
    }
    report.add(
        "qps",
        "1/s",
        (requests.raw.len() * w.queries_per_request()) as f64 / opts.seconds.as_secs_f64(),
        requests.raw.len(),
    );
    setup_parts(w, &setups, report);
    let stats = *served.stats();
    drop(served);
    report.add("cache.hit_ratio", "ratio", hit_ratio(&stats), 1);

    let t = Instant::now();
    let mut reference = reference_server(w, opts.seed);
    for (qs, reply) in &sampled {
        let expected = render(batch, &reference.run_queries(&as_reqs(qs)));
        tally.record(compare(&expected, reply));
    }
    drop(reference);
    check_dist_samples(&checker, batch, &sampled, tally);
    report.add("graph.verify_s", "s", t.elapsed().as_secs_f64(), 1);
    Ok(())
}

fn run_traced(
    w: &Serving,
    opts: &RunOpts,
    scratch: &Scratch,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let t = Instant::now();
    let checker = Checker::new(w, opts.seed);
    let generate_s = t.elapsed().as_secs_f64();
    report.add("graph.generate_s", "s", generate_s, 1);
    let (mut remote, setup) = set_up(w, opts.seed, scratch, 0)?;
    setup_parts(w, &[setup], report);
    let oracle = (setup.load - generate_s) + (setup.load_snapshot - setup.open).max(0.0);
    report.add("oracle.setup_pct", "%", oracle / setup.total * 100.0, 1);
    if w.mode == Mode::Line {
        report.add(
            "store.setup_pct",
            "%",
            (setup.save + setup.open) / setup.total * 100.0,
            1,
        );
    }

    let batch = w.mode == Mode::Batch;
    let lines = w.queries_per_request() + usize::from(batch);
    let mut stream = w.stream(opts.seed);
    let requests: Vec<(Vec<QueryPair>, String)> = (0..w.attribution_requests)
        .map(|_| w.next_request(&mut stream))
        .collect();
    let k = requests.len() as f64;

    // Each request goes through every nested entry point in turn, each
    // with its own freshly loaded server: all of them see the same stream
    // and the same cache states, and a slow stretch of the host, which can
    // last seconds, hits every layer alike instead of one pass.
    let load = |server: &mut Server| server.load(&w.load_request(opts.seed)).map(drop);
    let mut session = Session::new(Server::new(ServeConfig::default()));
    load(session.server_mut()).map_err(|e| e.line())?;
    let mut exec = Server::new(ServeConfig::default());
    load(&mut exec).map_err(|e| e.line())?;
    let mut nocache = reference_server(w, opts.seed);
    let (mut session_s, mut exec_s, mut nocache_s, mut parse_s) = (0.0, 0.0, 0.0, 0.0);
    let mut tcp = Vec::with_capacity(requests.len());
    let mut sampled = Vec::new();
    let mut reply = String::new();
    for (i, (qs, text)) in requests.iter().enumerate() {
        let t = Instant::now();
        remote
            .client
            .roundtrip(text, lines, &mut reply)
            .map_err(|e| format!("request {i}: {e}"))?;
        tcp.push(t.elapsed().as_secs_f64());
        tally.record(checker.check_reply(batch, qs, &reply));

        let t = Instant::now();
        let out = session.handle_script(text);
        session_s += t.elapsed().as_secs_f64();
        tally.record(compare(&reply, &out));

        let reqs = as_reqs(qs);
        let t = Instant::now();
        let cached = exec.run_queries(&reqs);
        exec_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let uncached = nocache.run_queries(&reqs);
        nocache_s += t.elapsed().as_secs_f64();
        tally.record(compare(&reply, &render(batch, &cached)));
        tally.record(compare(&reply, &render(batch, &uncached)));

        let t = Instant::now();
        for line in text.lines() {
            let _ = black_box(parse_command(black_box(line)));
        }
        parse_s += t.elapsed().as_secs_f64();

        if i.is_multiple_of(COMPARE_EVERY) {
            sampled.push((qs.clone(), reply.clone()));
        }
    }
    let stats = *remote.stop()?.stats();
    tally.record(same_cache_counts(&stats, exec.stats()));
    drop((session, exec, nocache));

    let tcp_s: f64 = tcp.iter().sum();
    tally.record(if exec_s <= session_s && session_s <= tcp_s {
        Ok(())
    } else {
        Err(format!(
            "nesting violated: exec {exec_s}s, session {session_s}s, tcp {tcp_s}s"
        ))
    });

    let t = Instant::now();
    check_dist_samples(&checker, batch, &sampled, tally);
    report.add("graph.verify_s", "s", t.elapsed().as_secs_f64(), 1);

    let per_query = (w.queries_per_request() as f64) * k;
    let pct = |x: f64| x / tcp_s * 100.0;
    report.add("layer.op_ms", "ms", median(&tcp) * 1e3, tcp.len());
    report.add("socket.pct", "%", pct(tcp_s - session_s), tcp.len());
    report.add("session.pct", "%", pct(session_s - exec_s), tcp.len());
    report.add("protocol.parse_pct", "%", pct(parse_s), tcp.len());
    report.add("server.exec_pct", "%", pct(exec_s), tcp.len());
    report.add("server.nocache_ratio", "x", nocache_s / exec_s, tcp.len());
    report.add("cache.hits", "count", stats.cache_hits as f64, 1);
    report.add("cache.misses", "count", stats.cache_misses as f64, 1);
    report.add("cache.evictions", "count", stats.cache_evictions as f64, 1);
    report.add(
        "oracle.bunch_probes_per_query",
        "probes/query",
        stats.bunch_probes as f64 / stats.queries as f64,
        1,
    );
    if stats.route_queries > 0 {
        report.add(
            "oracle.route_hops_per_route",
            "hops/route",
            stats.route_hops as f64 / stats.route_queries as f64,
            1,
        );
    }
    report.add("cache.hit_ratio", "ratio", hit_ratio(&stats), 1);
    report.add(
        "socket.us_per_request",
        "us",
        (tcp_s - session_s) / k * 1e6,
        tcp.len(),
    );
    report.add(
        "session.ns_per_query",
        "ns",
        session_s / per_query * 1e9,
        tcp.len(),
    );
    report.add(
        "server.exec_ns_per_query",
        "ns",
        exec_s / per_query * 1e9,
        tcp.len(),
    );
    report.add(
        "server.exec_nocache_ns_per_query",
        "ns",
        nocache_s / per_query * 1e9,
        tcp.len(),
    );
    let parsed_lines = per_query + if batch { k } else { 0.0 };
    report.add(
        "protocol.parse_ns_per_line",
        "ns",
        parse_s / parsed_lines * 1e9,
        tcp.len(),
    );
    Ok(())
}

fn same_cache_counts(tcp: &ServeStats, in_process: &ServeStats) -> Result<(), String> {
    let counts = |s: &ServeStats| (s.cache_hits, s.cache_misses, s.cache_evictions);
    if counts(tcp) == counts(in_process) {
        Ok(())
    } else {
        Err(format!(
            "cache counts differ: tcp {:?}, in-process {:?}",
            counts(tcp),
            counts(in_process)
        ))
    }
}

fn hit_ratio(stats: &ServeStats) -> f64 {
    let probes = stats.cache_hits + stats.cache_misses;
    if probes == 0 {
        0.0
    } else {
        stats.cache_hits as f64 / probes as f64
    }
}

/// An in-process server without a result cache, loaded with the
/// workload's graph.
fn reference_server(w: &Serving, seed: u64) -> Server {
    let mut server = Server::new(ServeConfig {
        threads: 1,
        cache_capacity: 0,
    });
    server
        .load(&w.load_request(seed))
        .expect("the workload's LOAD succeeded over TCP");
    server
}

fn setup_parts(w: &Serving, setups: &[SetupTimes], report: &mut Report) {
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.add("serve.load_s", "s", med(|t| t.load), setups.len());
    if w.mode == Mode::Line {
        report.add("store.save_s", "s", med(|t| t.save), setups.len());
        report.add(
            "serve.load_snapshot_s",
            "s",
            med(|t| t.load_snapshot),
            setups.len(),
        );
        report.add("store.open_s", "s", med(|t| t.open), setups.len());
        report.add(
            "serve.oracle_rebuild_s",
            "s",
            med(|t| t.load_snapshot - t.open),
            setups.len(),
        );
        let bytes = setups.last().map_or(0, |t| t.snapshot_bytes);
        report.add("store.snapshot_bytes", "bytes", bytes as f64, 1);
    }
}

/// Output checks against the regenerated input graph.
struct Checker {
    csr: CsrAdjacency,
}

impl Checker {
    fn new(w: &Serving, seed: u64) -> Self {
        Checker {
            csr: connected_gnm_csr(w.n() as usize, w.m() as usize, seed),
        }
    }

    /// Every answer of a reply to `qs` is well formed, and every route is
    /// a walk along graph edges from u to v.
    fn check_reply(&self, batch: bool, qs: &[QueryPair], reply: &str) -> Result<(), String> {
        let mut lines = reply.lines();
        if batch {
            let head = lines.next().unwrap_or_default();
            if head != format!("OK BATCH {}", qs.len()) {
                return Err(format!("batch header {head:?}"));
            }
        }
        for q in qs {
            let line = lines.next().ok_or("reply has too few lines")?;
            if q.route {
                self.check_route(q.u, q.v, line)?;
            } else {
                parse_dist(line)?;
            }
        }
        match lines.next() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected reply line {extra:?}")),
        }
    }

    fn check_route(&self, u: u32, v: u32, line: &str) -> Result<(), String> {
        let bad = || format!("ROUTE {u} {v} -> {line:?}");
        let mut tokens = line.split(' ');
        if tokens.next() != Some("OK") {
            return Err(bad());
        }
        let hops: usize = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        let path: Vec<u32> = tokens
            .map(|t| t.parse().map_err(|_| bad()))
            .collect::<Result<_, _>>()?;
        if path.len() != hops + 1 || path.first() != Some(&u) || path.last() != Some(&v) {
            return Err(bad());
        }
        for hop in path.windows(2) {
            let (a, b) = (hop[0], hop[1]);
            if a as usize >= self.csr.node_count()
                || self
                    .csr
                    .neighbors(NodeId(a))
                    .binary_search(&NodeId(b))
                    .is_err()
            {
                return Err(format!("{}: {a}-{b} is not an edge", bad()));
            }
        }
        Ok(())
    }
}

fn parse_dist(line: &str) -> Result<u32, String> {
    line.strip_prefix("OK ")
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| format!("distance reply {line:?}"))
}

fn check_dist(exact: u32, answer: u32) -> Result<(), String> {
    if exact <= answer && answer <= STRETCH * exact {
        Ok(())
    } else {
        Err(format!(
            "answer {answer} outside [{exact}, {}]",
            STRETCH * exact
        ))
    }
}

fn compare(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let (i, (e, g)) = expected
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (e, g))| e != g)
        .unwrap_or((0, ("<length>", "<length>")));
    Err(format!("reply line {i}: expected {e:?}, got {g:?}"))
}

/// Checks `DIST_SAMPLES` distance answers, spread over `sampled`, against
/// exact BFS distances: d ≤ answer ≤ 3d.
fn check_dist_samples(
    checker: &Checker,
    batch: bool,
    sampled: &[(Vec<QueryPair>, String)],
    tally: &mut Tally,
) {
    let mut answers: Vec<(u32, u32, &str)> = Vec::new();
    for (qs, reply) in sampled {
        let body = reply.lines().skip(usize::from(batch));
        for (q, line) in qs.iter().zip(body) {
            if !q.route {
                answers.push((q.u, q.v, line));
            }
        }
    }
    let stride = answers.len().div_ceil(DIST_SAMPLES).max(1);
    let mut picked: Vec<(u32, u32, &str)> = answers.into_iter().step_by(stride).collect();
    picked.sort_unstable();
    let mut dist: (u32, Vec<Option<u32>>) = (u32::MAX, Vec::new());
    for (u, v, line) in picked {
        if dist.0 != u {
            dist = (u, bfs_distances_csr(&checker.csr, NodeId(u)));
        }
        tally.record(match (dist.1[v as usize], parse_dist(line)) {
            (Some(d), Ok(answer)) => {
                check_dist(d, answer).map_err(|e| format!("DIST {u} {v}: {e}"))
            }
            (None, _) => Err(format!("{u} and {v} are disconnected")),
            (_, Err(e)) => Err(e),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_checker() -> Checker {
        Checker {
            csr: CsrAdjacency::from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        }
    }

    fn q(route: bool, u: u32, v: u32) -> QueryPair {
        QueryPair { route, u, v }
    }

    #[test]
    fn well_formed_replies_pass() {
        let c = path_checker();
        let qs = [q(false, 0, 3), q(true, 0, 3), q(true, 2, 2)];
        let reply = "OK BATCH 3\nOK 3\nOK 3 0 1 2 3\nOK 0 2\n";
        assert_eq!(c.check_reply(true, &qs, reply), Ok(()));
        assert_eq!(c.check_reply(false, &qs[..1], "OK 3\n"), Ok(()));
        assert_eq!(check_dist(2, 6), Ok(()));
        assert_eq!(compare(reply, reply), Ok(()));
    }

    #[test]
    fn corrupted_replies_are_rejected() {
        let c = path_checker();
        let route = [q(true, 0, 3)];
        for bad in [
            "OK BATCH 1\nOK 2 0 2 3\n",   // 0-2 is not an edge
            "OK BATCH 1\nOK 3 1 1 2 3\n", // starts at the wrong node
            "OK BATCH 1\nOK 2 0 1 2\n",   // ends at the wrong node
            "OK BATCH 1\nOK 4 0 1 2 3\n", // hop count disagrees with the path
            "OK BATCH 1\nOK 3 0 1 2 9\n", // leaves the graph
            "OK BATCH 1\nERR PARSE x\n",
            "OK BATCH 2\nOK 3 0 1 2 3\n",
            "OK BATCH 1\nOK 3 0 1 2 3\nOK 1\n",
        ] {
            assert!(c.check_reply(true, &route, bad).is_err(), "{bad:?}");
        }
        assert!(c.check_reply(false, &[q(false, 0, 3)], "OK x\n").is_err());
        assert!(c
            .check_reply(false, &[q(false, 0, 3)], "ERR NODE 9\n")
            .is_err());
        assert!(check_dist(2, 7).is_err(), "beyond stretch 3");
        assert!(check_dist(2, 1).is_err(), "below the exact distance");
        assert!(compare("OK BATCH 1\nOK 3\n", "OK BATCH 1\nOK 4\n").is_err());
        assert!(compare("OK 3\n", "OK 3\nOK 3\n").is_err());
    }

    #[test]
    fn sampled_distances_are_checked_against_bfs() {
        let c = path_checker();
        let sampled = vec![(
            vec![q(false, 0, 3), q(true, 0, 1)],
            "OK 4\nOK 1 0 1\n".to_string(),
        )];
        let mut tally = Tally::default();
        check_dist_samples(&c, false, &sampled, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        let corrupted = vec![(vec![q(false, 0, 3)], "OK 10\n".to_string())];
        check_dist_samples(&c, false, &corrupted, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn request_stream_is_deterministic_in_the_seed() {
        let w = Serving {
            log2_n: 8,
            edges_per_node: 4,
            mode: Mode::Batch,
            attribution_requests: 1,
        };
        let take = |seed| {
            let mut s = w.stream(seed);
            (0..STREAM_BLOCK + 10).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(take(5), take(5));
        assert_ne!(take(5), take(6));
        let (qs, text) = w.next_request(&mut w.stream(5));
        assert_eq!(qs.len(), 64);
        assert!(text.starts_with("BATCH 64\n"));
    }
}
