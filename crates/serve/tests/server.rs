//! Integration tests for the serve layer: response correctness against
//! the oracle, thread-count determinism of responses *and* counters,
//! the error taxonomy, and the TCP front end.

use std::io::{BufRead, BufReader, Write};

use spanner_graph::distance::UNREACHABLE;
use spanner_graph::{generators, Graph, NodeId};
use spanner_oracle::{DistanceOracle, RoutingScheme};
use spanner_serve::protocol::{MAX_M, MAX_N};
use spanner_serve::workload::{batch_script, generate, WorkloadSpec};
use spanner_serve::{QueryReq, ServeConfig, Server, Session, MAX_LINE};

fn session(threads: usize) -> Session {
    Session::new(Server::new(ServeConfig {
        threads,
        ..ServeConfig::default()
    }))
}

/// Every DIST response must equal `oracle.query` — the batching pipeline
/// may never change an answer.
#[test]
fn dist_matches_oracle_on_all_pairs() {
    let g = generators::connected_gnm(60, 180, 3);
    let oracle = DistanceOracle::build(&g, 2, 1);
    let mut s = session(4);
    s.server_mut()
        .load(&spanner_serve::LoadRequest {
            spec: spanner_serve::GraphSpec::Er {
                n: 60,
                m: 180,
                seed: 3,
            },
            k: 2,
            seed: 1,
            routing: false,
        })
        .unwrap();
    let mut reqs = Vec::new();
    for u in 0..60u32 {
        for v in 0..60u32 {
            reqs.push(QueryReq::Dist(u, v));
        }
    }
    let resps = s.server_mut().run_queries(&reqs);
    let mut i = 0;
    for u in 0..60u32 {
        for v in 0..60u32 {
            let d = oracle.query(NodeId(u), NodeId(v));
            let expect = if d == UNREACHABLE {
                "OK UNREACHABLE".to_string()
            } else {
                format!("OK {d}")
            };
            assert_eq!(resps[i], expect, "pair ({u},{v})");
            i += 1;
        }
    }
}

#[test]
fn dist_matches_oracle_on_disconnected_graph() {
    // Build via a file spec so the file loader is exercised end-to-end.
    let dir = std::env::temp_dir().join(format!("serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("disconnected.edges");
    std::fs::write(&path, "0 1\n1 2\n# comment\n\n4 5\n5 6\n").unwrap();
    let g = Graph::from_edges(7, [(0u32, 1), (1, 2), (4, 5), (5, 6)]);
    let oracle = DistanceOracle::build(&g, 2, 1);
    let mut s = session(2);
    let script = format!("LOAD file:{}\n", path.display());
    let out = s.handle_script(&script);
    assert_eq!(out, "OK n=7 m=4 k=2 landmarks=-\n");
    for u in 0..7u32 {
        for v in 0..7u32 {
            let resp = &s.server_mut().run_queries(&[QueryReq::Dist(u, v)])[0];
            let d = oracle.query(NodeId(u), NodeId(v));
            let expect = if d == UNREACHABLE {
                "OK UNREACHABLE".to_string()
            } else {
                format!("OK {d}")
            };
            assert_eq!(*resp, expect, "pair ({u},{v})");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn route_matches_routing_scheme() {
    let g = generators::grid(5, 6);
    let scheme = RoutingScheme::build(&g, 9);
    let mut s = session(3);
    let out = s.handle_script("LOAD grid:rows=5,cols=6 seed=9 routing=on\n");
    assert!(out.starts_with("OK n=30 m=49 k=2 landmarks="), "{out}");
    for (u, v) in [(0u32, 29), (7, 7), (12, 3), (29, 0)] {
        let resp = &s.server_mut().run_queries(&[QueryReq::Route(u, v)])[0];
        let path = scheme.try_route(NodeId(u), NodeId(v)).unwrap().unwrap();
        let mut expect = format!("OK {}", path.len() - 1);
        for w in &path {
            expect.push(' ');
            expect.push_str(&w.0.to_string());
        }
        assert_eq!(*resp, expect, "pair ({u},{v})");
    }
}

/// The acceptance-criterion invariant: an identical query stream produces
/// identical responses — and, by the sequential-commit design, identical
/// STATS — at threads 1 and 8.
#[test]
fn identical_streams_identical_responses_at_threads_1_and_8() {
    let spec = WorkloadSpec {
        nodes: 400,
        queries: 4000,
        zipf_frac: 0.7,
        zipf_theta: 0.99,
        route_frac: 0.2,
        seed: 5,
    };
    let mut script = String::from("LOAD er:n=400,m=1600,seed=2 routing=on\n");
    for chunk in generate(&spec).chunks(64) {
        script.push_str(&batch_script(chunk));
    }
    script.push_str("STATS\n");
    let out1 = session(1).handle_script(&script);
    let out8 = session(8).handle_script(&script);
    assert_eq!(out1, out8);
    // Sanity: the stream ran both query kinds without errors.
    let stats_line = out1.lines().last().unwrap();
    assert!(stats_line.contains(" errors=0 "), "{stats_line}");
    assert!(!stats_line.contains(" dist=0 "), "{stats_line}");
    assert!(!stats_line.contains(" route=0 "), "{stats_line}");
}

#[test]
fn error_taxonomy_end_to_end() {
    let mut s = session(2);
    let out = s.handle_script(
        "DIST 0 1\n\
         ROUTE 0 1\n\
         LOAD path:n=5\n\
         ROUTE 0 1\n\
         DIST 5 0\n\
         DIST 0 99\n\
         NONSENSE 1 2\n\
         DIST 1\n\
         LOAD blob:n=4\n\
         BATCH 2\n\
         STATS\n\
         DIST 0 oops\n",
    );
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines[0], "ERR NO-GRAPH no graph loaded; send LOAD first");
    assert_eq!(lines[1], "ERR NO-GRAPH no graph loaded; send LOAD first");
    assert_eq!(lines[2], "OK n=5 m=4 k=2 landmarks=-");
    assert_eq!(
        lines[3],
        "ERR NO-ROUTING routing tables not built; reload with routing=on"
    );
    assert_eq!(
        lines[4],
        "ERR UNKNOWN-NODE node 5 out of range: graph has 5 nodes"
    );
    assert_eq!(
        lines[5],
        "ERR UNKNOWN-NODE node 99 out of range: graph has 5 nodes"
    );
    assert_eq!(lines[6], "ERR PARSE unknown command NONSENSE");
    assert_eq!(lines[7], "ERR PARSE DIST expects 2 arguments");
    assert_eq!(lines[8], "ERR BADSPEC unknown generator blob");
    assert_eq!(lines[9], "OK BATCH 2");
    assert_eq!(
        lines[10],
        "ERR UNSUPPORTED only DIST and ROUTE are allowed in a batch, got STATS"
    );
    assert_eq!(lines[11], "ERR PARSE invalid node id oops");
    assert_eq!(lines.len(), 12);
    // Queries (incl. erroneous batch subs) were counted; parse/LOAD
    // failures outside batches never reach the pipeline.
    assert_eq!(s.server().stats().queries, 7);
    assert_eq!(s.server().stats().errors, 7);
}

#[test]
fn truncated_batch_reports_and_recovers() {
    let mut s = session(1);
    let out = s.handle_script("LOAD path:n=3\nBATCH 3\nDIST 0 1\n");
    assert_eq!(
        out,
        "OK n=3 m=2 k=2 landmarks=-\nERR TRUNCATED batch expected 3 sub-commands, got 1\n"
    );
}

/// A request line that is not UTF-8 is a `PARSE` error, at top level and
/// inside a batch, and the session keeps serving.
#[test]
fn non_utf8_request_line_is_a_parse_error() {
    let mut s = session(1);
    let mut input = b"LOAD path:n=3\nDIST \xff 1\nBATCH 2\n\xc3\x28\nDIST 0 2\nPING\n".to_vec();
    input.extend_from_slice(b"DIST 0 1\r\n");
    let mut out = Vec::new();
    s.run(input.as_slice(), &mut out).unwrap();
    let bad = "ERR PARSE request line is not valid UTF-8";
    assert_eq!(
        String::from_utf8(out).unwrap(),
        format!("OK n=3 m=2 k=2 landmarks=-\n{bad}\nOK BATCH 2\n{bad}\nOK 2\nOK PONG\nOK 1\n")
    );
}

/// A request line longer than `MAX_LINE` bytes is a `TOOLONG` error, at
/// top level and inside a batch; the rest of the line is skipped and the
/// session keeps serving. A line of exactly `MAX_LINE` bytes is read.
#[test]
fn overlong_request_line_is_skipped() {
    let mut s = session(1);
    let long = format!("DIST 0 1{}", " ".repeat(MAX_LINE));
    let fits = format!("DIST 0 2{}", " ".repeat(MAX_LINE - 8));
    let input = format!("LOAD path:n=3\n{long}\nPING\nBATCH 3\n{long}\n{fits}\nDIST 0 1\n{long}");
    let mut out = Vec::new();
    s.run(input.as_bytes(), &mut out).unwrap();
    let bad = format!("ERR TOOLONG request line longer than {MAX_LINE} bytes");
    assert_eq!(
        String::from_utf8(out).unwrap(),
        format!(
            "OK n=3 m=2 k=2 landmarks=-\n{bad}\nOK PONG\nOK BATCH 3\n{bad}\nOK 2\nOK 1\n{bad}\n"
        )
    );
}

/// An `er` edge count within n(n−1)/2 but over `MAX_M` is a `BADSPEC`
/// error, not an allocation abort, and the graph loaded before it keeps
/// serving.
#[test]
fn er_edge_count_over_the_cap_is_a_bad_spec() {
    let mut s = session(1);
    let out =
        s.handle_script("LOAD path:n=3\nLOAD er:n=16777216,m=100000000000000,seed=1\nDIST 0 2\n");
    assert_eq!(
        out,
        format!(
            "OK n=3 m=2 k=2 landmarks=-\n\
             ERR BADSPEC m must be at most {MAX_M}, got 100000000000000\nOK 2\n"
        )
    );
}

/// A `file:` edge list naming an id at or over the `MAX_N` node cap is a
/// `BADSPEC` error naming the line, and the graph loaded before it keeps
/// serving.
#[test]
fn file_ids_over_the_node_cap_are_a_bad_spec() {
    let dir = std::env::temp_dir().join(format!("serve_cap_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut script = String::from("LOAD path:n=3\n");
    let mut expect = String::from("OK n=3 m=2 k=2 landmarks=-\n");
    for (name, id) in [("cap", MAX_N), ("far", 4_000_000_000), ("max", u32::MAX)] {
        let path = dir.join(format!("{name}.edges"));
        std::fs::write(&path, format!("0 1\n1 {id}\n")).unwrap();
        script += &format!("LOAD file:{}\nDIST 0 2\n", path.display());
        expect +=
            &format!("ERR BADSPEC node id {id} on line 2 exceeds the {MAX_N}-node cap\nOK 2\n");
    }
    let out = session(1).handle_script(&script);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out, expect);
}

#[test]
fn batch_preserves_request_order_with_mixed_validity() {
    let mut s = session(4);
    let out = s.handle_script(
        "LOAD cycle:n=10\n\
         BATCH 5\n\
         DIST 0 5\n\
         DIST 42 0\n\
         DIST 3 3\n\
         STATS\n\
         DIST 0 1\n",
    );
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines[1], "OK BATCH 5");
    assert_eq!(lines[2], "OK 5"); // cycle antipodal
    assert_eq!(
        lines[3],
        "ERR UNKNOWN-NODE node 42 out of range: graph has 10 nodes"
    );
    assert_eq!(lines[4], "OK 0");
    assert_eq!(
        lines[5],
        "ERR UNSUPPORTED only DIST and ROUTE are allowed in a batch, got STATS"
    );
    assert_eq!(lines[6], "OK 1");
}

/// DIST takes one path for every k: each response equals `oracle.query`,
/// and the `bunch_probes` / `witness_reads` counters are the sums of
/// `oracle.query_cost` over the stream, at 1 and at 8 threads.
#[test]
fn dist_takes_one_query_path_for_every_k() {
    let g = generators::connected_gnm(80, 320, 6);
    let reqs: Vec<QueryReq> = (0..80u32)
        .flat_map(|u| [QueryReq::Dist(u, 79 - u), QueryReq::Dist(u, (u * 7) % 80)])
        .collect();
    for k in 1..=4u32 {
        let oracle = DistanceOracle::build(&g, k, 2);
        let (mut probes, mut reads) = (0u64, 0u64);
        let expect: Vec<String> = reqs
            .iter()
            .map(|req| {
                let QueryReq::Dist(u, v) = *req else {
                    unreachable!("DIST-only stream")
                };
                let (d, cost) = oracle.query_cost(NodeId(u), NodeId(v)).unwrap();
                probes += cost.bunch_probes as u64;
                reads += cost.witness_reads as u64;
                if d == UNREACHABLE {
                    "OK UNREACHABLE".to_string()
                } else {
                    format!("OK {d}")
                }
            })
            .collect();
        for threads in [1usize, 8] {
            let mut s = session(threads);
            let out = s.handle_script(&format!("LOAD er:n=80,m=320,seed=6 k={k} seed=2\n"));
            assert_eq!(out, format!("OK n=80 m=320 k={k} landmarks=-\n"));
            let resps = s.server_mut().run_queries(&reqs);
            assert_eq!(resps, expect, "k = {k}, threads = {threads}");
            let st = s.server().stats();
            assert_eq!(st.dist_queries, reqs.len() as u64);
            assert_eq!(st.bunch_probes, probes, "k = {k}, threads = {threads}");
            assert_eq!(st.witness_reads, reads, "k = {k}, threads = {threads}");
        }
    }
}

/// `FLUSH` is not a command: it gets the same `PARSE` error as any
/// unknown command, and the session keeps serving.
#[test]
fn flush_is_an_unknown_command() {
    let out = session(1).handle_script("LOAD path:n=3\nFLUSH\nNONSENSE\nDIST 0 2\n");
    assert_eq!(
        out,
        "OK n=3 m=2 k=2 landmarks=-\nERR PARSE unknown command FLUSH\n\
         ERR PARSE unknown command NONSENSE\nOK 2\n"
    );
}

/// The TCP front end serves the same protocol; state persists across
/// connections.
#[test]
fn tcp_sessions_share_server_state() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Server::new(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let handle =
        std::thread::spawn(move || spanner_serve::serve_listener(listener, server, Some(2)));

    let talk = |script: &str| -> Vec<String> {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(script.as_bytes()).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        BufReader::new(conn).lines().map(|l| l.unwrap()).collect()
    };

    let first = talk("PING\nLOAD cycle:n=12\nDIST 0 6\nQUIT\n");
    assert_eq!(
        first,
        ["OK PONG", "OK n=12 m=12 k=2 landmarks=-", "OK 6", "OK BYE"]
    );
    // Second connection: the graph is still loaded.
    let second = talk("DIST 0 3\nSTATS\n");
    assert_eq!(second[0], "OK 3");
    assert!(second[1].starts_with("OK nodes=12 m") || second[1].starts_with("OK nodes=12 "));

    let server = handle.join().unwrap().unwrap();
    assert_eq!(server.stats().queries, 2);
}
