//! The `spanner-serve` binary: the query server over stdio or TCP.
//!
//! ```text
//! spanner-serve [--threads N] [--listen ADDR [--max-conns N]]
//!               [--load SPEC [--k K] [--seed S] [--routing]]
//! ```
//!
//! By default the server speaks the PROTOCOL.md line protocol on
//! stdin/stdout (pipe a script in, read responses out — the same framing
//! a TCP client would use). With `--listen ADDR` it accepts TCP
//! connections sequentially on `ADDR` instead, sharing one server (state
//! and counters persist across connections). `--load` pre-loads a graph
//! before serving, equivalent to a first `LOAD` line.

use std::net::TcpListener;
use std::process::ExitCode;

use spanner_serve::protocol::parse_spec;
use spanner_serve::{serve_listener, LoadRequest, ServeConfig, Server, Session};

struct Args {
    cfg: ServeConfig,
    listen: Option<String>,
    max_conns: Option<usize>,
    load: Option<LoadRequest>,
}

fn usage() -> ! {
    eprintln!(
        "usage: spanner-serve [--threads N] [--listen ADDR [--max-conns N]]\n\
         \x20                    [--load SPEC [--k K] [--seed S] [--routing]]\n\
         Serves the PROTOCOL.md line protocol on stdin/stdout (default) or TCP."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: ServeConfig::default(),
        listen: None,
        max_conns: None,
        load: None,
    };
    let mut load_spec: Option<String> = None;
    let mut k: u32 = 2;
    let mut seed: u64 = 1;
    let mut routing = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--threads" => {
                args.cfg.threads = value("--threads").parse().unwrap_or_else(|_| usage())
            }
            "--listen" => args.listen = Some(value("--listen")),
            "--max-conns" => {
                args.max_conns = Some(value("--max-conns").parse().unwrap_or_else(|_| usage()))
            }
            "--load" => load_spec = Some(value("--load")),
            "--k" => k = value("--k").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--routing" => routing = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }
    if args.cfg.threads == 0 {
        eprintln!("--threads must be at least 1");
        usage();
    }
    if let Some(spec) = load_spec {
        match parse_spec(&spec) {
            Ok(spec) => {
                args.load = Some(LoadRequest {
                    spec,
                    k,
                    seed,
                    routing,
                })
            }
            Err(e) => {
                eprintln!("--load: {}", e.line());
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut server = Server::new(args.cfg);
    if let Some(req) = &args.load {
        match server.load(req) {
            Ok(line) => eprintln!("preloaded: {line}"),
            Err(e) => {
                eprintln!("--load failed: {}", e.line());
                return ExitCode::from(2);
            }
        }
    }
    if let Some(addr) = &args.listen {
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot listen on {addr}: {e}");
                return ExitCode::from(2);
            }
        };
        eprintln!(
            "listening on {}",
            listener.local_addr().expect("bound address")
        );
        if let Err(e) = serve_listener(listener, server, args.max_conns) {
            eprintln!("serve error: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut session = Session::new(server);
    match session.run(stdin.lock(), stdout.lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve error: {e}");
            ExitCode::FAILURE
        }
    }
}
