//! `kset-serve` — consensus as a service over TCP.
//!
//! Binds a TCP listener and serves the [`kset_serve::wire`] line protocol,
//! one connection at a time (the decision channel has a single consumer;
//! see the wire module docs). Try it with netcat:
//!
//! ```text
//! $ kset-serve --addr 127.0.0.1:4790 --threads 2 &
//! $ printf 'RUN 5,6,7\nFLUSH\nQUIT\n' | nc 127.0.0.1:4790
//! ID 0
//! DECIDED 0 terminated=true 0:5 1:5 2:5
//! OK 1
//! ```

use std::io::BufReader;
use std::net::TcpListener;
use std::process::ExitCode;

use kset_serve::{wire, ServeConfig, Server, Workload};

const USAGE: &str = "usage: kset-serve [--addr HOST:PORT] [--threads N] [--n N] [--t N] \
                     [--batch EVENTS] [--max-live N] [--seed SEED]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Rejects the command line before the listener is bound: exit 2.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("kset-serve: usage error: {message}");
    usage()
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        usage_error(format_args!("{flag} needs a value"))
    };
    value
        .parse()
        .unwrap_or_else(|_| usage_error(format_args!("{flag}: cannot parse {value:?}")))
}

/// A count that must be at least 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(flag: &str, value: Option<String>) -> T {
    let parsed = parse(flag, value);
    if parsed == T::default() {
        usage_error(format_args!("{flag} must be positive"));
    }
    parsed
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:4790".to_string();
    let mut workload = Workload::flood_min(3, 1);
    let mut config = ServeConfig::new(workload);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse("--addr", args.next()),
            "--threads" => config.threads = positive("--threads", args.next()),
            "--n" => workload.n = positive("--n", args.next()),
            "--t" => workload.t = parse("--t", args.next()),
            "--batch" => config.batch = positive("--batch", args.next()),
            "--max-live" => config.max_live = positive("--max-live", args.next()),
            "--seed" => workload.seed = parse("--seed", args.next()),
            "--help" | "-h" => usage(),
            other => usage_error(format_args!("unknown flag {other}")),
        }
    }
    if workload.t >= workload.n {
        usage_error(format_args!(
            "--t must be below --n (FloodMin tolerates t < n), got --t {} with --n {}",
            workload.t, workload.n
        ));
    }
    config.workload = workload;

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(err) => {
            eprintln!("kset-serve: cannot bind {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let server = Server::start(config);
    let client = server.client();
    eprintln!(
        "kset-serve: listening on {addr} ({} workers, FloodMin n={} t={})",
        config.threads, workload.n, workload.t
    );

    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(err) => {
                eprintln!("kset-serve: accept failed: {err}");
                continue;
            }
        };
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        let reader = match stream.try_clone() {
            Ok(r) => BufReader::new(r),
            Err(err) => {
                eprintln!("kset-serve: cannot clone stream for {peer}: {err}");
                continue;
            }
        };
        match wire::serve_connection(&server, &client, reader, stream) {
            Ok(stats) => eprintln!(
                "kset-serve: {peer} done (proposed={} flushed={})",
                stats.proposed, stats.flushed
            ),
            Err(err) => eprintln!("kset-serve: {peer} errored: {err}"),
        }
    }
    drop(client);
    let stats = server.shutdown();
    eprintln!("kset-serve: served {} decisions", stats.decided);
    ExitCode::SUCCESS
}
