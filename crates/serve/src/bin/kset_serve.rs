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

use kset_core::cli::Args;
use kset_serve::{wire, ServeConfig, Server, Workload};

/// The binary's name in usage errors.
const BIN: &str = "kset-serve";

const USAGE: &str = "usage: kset-serve [--addr HOST:PORT] [--threads N] [--n N] [--t N] \
                     [--batch EVENTS] [--max-live N] [--seed SEED]";

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:4790".to_string();
    let mut workload = Workload::flood_min(3, 1);
    let mut config = ServeConfig::new(workload);
    let mut args = Args::new(BIN);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.value("--addr"),
            "--threads" => config.threads = args.positive("--threads"),
            "--n" => workload.n = args.positive("--n"),
            "--t" => workload.t = args.number("--t"),
            "--batch" => config.batch = args.positive("--batch"),
            "--max-live" => config.max_live = args.positive("--max-live"),
            "--seed" => workload.seed = args.number("--seed"),
            "--help" | "-h" => args.error(USAGE),
            other => args.unknown(other),
        }
    }
    if workload.t >= workload.n {
        args.error(format_args!(
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
