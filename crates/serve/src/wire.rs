//! Minimal line protocol for driving a [`Server`] over a byte stream.
//!
//! One text command per line:
//!
//! | command              | effect                                            |
//! |----------------------|---------------------------------------------------|
//! | `RUN v0,v1,...`      | propose an instance, reply `ID <id>`              |
//! | `FLUSH`              | wait for every outstanding decision of this       |
//! |                      | connection; reply one `DECIDED` line per instance |
//! |                      | (ascending id) then `OK <count>`                  |
//! | `STATS`              | reply `STATS proposed=<p> flushed=<f>`            |
//! | `QUIT` (or EOF)      | close the connection                              |
//!
//! A decision line looks like `DECIDED 17 terminated=true 0:4 1:4 2:4` —
//! instance id, termination flag, then `process:value` pairs. Malformed or
//! unknown input earns an `ERR <reason>` line and the connection stays up;
//! so does a line longer than [`MAX_LINE_BYTES`], which is discarded
//! unread so that no client can make the server buffer without bound.
//!
//! The protocol is synchronous and single-tenant by design: the server's
//! decision channel has one consumer, so the `kset-serve` binary serves
//! one connection at a time. The interesting concurrency — millions of
//! in-flight instances — lives behind [`Server`], not in the framing.

use std::io::{self, BufRead, Read, Write};

use crate::decision::Decision;
use crate::server::{ServeClient, Server};

/// Longest command line [`serve_connection`] accepts, in bytes, not
/// counting the newline. A `RUN` line for thousands of processes fits.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Per-connection totals returned by [`serve_connection`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Instances proposed over this connection.
    pub proposed: u64,
    /// Decisions delivered back over this connection.
    pub flushed: u64,
}

/// Parses a `v0,v1,...` comma-separated input vector.
pub fn parse_inputs(csv: &str) -> Option<Vec<u64>> {
    csv.split(',')
        .map(|part| part.trim().parse::<u64>().ok())
        .collect()
}

/// Formats one decision as its `DECIDED` wire line (without newline).
pub fn decision_line(decision: &Decision) -> String {
    let mut line = format!(
        "DECIDED {} terminated={}",
        decision.id,
        decision.record.terminated()
    );
    for (&pid, &value) in decision.record.decisions() {
        line.push_str(&format!(" {pid}:{value}"));
    }
    line
}

/// Reads the next line into `line`, without its newline. Returns `None`
/// at end of input, and `Some(false)` for a line over [`MAX_LINE_BYTES`]:
/// its bytes are consumed up to the next newline but not kept.
fn next_line<R: BufRead>(input: &mut R, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
    let limit = MAX_LINE_BYTES as u64 + 1; // the line plus its newline
    let mut fits = true;
    loop {
        line.clear();
        if Read::take(&mut *input, limit).read_until(b'\n', line)? == 0 {
            return Ok((!fits).then_some(false));
        }
        if line.last() == Some(&b'\n') {
            line.pop();
            return Ok(Some(fits));
        }
        if line.len() <= MAX_LINE_BYTES {
            return Ok(Some(fits)); // the input ends without a newline
        }
        fits = false;
    }
}

/// Serves one connection: reads commands from `input`, writes replies to
/// `output`, until `QUIT` or EOF. Returns the connection's totals.
///
/// # Errors
///
/// Propagates I/O errors, and fails with [`io::ErrorKind::InvalidData`] on
/// a line that is not UTF-8.
pub fn serve_connection<R: BufRead, W: Write>(
    server: &Server,
    client: &ServeClient,
    mut input: R,
    mut output: W,
) -> io::Result<ConnStats> {
    let mut stats = ConnStats::default();
    let mut outstanding: u64 = 0;
    let mut buf = Vec::new();
    while let Some(fits) = next_line(&mut input, &mut buf)? {
        if !fits {
            writeln!(output, "ERR line longer than {MAX_LINE_BYTES} bytes")?;
            output.flush()?;
            continue;
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .trim();
        if line.is_empty() {
            continue;
        }
        let (command, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match command {
            "RUN" => match parse_inputs(rest) {
                Some(inputs) => match client.propose(inputs) {
                    Ok(id) => {
                        stats.proposed += 1;
                        outstanding += 1;
                        writeln!(output, "ID {id}")?;
                    }
                    Err(err) => writeln!(output, "ERR {err}")?,
                },
                None => writeln!(output, "ERR expected RUN v0,v1,...")?,
            },
            "FLUSH" => {
                let mut batch = Vec::with_capacity(outstanding as usize);
                while outstanding > 0 {
                    match server.recv_decision() {
                        Some(decision) => {
                            outstanding -= 1;
                            batch.push(decision);
                        }
                        None => break, // workers gone; report what we have
                    }
                }
                batch.sort_by_key(|d| d.id);
                stats.flushed += batch.len() as u64;
                for decision in &batch {
                    writeln!(output, "{}", decision_line(decision))?;
                }
                writeln!(output, "OK {}", batch.len())?;
            }
            "STATS" => {
                writeln!(
                    output,
                    "STATS proposed={} flushed={}",
                    stats.proposed, stats.flushed
                )?;
            }
            "QUIT" => break,
            _ => writeln!(output, "ERR unknown command {command}")?,
        }
        output.flush()?;
    }
    output.flush()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Workload;
    use crate::server::{ServeConfig, Server};

    #[test]
    fn run_flush_round_trip() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        let client = server.client();
        let script = "RUN 5,6,7\nRUN 1,1,1\nFLUSH\nSTATS\nQUIT\n";
        let mut reply = Vec::new();
        let stats = serve_connection(&server, &client, script.as_bytes(), &mut reply).unwrap();
        assert_eq!(
            stats,
            ConnStats {
                proposed: 2,
                flushed: 2
            }
        );
        let reply = String::from_utf8(reply).unwrap();
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "ID 0");
        assert_eq!(lines[1], "ID 1");
        assert!(lines[2].starts_with("DECIDED 0 terminated=true "));
        assert!(lines[3].starts_with("DECIDED 1 terminated=true "));
        assert_eq!(lines[4], "OK 2");
        assert_eq!(lines[5], "STATS proposed=2 flushed=2");
        drop(client);
        assert_eq!(server.shutdown().decided, 2);
    }

    #[test]
    fn malformed_lines_get_err_replies() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        let client = server.client();
        let script = "RUN nope\nRUN 1,2\nPING\nQUIT\n";
        let mut reply = Vec::new();
        serve_connection(&server, &client, script.as_bytes(), &mut reply).unwrap();
        let reply = String::from_utf8(reply).unwrap();
        for line in reply.lines() {
            assert!(line.starts_with("ERR "), "unexpected reply: {line}");
        }
        drop(client);
        server.shutdown();
    }

    #[test]
    fn overlong_lines_get_err_and_create_no_instance() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        let client = server.client();
        let long = format!("RUN {}1,1,1", "1,".repeat(MAX_LINE_BYTES / 2));
        let at_limit = format!("RUN 2,2,2{}", " ".repeat(MAX_LINE_BYTES - 9));
        let script = format!("{long}\n{at_limit}\nFLUSH\n{long}");
        let mut reply = Vec::new();
        let stats = serve_connection(&server, &client, script.as_bytes(), &mut reply).unwrap();
        assert_eq!(
            stats,
            ConnStats {
                proposed: 1,
                flushed: 1
            }
        );
        let reply = String::from_utf8(reply).unwrap();
        let lines: Vec<&str> = reply.lines().collect();
        let err = format!("ERR line longer than {MAX_LINE_BYTES} bytes");
        assert_eq!(lines[0], err);
        assert_eq!(lines[1], "ID 0", "the over-long line proposed nothing");
        assert!(lines[2].starts_with("DECIDED 0 terminated=true "));
        assert_eq!(lines[3], "OK 1");
        assert_eq!(lines[4], err, "an unterminated over-long last line");
        assert_eq!(lines.len(), 5);
        drop(client);
        assert_eq!(server.shutdown().decided, 1);
    }
}
