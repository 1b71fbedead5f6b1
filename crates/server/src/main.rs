//! `presage-server` — the JSON-lines prediction daemon.
//!
//! ```text
//! presage-server [--workers N] [--wave N] [--advance-every N] [--listen ADDR]
//! ```
//!
//! Without `--listen`, serves one request stream on stdin/stdout (the
//! mode `scripts/ci.sh --server-only` and the perfsuite soak drive).
//! With `--listen HOST:PORT`, accepts TCP connections and serves them
//! concurrently, one thread per connection, sharing one translation
//! cache — and one reclamation epoch timeline — across connections; each
//! connection is its own JSON-lines stream ended by the client's
//! shutdown. The bound address is printed to stderr, so `--listen
//! 127.0.0.1:0` picks a free port.

use presage_server::{Server, ServerConfig, ServerStats};
use std::io::{BufReader, BufWriter};
use std::net::TcpListener;

fn usage() -> ! {
    eprintln!("usage: presage-server [--workers N] [--wave N] [--advance-every N] [--listen ADDR]");
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig::default();
    let mut listen: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> usize {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a numeric argument");
                usage()
            })
        };
        match arg.as_str() {
            "--workers" => config.workers = num("--workers").max(1),
            "--wave" => config.wave_size = num("--wave").max(1),
            "--advance-every" => config.advance_every = num("--advance-every"),
            "--listen" => listen = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }

    let mut server = Server::new(config);
    let result = match listen {
        None => {
            // `StdinLock` is not `Send`; the server reads on its own thread.
            let stdout = std::io::stdout();
            server
                .run(BufReader::new(std::io::stdin()), &mut stdout.lock())
                .map(|stats| eprintln!("presage-server: {}", summary(&stats)))
        }
        Some(addr) => serve_tcp(&server, &addr),
    };
    if let Err(e) = result {
        eprintln!("presage-server: {e}");
        std::process::exit(1);
    }
}

/// The one-line run summary printed to stderr when a stream ends.
fn summary(stats: &ServerStats) -> String {
    format!(
        "{} jobs ({} ok, {} failed), {} waves, {} advances, p50 {}us p99 {}us, queue wait p50 {}us",
        stats.jobs,
        stats.ok,
        stats.failed,
        stats.waves,
        stats.advances,
        stats.latency.p50_us,
        stats.latency.p99_us,
        stats.queue_wait.p50_us,
    )
}

/// Accepts connections forever, serving each as one JSON-lines stream on
/// its own thread through a clone of `server`. Only a bind failure is
/// fatal: a connection that dies between accept and setup (reset
/// mid-handshake, dead socket on `peer_addr` or `try_clone`) or that
/// cannot get a thread is logged and dropped, so one bad client can never
/// take the daemon down. Under normal operation this never returns.
fn serve_tcp(server: &Server, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("presage-server: listening on {}", listener.local_addr()?);
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("presage-server: accept failed: {e}");
                continue;
            }
        };
        let peer = match stream.peer_addr() {
            Ok(p) => p.to_string(),
            Err(_) => "<unknown peer>".to_string(),
        };
        let reader = match stream.try_clone() {
            Ok(clone) => BufReader::new(clone),
            Err(e) => {
                eprintln!("presage-server: {peer}: cannot clone stream: {e}");
                continue;
            }
        };
        // Detached: the accept loop never ends to join it, so the thread
        // logs its own outcome.
        let mut server = server.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("conn {peer}"))
            .spawn(move || {
                let mut writer = BufWriter::new(stream);
                match server.run(reader, &mut writer) {
                    Ok(stats) => eprintln!("presage-server: {peer} closed: {}", summary(&stats)),
                    Err(e) => eprintln!("presage-server: {peer}: {e}"),
                }
            });
        if let Err(e) = spawned {
            eprintln!("presage-server: cannot start a connection thread: {e}");
        }
    }
    Ok(())
}
