//! The daemon's TCP mode, end to end: a client that sends one request
//! and waits is answered, and a second client is served while the first
//! connection is still open. Every wait has a deadline, so a regression
//! fails the test instead of hanging it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

const REQUEST: &str = r#"{"id": ID, "machine": "wide8", "source": "subroutine s(y, n)\nreal y(n)\ninteger i, n\ndo i = 1, n\ny(i) = y(i) * 2.0\nend do\nend"}"#;

/// The running daemon, killed when the test ends however it ends.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `presage-server --listen 127.0.0.1:0` and returns it with the
/// address it printed.
fn start() -> (Daemon, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_presage-server"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start presage-server");
    let stderr = child.stderr.take().expect("piped stderr");
    let daemon = Daemon(child);
    let (tx, rx) = mpsc::channel();
    // Keep draining stderr so per-connection summaries never block the
    // daemon on a full pipe.
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    loop {
        let line = rx.recv_timeout(TIMEOUT).expect("no listening line");
        if let Some(addr) = line.strip_prefix("presage-server: listening on ") {
            return (daemon, addr.to_string());
        }
    }
}

/// Connects, sends request `id` and leaves the connection open.
fn send(addr: &str, id: u64) -> (TcpStream, BufReader<TcpStream>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    writeln!(stream, "{}", REQUEST.replace("ID", &id.to_string())).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Reads one response line and checks it answers request `id`.
fn expect_answer(reader: &mut BufReader<TcpStream>, id: u64) {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .unwrap_or_else(|e| panic!("no answer to request {id}: {e}"));
    assert!(
        line.starts_with(&format!("{{\"id\":{id},\"ok\":true,")),
        "request {id}: {line}"
    );
}

#[test]
fn open_connections_are_answered_concurrently() {
    let (_daemon, addr) = start();
    let (_a, mut a_reader) = send(&addr, 1);
    expect_answer(&mut a_reader, 1);
    // A is still open: B must not queue behind it.
    let (_b, mut b_reader) = send(&addr, 2);
    expect_answer(&mut b_reader, 2);
}

#[test]
fn closing_a_connection_ends_its_stream_with_stats() {
    let (_daemon, addr) = start();
    let (a, mut a_reader) = send(&addr, 7);
    expect_answer(&mut a_reader, 7);
    a.shutdown(std::net::Shutdown::Write).unwrap();
    let mut line = String::new();
    a_reader.read_line(&mut line).expect("stats line");
    assert!(line.starts_with("{\"stats\":{\"jobs\":1,"), "{line}");
}
