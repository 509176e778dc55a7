//! `linrec serve --tcp` over the real binary:
//!
//! * it outlives a failed `accept`: run out of file descriptors (each
//!   session holds two), and the server keeps accepting once the idle
//!   connections close;
//! * a durable server killed with SIGKILL after commits over TCP comes
//!   back with every acknowledged batch, replayed from the WAL tail.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Kills the server when the test ends, pass or fail.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A server whose stderr lines arrive on a channel.
struct Spawned {
    server: Server,
    lines: mpsc::Receiver<String>,
    reader: std::thread::JoinHandle<()>,
}

impl Spawned {
    fn new(mut command: Command) -> Spawned {
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the server");
        let (tx, lines) = mpsc::channel();
        let stderr = child.stderr.take().unwrap();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        Spawned {
            server: Server(child),
            lines,
            reader,
        }
    }

    /// The first stderr line containing `needle` within `secs` seconds.
    fn wait_for(&self, needle: &str, secs: u64) -> Option<String> {
        let deadline = std::time::Instant::now() + Duration::from_secs(secs);
        while let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) {
            match self.lines.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return Some(line),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        None
    }

    /// The address the `serving on ADDR …` banner names.
    fn address(&self) -> String {
        let banner = self
            .wait_for("serving on ", 20)
            .expect("server never came up");
        banner
            .split_whitespace()
            .nth(2)
            .expect("address in the banner")
            .to_owned()
    }

    fn stop(self) {
        drop(self.server);
        self.reader.join().expect("stderr reader");
    }
}

fn tc_chain() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/tc_chain.lr")
}

/// Send one request line and read its one-line reply.
fn ask(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut reply = String::new();
    conn.read_line(&mut reply).unwrap();
    reply.trim_end().to_owned()
}

#[test]
fn serve_tcp_survives_running_out_of_file_descriptors() {
    // The limit applies to the server's shell alone: 16 descriptors, four
    // of them stdio and the listener, cannot hold 12 sessions.
    let mut command = Command::new("sh");
    command.args([
        "-c",
        "ulimit -n 16 && exec \"$0\" serve \"$1\" --tcp 127.0.0.1:0",
        env!("CARGO_BIN_EXE_linrec"),
        tc_chain(),
    ]);
    let server = Spawned::new(command);
    let addr = server.address();

    let idle: Vec<TcpStream> = (0..12)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    // A server that gives up on the failed `accept` still holds the idle
    // sessions, so its own error line only shows once they close.
    let exhausted = server.wait_for("os error 24", 5);
    drop(idle);

    let mut conn = TcpStream::connect(&addr).expect("server stopped accepting");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    conn.write_all(b"epoch\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&conn).read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ok epoch "), "{reply:?}");
    assert!(
        exhausted.is_some(),
        "12 idle sessions never exhausted the descriptor limit"
    );
    server.stop();
}

#[test]
fn sigkill_after_tcp_commits_recovers_them_from_the_wal_tail() {
    let dir = std::env::temp_dir().join(format!("linrec-serve-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serve = || {
        let mut command = Command::new(env!("CARGO_BIN_EXE_linrec"));
        command
            .arg("serve")
            .arg(tc_chain())
            .args(["--tcp", "127.0.0.1:0"]);
        command.arg("--data-dir").arg(&dir);
        // No checkpoint folds the six batches: all of them stay in the tail.
        command.args(["--checkpoint-batches", "100"]);
        Spawned::new(command)
    };

    let first = serve();
    let stream = TcpStream::connect(first.address()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    for i in 5..11 {
        let staged = ask(&mut conn, &format!("insert edge {i} {}", i + 1));
        assert!(staged.starts_with("ok staged"), "{staged}");
        let committed = ask(&mut conn, "commit");
        assert!(committed.starts_with("ok epoch"), "{committed}");
    }
    let count = ask(&mut conn, "count p");
    assert_eq!(count, "ok count 11", "the chain 1..11 from p(1,1)");
    // `Child::kill` is SIGKILL: no shutdown path runs.
    first.stop();

    let second = serve();
    let banner = second
        .wait_for("WAL batches replayed", 20)
        .expect("no recovery banner");
    assert!(banner.contains("6 WAL batches replayed"), "{banner}");
    let stream = TcpStream::connect(second.address()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    assert_eq!(ask(&mut conn, "count p"), count);
    second.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
