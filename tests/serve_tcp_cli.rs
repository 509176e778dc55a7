//! `linrec serve --tcp` outlives a failed `accept`: run out of file
//! descriptors (each session holds two), and the server keeps accepting
//! once the idle connections close.

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

#[test]
fn serve_tcp_survives_running_out_of_file_descriptors() {
    let program = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/tc_chain.lr");
    // The limit applies to the server's shell alone: 16 descriptors, four
    // of them stdio and the listener, cannot hold 12 sessions.
    let mut server = Server(
        Command::new("sh")
            .args([
                "-c",
                "ulimit -n 16 && exec \"$0\" serve \"$1\" --tcp 127.0.0.1:0",
                env!("CARGO_BIN_EXE_linrec"),
                program,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sh"),
    );
    let (tx, rx) = mpsc::channel();
    let stderr = server.0.stderr.take().unwrap();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    let wait_for = |needle: &str, secs: u64| -> Option<String> {
        let deadline = std::time::Instant::now() + Duration::from_secs(secs);
        while let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) {
            match rx.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return Some(line),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        None
    };
    let banner = wait_for("serving on ", 20).expect("server never came up");
    let addr = banner
        .split_whitespace()
        .nth(2)
        .expect("address in the banner")
        .to_owned();

    let idle: Vec<TcpStream> = (0..12)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    // A server that gives up on the failed `accept` still holds the idle
    // sessions, so its own error line only shows once they close.
    let exhausted = wait_for("os error 24", 5);
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
    drop(server);
    reader.join().expect("stderr reader");
}
