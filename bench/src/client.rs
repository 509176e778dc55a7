//! Driving the real `linrec` binary from outside: child processes, the
//! line protocol over one TCP connection, and what the kernel accounted
//! to each child.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request that gets no complete reply within this is a failed run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// A server that does not announce its port within this is a failed run.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
pub struct Reaped {
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
    /// Exit code; `None` when a signal ended it.
    pub exit_code: Option<i32>,
}

/// Wait for `child` to end and return its resource usage. The child must
/// not be waited for again through `std` (it is already reaped).
fn reap(child: &mut Child) -> io::Result<Reaped> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through the
    // two pointers, both of which point at live, properly sized and
    // aligned locals (`Rusage` mirrors the 64-bit Linux layout); the pid
    // is our own unreaped child, so no other process can be affected.
    let pid = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if pid < 0 {
        return Err(io::Error::last_os_error());
    }
    let signalled = status & 0x7f != 0;
    Ok(Reaped {
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        exit_code: (!signalled).then_some((status >> 8) & 0xff),
    })
}

/// A running `linrec serve --tcp 127.0.0.1:0` child.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Everything the server wrote to stderr before it announced its port
    /// (store recovery line, view line with maintenance mode and plan).
    pub banner: Vec<String>,
    drain: Option<JoinHandle<()>>,
    reaped: bool,
}

/// A run that fails half-way must not leave its servers behind.
impl Drop for Server {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Server {
    /// Spawn the server on `program` with a durable store at `data_dir`
    /// and wait until it prints the address it listens on.
    pub fn spawn(
        linrec: &Path,
        program: &Path,
        data_dir: &Path,
        checkpoint_batches: usize,
    ) -> io::Result<Server> {
        let mut child = Command::new(linrec)
            .arg("serve")
            .arg(program)
            .args(["--tcp", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .args(["--checkpoint-batches", &checkpoint_batches.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr was piped");
        // The server may log at any time (slow requests, faults); keep
        // reading so it never blocks on a full pipe.
        let (tx, rx) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            // Lines after the banner have no receiver and are dropped; the
            // loop still reads them to EOF.
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            banner: Vec::new(),
            drain: Some(drain),
            reaped: false,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("serving on ") {
                        server.addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                        server.banner.push(line);
                        return Ok(server);
                    }
                    server.banner.push(line);
                }
                Err(_) => {
                    let banner = server.banner.join(" | ");
                    return Err(io::Error::other(format!(
                        "server did not start listening: {banner}"
                    )));
                }
            }
        }
    }

    /// Open the one connection the workload uses. The client sets only
    /// its own `TCP_NODELAY`; what the server's replies cost on the wire
    /// is part of what is measured.
    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// `SIGKILL` the server — no shutdown path runs, so the data
    /// directory holds exactly what was flushed — and reap it.
    pub fn kill(mut self) -> io::Result<Reaped> {
        self.child.kill()?;
        let reaped = reap(&mut self.child)?;
        self.reaped = true;
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        Ok(reaped)
    }
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The closing line of a reply (`ok …` / `err …`) and how many lines
/// (`row …`, `stat …`) came before it.
pub struct ReplyLine {
    pub last: String,
    pub body_lines: usize,
}

impl Conn {
    /// Write `lines` in one segment (pipelined) and read one complete
    /// reply per line; returns the replies in order.
    pub fn exchange(&mut self, lines: &[&str]) -> io::Result<Vec<ReplyLine>> {
        let mut request = String::new();
        for line in lines {
            request.push_str(line);
            request.push('\n');
        }
        self.writer.write_all(request.as_bytes())?;
        lines.iter().map(|_| self.read_reply()).collect()
    }

    /// One request, one reply.
    pub fn request(&mut self, line: &str) -> io::Result<ReplyLine> {
        Ok(self.exchange(&[line])?.remove(0))
    }

    fn read_reply(&mut self) -> io::Result<ReplyLine> {
        let mut body_lines = 0;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let text = line.trim_end();
            if text == "ok" || text.starts_with("ok ") || text.starts_with("err ") {
                return Ok(ReplyLine {
                    last: text.to_owned(),
                    body_lines,
                });
            }
            body_lines += 1;
        }
    }
}

/// What one `linrec run` printed and cost.
pub struct RunOutput {
    pub stdout: String,
    pub wall: Duration,
    pub reaped: Reaped,
}

/// `linrec run <program> [pos=v …]` as a child, spawn to exit.
pub fn run_query(linrec: &Path, program: &Path, args: &[String]) -> io::Result<RunOutput> {
    let started = Instant::now();
    let mut child = Command::new(linrec)
        .arg("run")
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout)?;
    let reaped = reap(&mut child)?;
    Ok(RunOutput {
        stdout,
        wall: started.elapsed(),
        reaped,
    })
}

/// Build the `linrec` binary of the checkout the benchmark runs in and
/// return its path. Cargo decides whether anything needs compiling.
pub fn build_linrec(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "linrec",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of the linrec binary failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = root.join(target).join("release").join("linrec");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built binary not found at {}", bin.display()))
    }
}
