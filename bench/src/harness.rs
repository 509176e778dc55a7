//! What the untraced and the traced run share: the run's configuration,
//! the failed-op ledger, reply parsing, and the record of the machine.

use crate::json::Json;
use crate::metrics::Measured;
use crate::stats;
use crate::workload::{Scale, Scenario, VIEW};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One benchmark run.
pub struct RunConfig {
    pub scenario: &'static Scenario,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// The `linrec` binary under test.
    pub linrec: PathBuf,
    /// Scratch space of this run, removed when it ends.
    pub run_dir: PathBuf,
    /// Where span files go (`bench/out`).
    pub out_dir: PathBuf,
    /// Test hook: halve the WAL of each crashed copy before the restart,
    /// so that acknowledged batches are missing. A run must then fail.
    pub sabotage_wal: bool,
}

/// What a run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// What the program said about itself (plan, maintenance mode, flags).
    pub reported: Vec<(&'static str, Json)>,
}

/// Counts ops and the ones that failed: answered `err`, or disagreeing
/// with the reference. Each failure is printed with the offending line.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Record one op; `detail` is only rendered for a failure.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED op: {}", detail());
        }
    }
}

/// Latency samples of one kind of op, in seconds.
#[derive(Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: std::time::Duration) {
        self.0.push(d.as_secs_f64());
    }

    /// The `p` percentile scaled to a unit (`per_second` units per
    /// second) as a metric; NaN when there is no sample.
    pub fn metric(
        &self,
        name: &'static str,
        unit: &'static str,
        p: f64,
        per_second: f64,
    ) -> Measured {
        Measured {
            name,
            value: stats::percentile(&self.0, p).map_or(f64::NAN, |s| s * per_second),
            unit,
            n: self.0.len(),
        }
    }
}

/// The fields of a commit acknowledgement:
/// `ok epoch 7 inserted 20/20; p: incremental +10 tuples in 1.234 ms`.
#[derive(Debug, PartialEq)]
pub struct CommitAck {
    pub inserted: u64,
    pub mode: String,
    pub grown: u64,
}

pub fn parse_commit(reply: &str) -> Option<CommitAck> {
    let rest = reply.strip_prefix("ok epoch ")?;
    let (head, views) = rest.split_once("; ")?;
    let inserted = head.split_once("inserted ")?.1.split_once('/')?.0;
    let view = views
        .split("; ")
        .find_map(|v| v.strip_prefix(&format!("{VIEW}: ")))?;
    let mut words = view.split_whitespace();
    let mode = words.next()?.to_owned();
    let grown = words.next()?.strip_prefix('+')?;
    Some(CommitAck {
        inserted: inserted.parse().ok()?,
        mode,
        grown: grown.parse().ok()?,
    })
}

/// `N` of the closing line of a `select`: `ok N rows`.
pub fn parse_rows(reply: &str) -> Option<usize> {
    reply
        .strip_prefix("ok ")?
        .strip_suffix(" rows")?
        .parse()
        .ok()
}

/// `N` of the `N tuples in … ms` line `linrec run` prints, and the plan's
/// first line (its shape).
pub fn parse_run_output(stdout: &str) -> (Option<u64>, Option<String>) {
    let tuples = stdout
        .lines()
        .find_map(|l| l.split_once(" tuples in ")?.0.trim().parse().ok());
    let plan = stdout
        .lines()
        .skip_while(|l| l.trim() != "plan:")
        .nth(1)
        .map(|l| l.trim().to_owned());
    (tuples, plan)
}

/// Copy the files of a data directory (it has no subdirectories).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Total size of the files in a data directory.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Cut every WAL file in `dir` to half its length: the later
/// acknowledged batches are gone, as if they had never been flushed.
pub fn halve_wal(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with("wal-") {
            let file = std::fs::OpenOptions::new().write(true).open(entry.path())?;
            file.set_len(file.metadata()?.len() / 2)?;
        }
    }
    Ok(())
}

/// Filesystem type of the mount that holds `dir`, from
/// `/proc/self/mountinfo` (longest mount point that prefixes it).
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_owned());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split(' ').nth(4)?;
            let fs = tail.split(' ').next()?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The machine and toolchain a result was measured on.
pub fn environment(cfg: &RunConfig) -> Json {
    let fs = fs_type(&cfg.out_dir);
    let mut fields = vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("fs_type", Json::str(&fs)),
        (
            "server_flags",
            Json::str(format!(
                "serve <program> --tcp 127.0.0.1:0 --data-dir <dir> --checkpoint-batches {} \
                 (default --threads)",
                cfg.scenario.checkpoint_every(cfg.scale)
            )),
        ),
    ];
    if fs == "tmpfs" || fs == "ramfs" {
        fields.push((
            "warning",
            Json::str("data directory is on a memory filesystem: fsync costs nothing, so WAL and checkpoint times mean nothing"),
        ));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commit_acknowledgements() {
        let ack = parse_commit(
            "ok epoch 7 inserted 20/20; p: incremental-decomposed +4000 tuples in 21.542 ms",
        );
        assert_eq!(
            ack,
            Some(CommitAck {
                inserted: 20,
                mode: "incremental-decomposed".to_owned(),
                grown: 4000
            })
        );
        // A batch that changed nothing reports the view as unchanged.
        let ack = parse_commit("ok epoch 7 inserted 1/2; p: unchanged +0 tuples in 0.010 ms");
        assert_eq!(ack.map(|a| (a.inserted, a.grown)), Some((1, 0)));
        assert_eq!(parse_commit("err busy writer queue full"), None);
        assert_eq!(parse_commit("ok epoch 1 inserted 0/0"), None);
    }

    #[test]
    fn parses_listings_and_run_output() {
        assert_eq!(parse_rows("ok 250 rows"), Some(250));
        assert_eq!(parse_rows("err unknown-view q"), None);
        let out = "plan:\nDecomposed (2 clusters, applied right-to-left)\n  star of …\n\
                   120000 tuples in 612.02 ms (tuples=120000 derivations=9)\n  p(1,2)\n";
        let (tuples, plan) = parse_run_output(out);
        assert_eq!(tuples, Some(120_000));
        assert_eq!(
            plan.as_deref(),
            Some("Decomposed (2 clusters, applied right-to-left)")
        );
        assert_eq!(parse_run_output("error: no such file"), (None, None));
    }
}
