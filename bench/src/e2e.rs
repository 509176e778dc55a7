//! The untraced run: the real `linrec` binary as child processes, one
//! client, one TCP connection, closed loop. Every latency is the client's
//! clock from the request bytes written to the last reply line read.

use crate::client::{run_query, Conn, Server};
use crate::harness::{
    copy_dir, halve_wal, parse_commit, parse_rows, parse_run_output, Ledger, Outcome, RunConfig,
    Samples,
};
use crate::json::Json;
use crate::metrics::Measured;
use crate::stats;
use crate::workload::{Ask, Inputs, Read, Select, VIEW};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Servers started per run to measure set-up (the median is reported).
const SETUPS: usize = 5;
/// The read loop runs at least this many reads however late the run is.
const MIN_READS: usize = 32;

type Error = Box<dyn std::error::Error>;

/// Times one `ask` and checks the answer.
fn ask(conn: &mut Conn, op: &Ask, reads: &mut Samples, ledger: &mut Ledger) -> Result<(), Error> {
    let t = Instant::now();
    let reply = conn.request(&op.line)?;
    reads.push(t.elapsed());
    ledger.check(reply.last == format!("ok {}", op.expect), || {
        format!(
            "`{}` answered `{}`, reference says {}",
            op.line, reply.last, op.expect
        )
    });
    Ok(())
}

/// Times one `select` and checks the row count twice: the `row` lines
/// received and the count the server states.
fn select(
    conn: &mut Conn,
    op: &Select,
    selects: &mut Samples,
    ledger: &mut Ledger,
) -> Result<(), Error> {
    let t = Instant::now();
    let reply = conn.request(&op.line)?;
    selects.push(t.elapsed());
    ledger.check(
        parse_rows(&reply.last) == Some(op.rows) && reply.body_lines == op.rows,
        || {
            format!(
                "`{}` answered {} row lines and `{}`, reference says {} rows",
                op.line, reply.body_lines, reply.last, op.rows
            )
        },
    );
    Ok(())
}

/// Spawn a server on `data_dir`, connect, and wait for `ok ready` and the
/// view's tuple count (one pipelined request). Returns the time from
/// spawn to that reply.
fn start(
    cfg: &RunConfig,
    program: &Path,
    data_dir: &Path,
    expect_count: u64,
    ledger: &mut Ledger,
) -> Result<(Server, Conn, Duration), Error> {
    let t = Instant::now();
    let server = Server::spawn(
        &cfg.linrec,
        program,
        data_dir,
        cfg.scenario.checkpoint_every(cfg.scale),
    )?;
    let mut conn = server.connect()?;
    let count = format!("count {VIEW}");
    let replies = conn.exchange(&["ready", &count])?;
    let took = t.elapsed();
    ledger.check(replies[0].last == "ok ready", || {
        format!("`ready` answered `{}`", replies[0].last)
    });
    ledger.check(
        replies[1].last == format!("ok count {expect_count}"),
        || {
            format!(
                "`{count}` on {} answered `{}`, reference says {expect_count}",
                data_dir.display(),
                replies[1].last
            )
        },
    );
    Ok((server, conn, took))
}

/// Run one workload end to end.
pub fn run(cfg: &RunConfig) -> Result<Outcome, Error> {
    let sc = cfg.scenario;
    let mut ledger = Ledger::default();
    let mut reported: Vec<(&'static str, Json)> = Vec::new();

    // Set-up: generate the inputs, write the program files, and start a
    // server on a fresh data directory until it answers `ready`.
    let t = Instant::now();
    let chunks = sc.chunks(cfg.seconds, cfg.scale);
    let inputs: Inputs = sc.generate(cfg.seed, cfg.scale, &chunks)?;
    std::fs::create_dir_all(&cfg.run_dir)?;
    let program = cfg.run_dir.join("served.dl");
    let query_program = cfg.run_dir.join("query.dl");
    std::fs::write(&program, &inputs.program)?;
    std::fs::write(&query_program, &inputs.query.program)?;
    let generate = t.elapsed();
    let mut starts = Samples::default();
    let mut live: Option<(Server, Conn, PathBuf)> = None;
    for k in 0..SETUPS {
        if let Some((server, _conn, dir)) = live.take() {
            server.kill()?;
            std::fs::remove_dir_all(dir)?;
        }
        let dir = cfg.run_dir.join(format!("data-{k}"));
        let (server, conn, took) = start(cfg, &program, &dir, inputs.initial_count, &mut ledger)?;
        starts.push(took);
        live = Some((server, conn, dir));
    }
    let (mut writer, mut conn, data_dir) = live.expect("SETUPS is at least one");
    let setup_s = generate.as_secs_f64() + stats::median(&starts.0).unwrap_or(f64::NAN);
    reported.push(("server_banner", Json::str(writer.banner.join(" | "))));

    // The measured run, in rounds. The box's speed drifts over seconds, so
    // samples of every kind are taken in every round rather than one kind
    // after the other; their medians then repeat better between runs.
    let measured = Instant::now();
    let (mut commits, mut reads, mut selects) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut recoveries, mut queries) = (Samples::default(), Samples::default());
    // Peak resident sets: of each server that held the whole view (the
    // writers, then the restarted ones), and the largest of a `run` child.
    let mut serve_rss_mb: Vec<f64> = Vec::new();
    let mut query_rss_mb = 0.0f64;
    let mut writing = Duration::ZERO;
    let mut edb_tuples = 0u64;
    let mut mode = String::new();
    let mut query_plan: Option<String> = None;
    let mut recovery_banner = String::new();
    // Restarts done so far, of `sc.recover_cycles`; queries and the read
    // loop's minimum are dealt out per restart.
    let mut cycle = 0;
    let share = |n: usize, k: usize| n * k / sc.recover_cycles;
    for (r, round) in inputs.rounds.iter().enumerate() {
        // Write loop: commit a batch (insert lines and `commit` pipelined
        // in one segment), read one tuple back, list one node's rows.
        let chunk = Instant::now();
        for it in &round.iterations {
            let mut lines: Vec<&str> = it.batch.lines.iter().map(String::as_str).collect();
            lines.push("commit");
            let t = Instant::now();
            let replies = conn.exchange(&lines)?;
            commits.push(t.elapsed());
            let (ack, staged) = replies.split_last().expect("commit was sent");
            for (line, reply) in lines.iter().zip(staged) {
                ledger.check(reply.last.starts_with("ok staged"), || {
                    format!("`{line}` answered `{}`", reply.last)
                });
            }
            let parsed = parse_commit(&ack.last);
            let wanted = (it.batch.lines.len() as u64, it.batch.grown);
            ledger.check(
                parsed.as_ref().map(|a| (a.inserted, a.grown)) == Some(wanted),
                || {
                    format!(
                        "`commit` answered `{}`, reference says inserted {} and +{} tuples",
                        ack.last, wanted.0, wanted.1
                    )
                },
            );
            if let Some(a) = parsed {
                mode = a.mode;
            }
            edb_tuples += it.batch.lines.len() as u64;
            ask(&mut conn, &it.ask, &mut reads, &mut ledger)?;
            select(&mut conn, &it.select, &mut selects, &mut ledger)?;
        }
        writing += chunk.elapsed();

        // Crash: SIGKILL with the WAL tail behind the last checkpoint, so
        // the directory holds exactly what was flushed.
        drop(conn);
        serve_rss_mb.push(writer.kill()?.peak_rss_mb);

        // This round's share of the restarts, each on a copy of what is on
        // disk: every acknowledged batch must be there. The restarted
        // server then gets its share of the `linrec run`s beside it and
        // serves its share of the read loop (no writer; the first asks
        // name one tuple of every committed batch).
        let mut script = round.reads.iter().cycle();
        let until = sc.recover_cycles * (r + 1) / inputs.rounds.len();
        while cycle < until {
            let dir = cfg.run_dir.join(format!("crashed-{cycle}"));
            copy_dir(&data_dir, &dir)?;
            if cfg.sabotage_wal {
                halve_wal(&dir)?;
            }
            let (server, mut conn, took) = start(cfg, &program, &dir, round.count, &mut ledger)?;
            recoveries.push(took);

            for _ in share(sc.query_runs, cycle)..share(sc.query_runs, cycle + 1) {
                let out = run_query(&cfg.linrec, &query_program, &inputs.query.args)?;
                queries.push(out.wall);
                query_rss_mb = query_rss_mb.max(out.reaped.peak_rss_mb);
                let (tuples, plan) = parse_run_output(&out.stdout);
                ledger.check(
                    out.reaped.exit_code == Some(0) && tuples == Some(inputs.query.tuples),
                    || {
                        format!(
                            "`linrec run` exited {:?} with {tuples:?} tuples, reference says {}",
                            out.reaped.exit_code, inputs.query.tuples
                        )
                    },
                );
                query_plan = plan.or(query_plan);
            }

            // Read until the run is as far along in `--seconds` as it is
            // in its restarts: the read loop absorbs whatever time the
            // server under test does not need for the rest.
            cycle += 1;
            let deadline = measured
                + Duration::from_secs_f64(cfg.seconds) * cycle as u32 / sc.recover_cycles as u32;
            let mut done = 0;
            while done < share(MIN_READS, cycle) - share(MIN_READS, cycle - 1)
                || Instant::now() < deadline
            {
                match script.next().expect("a round's read script is not empty") {
                    Read::Ask(op) => ask(&mut conn, op, &mut reads, &mut ledger)?,
                    Read::Select(op) => select(&mut conn, op, &mut selects, &mut ledger)?,
                }
                done += 1;
            }
            drop(conn);
            recovery_banner = server.banner.join(" | ");
            serve_rss_mb.push(server.kill()?.peak_rss_mb);
            std::fs::remove_dir_all(dir)?;
        }

        // Restart in place and carry on writing, unless the run is over.
        if r + 1 == inputs.rounds.len() {
            break;
        }
        let (server, connection, took) = start(cfg, &program, &data_dir, round.count, &mut ledger)?;
        recoveries.push(took);
        (writer, conn) = (server, connection);
    }
    reported.push(("maintenance_mode", Json::str(&mode)));
    reported.push(("recovery_banner", Json::str(recovery_banner)));
    reported.push(("query_plan", Json::str(query_plan.unwrap_or_default())));
    let numbers = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    reported.push(("recover_samples_s", numbers(&recoveries.0)));
    reported.push(("query_samples_s", numbers(&queries.0)));
    reported.push(("serve_rss_samples_mb", numbers(&serve_rss_mb)));

    let metrics = vec![
        Measured {
            name: "setup_s",
            value: setup_s,
            unit: "s",
            n: starts.0.len(),
        },
        commits.metric("commit_p50_ms", "ms", 0.5, 1e3),
        commits.metric("commit_p90_ms", "ms", 0.9, 1e3),
        reads.metric("read_p50_us", "us", 0.5, 1e6),
        reads.metric("read_p90_us", "us", 0.9, 1e6),
        selects.metric("select_p50_ms", "ms", 0.5, 1e3),
        Measured {
            name: "ingest_tuples_per_s",
            value: edb_tuples as f64 / writing.as_secs_f64(),
            unit: "tuples/s",
            n: commits.0.len(),
        },
        recoveries.metric("recover_s", "s", 0.5, 1.0),
        queries.metric("query_s", "s", 0.5, 1.0),
        Measured {
            name: "serve_rss_mb",
            value: stats::median(&serve_rss_mb).unwrap_or(f64::NAN),
            unit: "MB",
            n: serve_rss_mb.len(),
        },
        Measured {
            name: "query_rss_mb",
            value: query_rss_mb,
            unit: "MB",
            n: queries.0.len(),
        },
    ];
    Ok(Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        reported,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::contract::tests::contract;
    use crate::workload::{scenario, Scale, SCENARIOS};

    /// A smoke-sized run of `name` against the checkout's own binary.
    pub(crate) fn smoke_config(name: &str, tag: &str) -> RunConfig {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let out_dir = root.join("bench/out");
        RunConfig {
            scenario: scenario(name).unwrap(),
            seed: 2,
            seconds: 0.2,
            scale: Scale::SMOKE,
            linrec: crate::client::build_linrec(root).unwrap(),
            run_dir: out_dir.join(format!("test-{tag}-{name}-{}", std::process::id())),
            out_dir,
            sabotage_wal: false,
        }
    }

    #[test]
    fn smoke_runs_answer_every_op_and_report_every_metric() {
        for s in &SCENARIOS {
            let cfg = smoke_config(s.name, "e2e");
            let outcome = run(&cfg);
            let _ = std::fs::remove_dir_all(&cfg.run_dir);
            let outcome = outcome.unwrap();
            assert_eq!(outcome.failed, 0, "{}", s.name);
            assert!(outcome.attempted > 50, "{}", s.name);
            contract().check(false, &outcome.metrics).unwrap();
            for m in &outcome.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}",
                    s.name,
                    m.name
                );
            }
        }
    }

    /// The durability check has teeth: cut the later batches out of the
    /// crashed copy's WAL and the restarted server's count and reads no
    /// longer match the reference.
    #[test]
    fn a_lost_acknowledged_batch_fails_the_run() {
        let mut cfg = smoke_config("recover_read", "sabotage");
        cfg.sabotage_wal = true;
        let outcome = run(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.run_dir);
        let outcome = outcome.unwrap();
        assert!(outcome.failed > 0, "a halved WAL went unnoticed");
    }
}
