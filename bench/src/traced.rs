//! The traced run: the same seeded op script replayed **in-process**, with
//! a harness-side span around each call into a layer's public functions.
//!
//! The service under the replay is an embedded durable `ViewService`
//! (same directory layout, same checkpoint policy as the server). What a
//! commit costs inside the service is split by measuring the layers it
//! calls on shadows, on the same pre-op state: a shadow `MaintainedView`
//! maintains the published view under the batch's deltas, a shadow
//! `Store` appends (and, on the policy's schedule, checkpoints) the same
//! batch, and a plain write + `sync_data` of the same size gives the
//! device floor. What is left of the commit is `service.batch_self_ms`:
//! reported as measured, negative if the parts ran slower than the whole.

use crate::client::{run_query, Server};
use crate::harness::{
    copy_dir, dir_bytes, parse_commit, parse_rows, Ledger, Outcome, RunConfig, Samples,
};
use crate::json::Json;
use crate::metrics::{code, Measured, MAINTENANCE_MODES, PLAN_SHAPES};
use crate::stats;
use crate::trace::Recorder;
use crate::workload::{Ask, Inputs, Read, Select, VIEW};
use linrec_datalog::hash::FastMap;
use linrec_datalog::{Database, Relation, Symbol, Value};
use linrec_engine::{Analysis, CostModel, Parallelism, Plan, Program, Selection};
use linrec_service::{
    open_durable, CheckpointPolicy, MaintainedView, Session, ViewDef, ViewService,
};
use linrec_storage::{view_fingerprint, SnapshotData, StdVfs, Store, Vfs, ViewSnapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Error = Box<dyn std::error::Error>;

/// In-process evaluations of the query program (medians are reported).
const QUERY_REPEATS: usize = 3;
/// TCP `epoch` round trips against the real server.
const TCP_PROBES: usize = 15;

fn parse_value(tok: &str) -> Value {
    tok.parse().map_or_else(|_| Value::sym(tok), Value::Int)
}

/// `insert <pred> <v> …` as the tuple it stages.
fn parse_insert(line: &str) -> Option<(Symbol, Vec<Value>)> {
    let mut toks = line.split_whitespace();
    (toks.next()? == "insert").then_some(())?;
    let pred = Symbol::new(toks.next()?);
    Some((pred, toks.map(parse_value).collect()))
}

/// `ask <view> <v> …` as the tuple it tests.
fn parse_ask(line: &str) -> Vec<Value> {
    line.split_whitespace().skip(2).map(parse_value).collect()
}

/// `select <view> <pos>=<v> limit <n>` as a selection.
fn parse_select(line: &str) -> Option<Selection> {
    let (pos, value) = line.split_whitespace().nth(2)?.split_once('=')?;
    Some(Selection::eq(pos.parse().ok()?, parse_value(value)))
}

/// The database and view definition `linrec serve <file>` starts from.
fn served(program: &str) -> Result<(Database, ViewDef), Error> {
    let prog = Program::parse(program)?;
    let mut db = prog.database().snapshot();
    db.set_relation(prog.rec_pred(), prog.init().clone());
    let def = ViewDef {
        name: VIEW.to_owned(),
        rules: prog.rules().to_vec(),
        seed: prog.rec_pred(),
    };
    Ok((db, def))
}

/// Samples of every span kind a traced run takes.
#[derive(Default)]
struct Layers {
    insert_line: Samples,
    ask: Samples,
    select: Samples,
    epoch: Samples,
    commit: Samples,
    commit_obs_on: Samples,
    commit_obs_off: Samples,
    iteration_rec_on: Samples,
    iteration_rec_off: Samples,
    batch_self: Samples,
    contains: Samples,
    snapshot_select: Samples,
    maintain: Samples,
    resume: Samples,
    clone: Samples,
    wal_append: Samples,
    fsync_floor: Samples,
    checkpoint: Samples,
    store_recover: Samples,
    open_durable: Samples,
    parse: Samples,
    lint: Samples,
    analysis: Samples,
    plan: Samples,
    execute: Samples,
    sorted: Samples,
}

/// What a replay accumulates: the spans, the samples per layer, and the
/// ops that failed.
struct Replay {
    rec: Recorder,
    layers: Layers,
    ledger: Ledger,
}

impl Replay {
    /// One `ask` through the protocol, then the snapshot call under it.
    fn ask(&mut self, session: &mut Session, service: &ViewService, op: &Ask) {
        let Replay {
            rec,
            layers,
            ledger,
        } = self;
        rec.op("op.ask", |rec| {
            let (reply, took) = rec.span("protocol.ask", || session.handle(&op.line));
            layers.ask.push(took);
            ledger.check(reply.text == format!("ok {}", op.expect), || {
                format!(
                    "`{}` answered `{}`, reference says {}",
                    op.line, reply.text, op.expect
                )
            });
            let tuple = parse_ask(&op.line);
            let (found, took) = rec.span("service.snapshot_contains", || {
                service.snapshot().contains(VIEW, &tuple)
            });
            layers.contains.push(took);
            ledger.check(found.as_ref().ok() == Some(&op.expect), || {
                format!("Snapshot::contains for `{}` gave {found:?}", op.line)
            });
        });
    }

    /// One `select` through the protocol, then the snapshot call under it.
    fn select(&mut self, session: &mut Session, service: &ViewService, op: &Select) {
        let Replay {
            rec,
            layers,
            ledger,
        } = self;
        rec.op("op.select", |rec| {
            let (reply, took) = rec.span("protocol.select", || session.handle(&op.line));
            layers.select.push(took);
            let last = reply.text.lines().last().unwrap_or("");
            ledger.check(
                parse_rows(last) == Some(op.rows) && reply.text.lines().count() == op.rows + 1,
                || {
                    format!(
                        "`{}` answered `{last}`, reference says {} rows",
                        op.line, op.rows
                    )
                },
            );
            let sel = parse_select(&op.line);
            let (rows, took) = rec.span("service.snapshot_select", || {
                service.snapshot().select(VIEW, sel.as_ref(), usize::MAX)
            });
            layers.snapshot_select.push(took);
            ledger.check(rows.as_ref().map(Vec::len).ok() == Some(op.rows), || {
                format!(
                    "Snapshot::select for `{}` gave {:?} rows",
                    op.line,
                    rows.map(|r| r.len())
                )
            });
        });
    }
}

/// What `linrec serve <file> --data-dir … --checkpoint-batches N` is given.
struct Deployment {
    db: Database,
    def: ViewDef,
    par: Parallelism,
    policy: CheckpointPolicy,
}

impl Deployment {
    fn open(&self, dir: &Path) -> Result<ViewService, Error> {
        let (service, _) = open_durable(
            dir,
            self.db.snapshot(),
            vec![self.def.clone()],
            self.par.clone(),
            self.policy,
        )?;
        Ok(service)
    }
}

impl Replay {
    /// What a restart on `dir` does: the store's own recovery, timed on
    /// its own first, then `open_durable` (snapshot load, WAL tail through
    /// maintenance, the checkpoint that folds the tail). The recovered
    /// view must hold `expect` tuples.
    fn recover(
        &mut self,
        deployment: &Deployment,
        dir: &Path,
        expect: u64,
    ) -> Result<ViewService, Error> {
        let Replay {
            rec,
            layers,
            ledger,
        } = self;
        let (service, _) = rec.op("op.recover", |rec| -> Result<ViewService, Error> {
            let (store, took) = rec.span("storage.recover", || {
                Store::open(dir).and_then(|mut store| store.recover().map(|_| ()))
            });
            store?;
            layers.store_recover.push(took);
            let (opened, took) = rec.span("service.open_durable", || deployment.open(dir));
            layers.open_durable.push(took);
            opened
        });
        let service = service?;
        let count = service.snapshot().count(VIEW).ok();
        ledger.check(count == Some(expect as usize), || {
            format!("recovered view holds {count:?} tuples, reference says {expect}")
        });
        Ok(service)
    }
}

/// Counts summed over the write loop's batches.
#[derive(Default)]
struct BatchCounts {
    batches: u64,
    derivations: u64,
    duplicates: u64,
    grown: u64,
    edb_tuples: u64,
    wal_bytes: u64,
    clone_bytes: u64,
    snapshot_bytes: u64,
    mode: String,
}

/// Replay one run in-process and report the per-layer metrics.
pub fn run(cfg: &RunConfig) -> Result<Outcome, Error> {
    let sc = cfg.scenario;
    let chunks = sc.chunks(cfg.seconds, cfg.scale);
    let inputs: Inputs = sc.generate(cfg.seed, cfg.scale, &chunks)?;
    std::fs::create_dir_all(&cfg.run_dir)?;
    let program = cfg.run_dir.join("served.dl");
    let query_program = cfg.run_dir.join("query.dl");
    std::fs::write(&program, &inputs.program)?;
    std::fs::write(&query_program, &inputs.query.program)?;

    let mut replay = Replay {
        rec: Recorder::new(),
        layers: Layers::default(),
        ledger: Ledger::default(),
    };
    let mut counts = BatchCounts::default();
    let (db, def) = served(&inputs.program)?;
    let fingerprint = view_fingerprint(def.seed, def.rules.iter());
    let deployment = Deployment {
        db,
        def,
        par: Parallelism::from_env(),
        policy: CheckpointPolicy {
            max_wal_batches: sc.checkpoint_every(cfg.scale) as u64,
            ..CheckpointPolicy::default()
        },
    };
    let Deployment { db, def, par, .. } = &deployment;

    // service: what registration (analysis, plan, materialization) costs.
    let (registered, register) = replay.rec.op("op.register", |rec| {
        rec.span("service.register_view", || {
            ViewService::with_parallelism(db.snapshot(), par.clone())
                .register_view(def.clone())
                .map(|report| report.epoch)
        })
        .0
    });
    registered?;

    // The embedded service the script replays against, and the shadows.
    let data_dir = cfg.run_dir.join("data");
    let mut service = Arc::new(deployment.open(&data_dir)?);
    let mut session = Session::new(Arc::clone(&service));
    let mut shadow_view = MaintainedView::register_with_parallelism(def.clone(), db, par.clone())?;
    let shadow_dir = cfg.run_dir.join("shadow");
    let mut shadow_store = Store::open(&shadow_dir)?;
    shadow_store.recover()?;
    let mut floor = StdVfs.open_append(&cfg.run_dir.join("floor.dat"))?;

    // The rounds of the script as the end-to-end run plays them: a chunk
    // of the write loop, the kill (here: the service is dropped, so no
    // shutdown path runs), this round's share of restarts on copies of the
    // directory, then a restart in place. Each round's read script runs on
    // the live service right after its chunk, when the state is the one
    // it expects.
    let mut plain = 0;
    let mut cycle = 0;
    let (mut disk_bytes, mut edb_total) = (0, 0.0);
    let mut crashed_dir: Option<PathBuf> = None;
    for (r, round) in inputs.rounds.iter().enumerate() {
        for (i, it) in round.iterations.iter().enumerate() {
            // Interleaved A/B over the batches that do not checkpoint (those
            // would always fall on the same side): the program's own
            // instrumentation on/off, and this recorder on/off.
            let checkpoints = (i + 1) % sc.checkpoint_every(cfg.scale) == 0;
            let obs_on = plain % 2 == 0;
            linrec_obs::set_enabled(obs_on);
            let Replay {
                rec,
                layers,
                ledger,
            } = &mut replay;
            rec.enabled = (plain / 2) % 2 == 0;
            plain += usize::from(!checkpoints);
            let (result, whole) = rec.op("op.commit", |rec| -> Result<(), Error> {
                for line in &it.batch.lines {
                    let (reply, took) = rec.span("protocol.insert_line", || session.handle(line));
                    layers.insert_line.push(took);
                    ledger.check(reply.text.starts_with("ok staged"), || {
                        format!("`{line}` answered `{}`", reply.text)
                    });
                }

                // The state the commit will see.
                let before = service.snapshot();
                let old = Arc::clone(&before.view(VIEW).ok_or("view is not registered")?.relation);
                let mut db_after = before.db.snapshot();
                let mut new_tuples: FastMap<Symbol, Relation> = FastMap::default();
                let mut logged = Vec::new();
                for (pred, tuple) in it.batch.lines.iter().filter_map(|l| parse_insert(l)) {
                    if db_after.insert_tuple(pred, &tuple) {
                        new_tuples
                            .entry(pred)
                            .or_insert_with(|| Relation::new(tuple.len()))
                            .insert(&tuple);
                        logged.push((pred, tuple));
                    }
                }
                let deltas: FastMap<Symbol, Arc<Relation>> = new_tuples
                    .into_iter()
                    .map(|(p, r)| (p, Arc::new(r)))
                    .collect();

                // datalog: the copy-on-write copy of the published view.
                let (copy, cloned) = rec.span("datalog.relation_clone", || Relation::clone(&old));
                layers.clone.push(cloned);
                let (arena, hashes, slots) = copy.raw_parts();
                counts.clone_bytes += (std::mem::size_of_val(arena)
                    + std::mem::size_of_val(hashes)
                    + std::mem::size_of_val(slots)) as u64;
                drop(copy);

                // view → engine: certificate-licensed maintenance.
                let (outcome, maintained) = rec.span("view.maintain", || {
                    shadow_view.maintain(&old, &db_after, &deltas)
                });
                let outcome = outcome?;
                layers.maintain.push(maintained);
                layers
                    .resume
                    .0
                    .push(maintained.as_secs_f64() - cloned.as_secs_f64());
                counts.batches += 1;
                counts.derivations += outcome.stats.derivations;
                counts.duplicates += outcome.stats.duplicates;
                let new_view = outcome.relation.map_or_else(|| Arc::clone(&old), Arc::new);
                counts.grown += (new_view.len() - old.len()) as u64;

                // storage: WAL append + fsync, the device floor for the same
                // bytes, and the checkpoint when the policy says so.
                let wal_before = shadow_store.wal_pressure().1;
                let (appended, wal) =
                    rec.span("storage.wal_append", || shadow_store.append_batch(&logged));
                appended?;
                layers.wal_append.push(wal);
                let wal_bytes = shadow_store.wal_pressure().1 - wal_before;
                counts.wal_bytes += wal_bytes;
                counts.edb_tuples += logged.len() as u64;
                let zeros = vec![0u8; wal_bytes as usize];
                let (synced, floored) = rec.span("storage.fsync_floor", || {
                    floor.write_all(&zeros).and_then(|()| floor.sync_data())
                });
                synced?;
                layers.fsync_floor.push(floored);
                let mut checkpointed = Duration::ZERO;
                if checkpoints {
                    let data = SnapshotData {
                        epoch: before.epoch + 1,
                        db: db_after.snapshot(),
                        views: vec![ViewSnapshot {
                            name: VIEW.to_owned(),
                            fingerprint: fingerprint.clone(),
                            relation: Arc::clone(&new_view),
                        }],
                    };
                    let (generation, took) =
                        rec.span("storage.checkpoint", || shadow_store.checkpoint(&data));
                    let generation = generation?;
                    layers.checkpoint.push(took);
                    checkpointed = took;
                    counts.snapshot_bytes =
                        std::fs::metadata(shadow_dir.join(format!("snapshot-{generation}.snap")))?
                            .len();
                }
                drop((before, old, new_view));

                // protocol → service: the commit itself.
                let (reply, commit) = rec.span("protocol.commit", || session.handle("commit"));
                layers.commit.push(commit);
                match (checkpoints, obs_on) {
                    (true, _) => {}
                    (false, true) => layers.commit_obs_on.push(commit),
                    (false, false) => layers.commit_obs_off.push(commit),
                }
                layers
                    .batch_self
                    .0
                    .push(commit.as_secs_f64() - (maintained + wal + checkpointed).as_secs_f64());
                let ack = parse_commit(&reply.text);
                let wanted = (it.batch.lines.len() as u64, it.batch.grown);
                ledger.check(
                    ack.as_ref().map(|a| (a.inserted, a.grown)) == Some(wanted),
                    || {
                        format!(
                            "`commit` answered `{}`, reference says inserted {} and +{} tuples",
                            reply.text, wanted.0, wanted.1
                        )
                    },
                );
                if let Some(ack) = ack {
                    counts.mode = ack.mode;
                }
                Ok(())
            });
            result?;
            match (checkpoints, rec.enabled) {
                (true, _) => {}
                (false, true) => layers.iteration_rec_on.push(whole),
                (false, false) => layers.iteration_rec_off.push(whole),
            }
            replay.ask(&mut session, &service, &it.ask);
            replay.select(&mut session, &service, &it.select);
        }
        for op in &round.reads {
            match op {
                Read::Ask(op) => replay.ask(&mut session, &service, op),
                Read::Select(op) => replay.select(&mut session, &service, op),
            }
            let Replay { rec, layers, .. } = &mut replay;
            rec.op("op.epoch", |rec| {
                let (_, took) = rec.span("protocol.epoch", || session.handle("epoch"));
                layers.epoch.push(took);
            });
        }
        linrec_obs::set_enabled(true);
        replay.rec.enabled = true;
        disk_bytes = dir_bytes(&data_dir)?;
        edb_total = service.snapshot().db.num_tuples() as f64;

        drop(session);
        drop(service);
        let until = sc.recover_cycles * (r + 1) / inputs.rounds.len();
        while cycle < until {
            let dir = cfg.run_dir.join(format!("crashed-{cycle}"));
            copy_dir(&data_dir, &dir)?;
            drop(replay.recover(&deployment, &dir, round.count)?);
            // The newest recovered copy stays for the real server below.
            if let Some(old) = crashed_dir.replace(dir) {
                std::fs::remove_dir_all(old)?;
            }
            cycle += 1;
        }
        service = Arc::new(replay.recover(&deployment, &data_dir, round.count)?);
        session = Session::new(Arc::clone(&service));
    }
    drop(session);
    drop(service);
    let crashed_dir = crashed_dir.ok_or("a workload needs a recover cycle")?;

    // cli: what the process boundary and the TCP transport add to `epoch`.
    let mut tcp_epoch = Samples::default();
    {
        let server = Server::spawn(
            &cfg.linrec,
            &program,
            &crashed_dir,
            sc.checkpoint_every(cfg.scale),
        )?;
        let mut conn = server.connect()?;
        for _ in 0..TCP_PROBES {
            let t = Instant::now();
            let reply = conn.request("epoch")?;
            tcp_epoch.push(t.elapsed());
            replay.ledger.check(reply.last.starts_with("ok epoch"), || {
                format!("`epoch` answered `{}`", reply.last)
            });
        }
        drop(conn);
        server.kill()?;
    }

    // The run user: the query program through every layer it crosses.
    let (query, direct) = query_layers(cfg, &inputs, par, &mut replay)?;
    let out = run_query(&cfg.linrec, &query_program, &inputs.query.args)?;
    let Replay {
        rec,
        layers,
        mut ledger,
    } = replay;
    ledger.check(out.reaped.exit_code == Some(0), || {
        format!("`linrec run` exited {:?}", out.reaped.exit_code)
    });
    let in_process: f64 = [
        &layers.parse,
        &layers.lint,
        &layers.analysis,
        &layers.plan,
        &layers.execute,
        &layers.sorted,
    ]
    .iter()
    .filter_map(|s| stats::median(&s.0))
    .sum();

    let trace_file = cfg.out_dir.join(format!("trace-{}.json", sc.name));
    std::fs::write(&trace_file, rec.to_json().render())?;
    ledger.check(rec.well_formed(), || {
        "a recorded span is neither an op root nor inside its parent".to_owned()
    });

    let per_batch = |total: u64| total as f64 / counts.batches.max(1) as f64;
    let pct = |on: &Samples, off: &Samples| match (stats::median(&on.0), stats::median(&off.0)) {
        (Some(on), Some(off)) => (on - off) / off * 100.0,
        _ => f64::NAN,
    };
    let count = |name, value: f64, unit, n| Measured {
        name,
        value,
        unit,
        n,
    };
    let batches = counts.batches as usize;
    let tcp_overhead = match (stats::median(&tcp_epoch.0), stats::median(&layers.epoch.0)) {
        (Some(tcp), Some(local)) => (tcp - local) * 1e6,
        _ => f64::NAN,
    };
    let metrics = vec![
        count("cli.tcp_overhead_us", tcp_overhead, "us", tcp_epoch.0.len()),
        count(
            "cli.run_overhead_ms",
            (out.wall.as_secs_f64() - in_process) * 1e3,
            "ms",
            1,
        ),
        layers
            .insert_line
            .metric("protocol.insert_line_ns", "ns", 0.5, 1e9),
        layers.ask.metric("protocol.ask_ns", "ns", 0.5, 1e9),
        layers.select.metric("protocol.select_us", "us", 0.5, 1e6),
        layers
            .commit
            .metric("protocol.commit_p50_ms", "ms", 0.5, 1e3),
        layers
            .commit
            .metric("protocol.commit_p90_ms", "ms", 0.9, 1e3),
        layers
            .batch_self
            .metric("service.batch_self_ms", "ms", 0.5, 1e3),
        count("service.register_ms", register.as_secs_f64() * 1e3, "ms", 1),
        layers
            .open_durable
            .metric("service.open_durable_ms", "ms", 0.5, 1e3),
        layers
            .contains
            .metric("service.snapshot_contains_ns", "ns", 0.5, 1e9),
        layers
            .snapshot_select
            .metric("service.snapshot_select_us", "us", 0.5, 1e6),
        layers
            .maintain
            .metric("view.maintain_p50_ms", "ms", 0.5, 1e3),
        layers
            .maintain
            .metric("view.maintain_p90_ms", "ms", 0.9, 1e3),
        count(
            "view.derivations_per_batch",
            per_batch(counts.derivations),
            "count",
            batches,
        ),
        count(
            "view.duplicates_per_batch",
            per_batch(counts.duplicates),
            "count",
            batches,
        ),
        count(
            "view.grown_per_batch",
            per_batch(counts.grown),
            "count",
            batches,
        ),
        count(
            "view.maintenance_mode",
            code(&MAINTENANCE_MODES, &counts.mode),
            "code",
            batches,
        ),
        layers.clone.metric("datalog.view_clone_ms", "ms", 0.5, 1e3),
        count(
            "datalog.view_clone_bytes",
            per_batch(counts.clone_bytes),
            "bytes",
            batches,
        ),
        layers.parse.metric("datalog.parse_ms", "ms", 0.5, 1e3),
        layers.sorted.metric("datalog.sorted_ms", "ms", 0.5, 1e3),
        layers.resume.metric("engine.resume_ms", "ms", 0.5, 1e3),
        layers.plan.metric("engine.plan_us", "us", 0.5, 1e6),
        layers.execute.metric("engine.execute_ms", "ms", 0.5, 1e3),
        count("engine.derivations", query.derivations as f64, "count", 1),
        count("engine.duplicates", query.duplicates as f64, "count", 1),
        count("engine.iterations", query.iterations as f64, "count", 1),
        count(
            "engine.plan_shape",
            code(&PLAN_SHAPES, query.shape),
            "code",
            1,
        ),
        count(
            "engine.direct_over_plan",
            stats::median(&layers.execute.0)
                .map_or(f64::NAN, |planned| direct.as_secs_f64() / planned),
            "ratio",
            1,
        ),
        layers.lint.metric("lint.check_us", "us", 0.5, 1e6),
        layers.analysis.metric("core.analysis_us", "us", 0.5, 1e6),
        layers
            .wal_append
            .metric("storage.wal_append_p50_ms", "ms", 0.5, 1e3),
        layers
            .wal_append
            .metric("storage.wal_append_p90_ms", "ms", 0.9, 1e3),
        count(
            "storage.wal_bytes_per_tuple",
            counts.wal_bytes as f64 / counts.edb_tuples.max(1) as f64,
            "bytes",
            batches,
        ),
        layers
            .fsync_floor
            .metric("storage.fsync_floor_ms", "ms", 0.5, 1e3),
        layers
            .checkpoint
            .metric("storage.checkpoint_ms", "ms", 0.5, 1e3),
        count(
            "storage.snapshot_bytes",
            counts.snapshot_bytes as f64,
            "bytes",
            1,
        ),
        count(
            "storage.disk_bytes_per_tuple",
            disk_bytes as f64 / edb_total,
            "bytes",
            1,
        ),
        layers
            .store_recover
            .metric("storage.recover_ms", "ms", 0.5, 1e3),
        count(
            "obs.overhead_pct",
            pct(&layers.commit_obs_on, &layers.commit_obs_off),
            "%",
            batches,
        ),
        count(
            "trace.overhead_pct",
            pct(&layers.iteration_rec_on, &layers.iteration_rec_off),
            "%",
            batches,
        ),
        count("trace.spans", rec.len() as f64, "count", rec.len()),
        count("replay.commit_iterations", batches as f64, "count", batches),
        count(
            "replay.reads",
            (layers.ask.0.len() + layers.select.0.len()) as f64,
            "count",
            1,
        ),
        count(
            "replay.recoveries",
            layers.open_durable.0.len() as f64,
            "count",
            1,
        ),
        count(
            "replay.query_runs",
            layers.execute.0.len() as f64,
            "count",
            1,
        ),
        count(
            "replay.failed_ops",
            ledger.failed as f64,
            "count",
            ledger.attempted as usize,
        ),
    ];
    Ok(Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        reported: vec![
            ("maintenance_mode", Json::str(&counts.mode)),
            ("query_plan", Json::str(query.shape)),
            ("trace_file", Json::str(trace_file.display().to_string())),
        ],
    })
}

/// What the planner chose for the query program and what running it cost.
struct QueryCounts {
    shape: &'static str,
    derivations: u64,
    duplicates: u64,
    iterations: usize,
}

/// Time the query program through parse, lint, analysis, plan, execute
/// and the sort the CLI does before it prints; then once more through
/// `Plan::direct`, the baseline every certificate-licensed plan is
/// measured against (Theorem 3.1 as a number for the decomposed program);
/// returns the counts of the planner's plan and the time `Plan::direct` took.
fn query_layers(
    cfg: &RunConfig,
    inputs: &Inputs,
    par: &Parallelism,
    replay: &mut Replay,
) -> Result<(QueryCounts, Duration), Error> {
    let Replay {
        rec,
        layers,
        ledger,
    } = replay;
    let mut selection: Option<Selection> = None;
    for arg in &inputs.query.args {
        let (pos, value) = arg
            .split_once('=')
            .ok_or("query argument is not pos=value")?;
        let (pos, value) = (pos.parse()?, parse_value(value));
        selection = Some(match selection {
            None => Selection::eq(pos, value),
            Some(sel) => sel.and(pos, value),
        });
    }
    let sel = selection.as_ref();
    let model = CostModel::default();
    let mut counts = None;
    let repeats = if cfg.scale == crate::workload::Scale::SMOKE {
        1
    } else {
        QUERY_REPEATS
    };
    for _ in 0..repeats {
        let (result, _) = rec.op("op.query", |rec| -> Result<QueryCounts, Error> {
            let (prog, took) = rec.span("datalog.parse", || Program::parse(&inputs.query.program));
            let prog = prog?;
            layers.parse.push(took);
            let (db, init, rules) = (prog.database(), prog.init(), prog.rules());
            let (report, took) = rec.span("lint.check_program", || {
                linrec_lint::check_program(rules, db, init, sel)
            });
            layers.lint.push(took);
            ledger.check(!report.has_errors(), || {
                format!("the query program fails lint: {}", report.render_human())
            });
            let (analysis, took) = rec.span("core.analysis", || Analysis::of(rules, sel));
            layers.analysis.push(took);
            let (plan, took) = rec.span("engine.plan_for", || {
                analysis
                    .plan_for(db, init)
                    .parallelize(par, &model, db, init)
            });
            layers.plan.push(took);
            let (outcome, executed) = rec.span("engine.execute", || plan.execute(db, init));
            let outcome = outcome?;
            layers.execute.push(executed);
            let (rows, took) = rec.span("datalog.sorted", || outcome.relation.sorted());
            layers.sorted.push(took);
            ledger.check(rows.len() as u64 == inputs.query.tuples, || {
                format!(
                    "the planner's plan gave {} tuples, reference says {}",
                    rows.len(),
                    inputs.query.tuples
                )
            });
            Ok(QueryCounts {
                shape: plan.shape().label(),
                derivations: outcome.stats.derivations,
                duplicates: outcome.stats.duplicates,
                iterations: outcome.stats.iterations,
            })
        });
        counts = Some(result?);
    }
    let counts = counts.ok_or("no query run")?;
    let (direct, _) = rec.op("op.query_direct", |rec| -> Result<Duration, Error> {
        let prog = Program::parse(&inputs.query.program)?;
        let (db, init) = (prog.database(), prog.init());
        let mut plan = Plan::direct(prog.rules().to_vec());
        if let Some(sel) = sel {
            plan = Plan::select_after(plan, sel.clone());
        }
        let plan = plan.parallelize(par, &model, db, init);
        let (outcome, took) = rec.span("engine.execute_direct", || plan.execute(db, init));
        let tuples = outcome?.relation.len() as u64;
        ledger.check(tuples == inputs.query.tuples, || {
            format!(
                "Plan::direct gave {tuples} tuples, reference says {}",
                inputs.query.tuples
            )
        });
        Ok(took)
    });
    Ok((counts, direct?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::tests::contract;
    use crate::e2e::tests::smoke_config;
    use crate::workload::SCENARIOS;

    #[test]
    fn traced_smoke_runs_report_every_layer_metric_and_a_span_tree() {
        for s in &SCENARIOS {
            let cfg = smoke_config(s.name, "traced");
            let outcome = run(&cfg);
            let _ = std::fs::remove_dir_all(&cfg.run_dir);
            let outcome = outcome.unwrap();
            assert_eq!(outcome.failed, 0, "{}", s.name);
            contract().check(true, &outcome.metrics).unwrap();
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{} {} is not a number", s.name, m.name);
            }

            // Every span is an op root or the child of one that encloses it.
            let file = cfg.out_dir.join(format!("trace-{}.json", s.name));
            let spans = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
            let spans = spans.as_array().unwrap();
            assert!(spans.len() > 50);
            let num = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64);
            for span in spans {
                if let Some(parent) = num(span, "parent") {
                    let parent = &spans[parent as usize];
                    assert_eq!(parent.get("parent"), Some(&Json::Null));
                    assert_eq!(num(parent, "op"), num(span, "op"));
                    assert!(num(parent, "start_ns") <= num(span, "start_ns"));
                    assert!(num(span, "end_ns") <= num(parent, "end_ns"));
                }
            }
        }
    }
}
