//! `linrec` — command-line front end.
//!
//! ```text
//! linrec analyze <file>                 certificates (commutativity /
//!                                       separability / boundedness /
//!                                       redundancy) and the plan `run`
//!                                       executes without a selection
//! linrec check <file>... [--format json|human]
//!                                       static analysis: program lints,
//!                                       certificate cross-verification, plan
//!                                       lints; exits nonzero on any warning-
//!                                       or error-severity finding (see the
//!                                       README's diagnostic code catalog)
//! linrec run <file> [--threads N] [--no-check] [pos=value ...]
//!                                       plan and evaluate (optional
//!                                       selection); fixpoint rounds may use
//!                                       up to N engine threads (default:
//!                                       available parallelism, or the
//!                                       LINREC_THREADS env var; 1 = fully
//!                                       sequential)
//! linrec explain <file> <v1,v2,...>     derivation of one answer tuple
//! linrec explain <file> [analyze] [--format json|human] [--no-check]
//!                                       the plan the program gets: its tree
//!                                       and its plan-decision record (picked
//!                                       how, candidates, certificates);
//!                                       `analyze` additionally runs the plan
//!                                       and reports per-node wall time
//! linrec top <addr> [--once] [--interval-ms N] [-n N]
//!                                       live dashboard over a serving
//!                                       instance's protocol port: request
//!                                       latency percentiles, maintenance
//!                                       timing, epoch rate, WAL pressure, and
//!                                       the newest plan decisions
//! linrec serve <file> [--tcp ADDR] [--threads N] [--data-dir DIR]
//!               [--checkpoint-batches N] [--checkpoint-bytes B]
//!               [--read-only] [--max-queue N] [--request-timeout-ms N]
//!               [--metrics ADDR] [--trace-json FILE] [--slow-ms N]
//!                                       long-lived incremental view service:
//!                                       materialize the program's recursion,
//!                                       maintain it under insert batches, and
//!                                       answer the line protocol on stdin or
//!                                       TCP (see linrec_service::protocol).
//!                                       N sizes both the connection pool and
//!                                       the engine's parallel maintenance
//!                                       (default as for `run`). With
//!                                       --data-dir the service is durable:
//!                                       batches are write-ahead logged before
//!                                       they are acknowledged, checkpoints
//!                                       fold the WAL into arena snapshots on
//!                                       the given thresholds, and a restart
//!                                       recovers by loading the newest valid
//!                                       snapshot and replaying the WAL tail
//!                                       through certificate-licensed
//!                                       maintenance instead of re-running the
//!                                       fixpoint. --metrics exposes the
//!                                       registry as Prometheus text on ADDR,
//!                                       --trace-json dumps the flight
//!                                       recorder to FILE on shutdown, and
//!                                       --slow-ms logs requests slower than
//!                                       N ms with their trace IDs.
//! ```
//!
//! Program files use the paper's notation, e.g.
//!
//! ```text
//! p(x,y) :- p(x,z), down(z,y).
//! p(x,y) :- p(w,y), up(x,w).
//! up(1,2). down(2,3). p(2,2).
//! ```

use linrec::core::{pair_report, redundancy_report, POWER_SEARCH_BOUND};
use linrec::engine::{Program, Selection};
use linrec::prelude::*;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: linrec analyze <file>");
    eprintln!("       linrec check <file>... [--format json|human]");
    eprintln!("       linrec run <file> [--threads N] [--no-check] [pos=value ...]");
    eprintln!("       linrec explain <file> <v1,v2,...>");
    eprintln!("       linrec explain <file> [analyze] [--format json|human] [--no-check]");
    eprintln!("       linrec top <addr> [--once] [--interval-ms N] [-n N]");
    eprintln!("       linrec serve <file> [--tcp ADDR] [--threads N] [--data-dir DIR]");
    eprintln!("                    [--checkpoint-batches N] [--checkpoint-bytes B] [--no-check]");
    eprintln!("                    [--read-only] [--max-queue N] [--request-timeout-ms N]");
    eprintln!("                    [--metrics ADDR] [--trace-json FILE] [--slow-ms N]");
    eprintln!();
    eprintln!("  --threads N   engine threads for parallel fixpoint rounds (and,");
    eprintln!("                for serve, the connection pool size); defaults to");
    eprintln!("                the LINREC_THREADS env var or available parallelism");
    eprintln!("  --data-dir DIR");
    eprintln!("                durable serving: WAL every committed batch, checkpoint");
    eprintln!("                arena snapshots, crash-recover on restart");
    eprintln!("  --read-only   serve queries only; commits answer `err read-only`");
    eprintln!("  --max-queue N writers allowed to queue before `err busy` (0 = unbounded)");
    eprintln!("  --request-timeout-ms N");
    eprintln!("                writer-lock deadline per commit; expiry answers `err timeout`");
    eprintln!("  --metrics ADDR");
    eprintln!("                expose the metrics registry as Prometheus text at");
    eprintln!("                http://ADDR/metrics (also dumped by the `metrics` command)");
    eprintln!("  --trace-json FILE");
    eprintln!("                dump the span flight recorder to FILE as JSON on shutdown");
    eprintln!("  --slow-ms N   count and log (with trace IDs) requests slower than N ms");
    eprintln!("  --no-check    skip the deny-by-default static analysis gate (run/serve");
    eprintln!("                refuse programs with error-severity findings otherwise)");
    ExitCode::from(2)
}

/// Pull a bare flag out of `args` (anywhere), returning the remaining
/// arguments and whether it was present.
fn strip_flag(args: &[String], flag: &str) -> (Vec<String>, bool) {
    let rest: Vec<String> = args.iter().filter(|a| *a != flag).cloned().collect();
    let found = rest.len() != args.len();
    (rest, found)
}

/// Run the deny-by-default analyzer gate for `run`/`serve`: every finding
/// goes to stderr; error-severity findings abort unless `--no-check`.
fn check_gate(prog: &Program, no_check: bool) -> Result<(), String> {
    let report = linrec::lint::check_rules(prog.rules(), Some(prog.database()), Some(prog.init()));
    if !report.diagnostics.is_empty() {
        eprint!("{}", report.render_human());
    }
    if report.has_errors() && !no_check {
        return Err(
            "program fails static analysis (--no-check overrides; `linrec check` explains)"
                .to_owned(),
        );
    }
    Ok(())
}

/// `linrec check <file>... [--format json|human]`: run all three analyzer
/// passes on each program. Exit 0 when clean (info-severity findings
/// stay clean), 1 on any warning- or error-severity finding (including
/// parse failures, reported as `L000`), 2 on usage errors.
fn check_cmd(args: &[String]) -> ExitCode {
    use linrec::lint::{Code, Diagnostic, LintReport, Span};

    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                _ => {
                    eprintln!("--format needs json or human");
                    return ExitCode::from(2);
                }
            },
            other => files.push(other.to_owned()),
        }
    }
    if files.is_empty() {
        return usage();
    }
    let mut findings = false;
    let mut json_files: Vec<String> = Vec::new();
    for file in &files {
        let report = match load(file) {
            Ok(prog) => {
                linrec::lint::check_program(prog.rules(), prog.database(), prog.init(), None)
            }
            Err(e) => LintReport::from_diagnostics(vec![Diagnostic::new(
                Code::ParseError,
                Span::none(),
                e,
            )]),
        };
        findings |= report.has_findings();
        if json {
            json_files.push(linrec::obs::json::object(|o| {
                o.str("file", file);
                o.raw("diagnostics", &report.render_json());
            }));
        } else if report.diagnostics.is_empty() {
            println!("{file}: clean");
        } else {
            for d in &report.diagnostics {
                println!("{file}: {d}");
            }
        }
    }
    if json {
        println!(
            "{}",
            linrec::obs::json::array(|a| json_files.iter().for_each(|f| a.raw(f)))
        );
    }
    if findings {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Pull `--threads N` out of `args` (anywhere), returning the remaining
/// arguments and the resulting engine parallelism knob. The count (or
/// `LINREC_THREADS` without the flag) is checked against `MAX_THREADS`
/// before the knob's pool is built: a pool spawns every worker up front.
fn parse_threads(args: &[String]) -> Result<(Vec<String>, linrec::engine::Parallelism), String> {
    use linrec::engine::parallel::{parse_thread_count, THREADS_ENV};
    use linrec::engine::Parallelism;
    let mut rest = Vec::new();
    let mut threads = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--threads" {
            let n = it
                .next()
                .ok_or_else(|| "--threads needs a number".to_owned())?;
            threads = Some(parse_thread_count(n).map_err(|e| format!("--threads: {e}"))?);
        } else {
            rest.push(arg.clone());
        }
    }
    let par = match threads {
        Some(n) => Parallelism::new(n),
        None => Parallelism::try_from_env().map_err(|e| format!("{THREADS_ENV}: {e}"))?,
    };
    Ok((rest, par))
}

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Program::parse(&src).map_err(|e| format!("{path}: {e}"))
}

fn analyze(path: &str) -> Result<(), String> {
    let prog = load(path)?;
    let rules = prog.rules();
    println!(
        "recursive predicate: {} ({} rules)\n",
        prog.rec_pred(),
        rules.len()
    );
    for (i, r) in rules.iter().enumerate() {
        println!("rule {i}: {r}");
    }
    println!();
    for i in 0..rules.len() {
        for j in (i + 1)..rules.len() {
            println!("---- pair ({i}, {j}) ----");
            match pair_report(&rules[i], &rules[j]) {
                Ok(rep) => println!("{rep}"),
                Err(e) => println!("not analyzable: {e}\n"),
            }
        }
    }
    for (i, r) in rules.iter().enumerate() {
        println!("---- redundancy, rule {i} ----");
        match redundancy_report(r, POWER_SEARCH_BOUND) {
            Ok(rep) => println!("{rep}"),
            Err(e) => println!("not analyzable: {e}\n"),
        }
    }
    let analysis = prog.analyze(None);
    println!("---- certificates ----");
    print!("{}", analysis.summary());
    let plan = analysis.plan_for(prog.database(), prog.init());
    println!("\n---- plan (no selection) ----");
    print!("{}", plan.describe());
    Ok(())
}

fn parse_selection(args: &[String]) -> Result<Option<Selection>, String> {
    let mut sel: Option<Selection> = None;
    for a in args {
        let (pos, value) = a
            .split_once('=')
            .ok_or_else(|| format!("bad selection {a:?}; expected pos=value"))?;
        let pos: usize = pos
            .trim()
            .parse()
            .map_err(|_| format!("bad position in {a:?}"))?;
        let value = Value::parse_token(value).ok_or_else(|| format!("empty value in {a:?}"))?;
        sel = Some(match sel {
            None => Selection::eq(pos, value),
            Some(s) => s.and(pos, value),
        });
    }
    Ok(sel)
}

/// How many tuples `run` prints: the lexicographically smallest.
const SHOWN_ROWS: usize = 20;

fn run(path: &str, args: &[String]) -> Result<(), String> {
    let prog = load(path)?;
    let (args, no_check) = strip_flag(args, "--no-check");
    check_gate(&prog, no_check)?;
    let (sel_args, par) = parse_threads(&args)?;
    let sel = parse_selection(&sel_args)?;
    // The library's `Selection` matches nothing past the arity; asked for
    // on the command line that is a mistake, not an empty answer.
    let arity = prog.init().arity();
    if let Some(pos) = sel
        .iter()
        .flat_map(Selection::positions)
        .find(|&p| p >= arity)
    {
        let pred = prog.rec_pred();
        return Err(format!(
            "selection position {pos} is out of range for {pred}/{arity}"
        ));
    }
    // Cost-model ranked choice: the program's own data decides among the
    // licensed strategies; the parallelism knob lets large fixpoint rounds
    // shard across the engine pool. The plan's decision record comes back
    // with the parallel verdict and the run's actual statistics next to
    // the estimate.
    let t = std::time::Instant::now();
    let (outcome, plan) = prog
        .run_with_parallelism(sel.as_ref(), &par)
        .map_err(|e| e.to_string())?;
    let elapsed = t.elapsed();
    println!("plan:\n{}", plan.describe());
    println!(
        "{} tuples in {:.2} ms ({})",
        outcome.relation.len(),
        elapsed.as_secs_f64() * 1e3,
        outcome.stats
    );
    for step in &outcome.trace {
        if step.nanos > 0 {
            println!(
                "  phase: {} [{}] {:.2} ms",
                step.label,
                step.stats,
                step.nanos as f64 / 1e6
            );
        } else {
            println!("  phase: {} [{}]", step.label, step.stats);
        }
    }
    // Only the printed rows are ordered: a bounded top-k, not a full sort.
    for row in outcome.relation.smallest(SHOWN_ROWS) {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  {}({})", prog.rec_pred(), cells.join(","));
    }
    let total = outcome.relation.len();
    if total > SHOWN_ROWS {
        println!("  … {} more", total - SHOWN_ROWS);
    }
    Ok(())
}

fn explain(path: &str, tuple: &str) -> Result<(), String> {
    let prog = load(path)?;
    let values: Vec<Value> = tuple
        .split(',')
        .map(|s| Value::parse_token(s).ok_or_else(|| format!("empty value in {tuple:?}")))
        .collect::<Result<_, _>>()?;
    // A tuple of the wrong arity is a mistake to report, not a tuple that
    // happens to be absent.
    let arity = prog.init().arity();
    if values.len() != arity {
        return Err(format!(
            "{} has arity {arity}, got {} value(s)",
            prog.rec_pred(),
            values.len()
        ));
    }
    let (total, prov) =
        linrec::engine::eval_with_provenance(prog.rules(), prog.database(), prog.init());
    if !total.contains(&values) {
        println!("{}({tuple}) is NOT in the answer", prog.rec_pred());
        return Ok(());
    }
    match prov.explain(&values) {
        Some(text) => print!("{text}"),
        None => println!("{}({tuple}) is a seed tuple", prog.rec_pred()),
    }
    Ok(())
}

/// `linrec explain <file> [analyze] [--format json|human]`: the plan the
/// program's recursion gets — its tree and its plan-decision record
/// (candidates with estimates, the certificates it leans on, verdicts).
/// With `analyze` the plan also runs (registration materializes the view,
/// then the analyzed run re-executes it) and per-node wall time is
/// reported. Registration goes through the same machinery `serve` uses,
/// so what this prints is exactly what serving this program would decide.
fn explain_plan(path: &str, args: &[String]) -> Result<(), String> {
    use linrec::service::{explain_json, ServiceConfig, ViewDef, ViewService};

    let (args, no_check) = strip_flag(args, "--no-check");
    let (args, analyze_flag) = strip_flag(&args, "--analyze");
    let (args, analyze_word) = strip_flag(&args, "analyze");
    let analyze = analyze_flag || analyze_word;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                _ => return Err("--format needs json or human".to_owned()),
            },
            other => return Err(format!("unknown explain flag {other:?}")),
        }
    }
    let prog = load(path)?;
    check_gate(&prog, no_check)?;
    let name = prog.rec_pred().as_str().to_owned();
    let mut db = prog.database().snapshot();
    db.set_relation(prog.rec_pred(), prog.init().clone());
    let service = ViewService::with_config(
        db,
        ServiceConfig {
            registration_checks: !no_check,
            ..ServiceConfig::default()
        },
    );
    service
        .register_view(ViewDef {
            name: name.clone(),
            rules: prog.rules().to_vec(),
            seed: prog.rec_pred(),
        })
        .map_err(|e| e.to_string())?;
    let report = service.explain(&name, analyze).map_err(|e| e.to_string())?;
    if json {
        println!("{}", explain_json(&report));
        return Ok(());
    }
    println!("view {} (maintenance mode: {})", report.view, report.mode);
    println!("plan:");
    for line in report.tree.lines() {
        println!("  {line}");
    }
    println!("decision: {}", report.decision);
    for (i, node) in report.nodes.iter().enumerate() {
        println!(
            "node {i}: {:.3} ms [{}] {}",
            node.nanos as f64 / 1e6,
            node.stats,
            node.label
        );
    }
    if report.analyzed {
        println!(
            "analyzed: {} nodes in {:.3} ms",
            report.nodes.len(),
            report.total_nanos as f64 / 1e6
        );
    }
    Ok(())
}

/// Issue one protocol command over `stream` and collect the reply: body
/// lines first, then the closing `ok …`/`err …` line (single-line replies
/// are just that closing line).
fn top_request(
    reader: &mut impl std::io::BufRead,
    writer: &mut impl std::io::Write,
    cmd: &str,
) -> Result<Vec<String>, String> {
    writeln!(writer, "{cmd}").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-reply".to_owned());
        }
        let line = line.trim_end().to_owned();
        let first = line.split_whitespace().next().unwrap_or("");
        let done = first == "ok" || first == "err";
        lines.push(line);
        if done {
            return Ok(lines);
        }
    }
}

/// `linrec top <addr> [--once] [--interval-ms N] [-n N]`: a refresh-loop
/// dashboard over a serving instance's protocol port. Each refresh opens
/// a connection, issues `health`, `metrics`, and `decisions`, and renders
/// request-latency percentiles, maintenance timing, the epoch rate
/// (derived from successive samples), WAL pressure, and the newest plan
/// decisions.
fn top(args: &[String]) -> Result<(), String> {
    use linrec::obs::json;

    let (args, once) = strip_flag(args, "--once");
    let mut addr: Option<String> = None;
    let mut interval_ms = 2000u64;
    let mut decisions = 8usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| "--interval-ms needs a number".to_owned())?;
            }
            "-n" => {
                decisions = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| "-n needs a number".to_owned())?;
            }
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_owned()),
            other => return Err(format!("unknown top flag {other:?}")),
        }
    }
    let addr = addr.ok_or_else(|| "top needs a serve address (e.g. 127.0.0.1:7171)".to_owned())?;
    let mut prev_epoch: Option<(f64, std::time::Instant)> = None;
    loop {
        let stream = std::net::TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let mut reader = std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        let health = top_request(&mut reader, &mut writer, "health")?;
        let metrics = top_request(&mut reader, &mut writer, "metrics")?;
        let journal = top_request(&mut reader, &mut writer, &format!("decisions {decisions}"))?;
        let _ = top_request(&mut reader, &mut writer, "quit");
        let now = std::time::Instant::now();

        // `metric name=value` lines → name → value.
        let metric = |name: &str| -> Option<f64> {
            metrics.iter().find_map(|l| {
                l.strip_prefix(&format!("metric {name}="))
                    .and_then(|v| v.parse().ok())
            })
        };
        // `ok health k=v k=v …` → k → v.
        let health_kv = |key: &str| -> String {
            health
                .first()
                .and_then(|l| {
                    l.split_whitespace()
                        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
                })
                .unwrap_or("-")
                .to_owned()
        };
        let epoch = metric("linrec_service_epoch").unwrap_or(0.0);
        let epoch_rate = prev_epoch
            .map(|(prev, at)| (epoch - prev) / now.duration_since(at).as_secs_f64().max(1e-9));
        prev_epoch = Some((epoch, now));

        if !once {
            // Clear screen + home, like any self-respecting `top`.
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "linrec top — {addr}  mode={} epoch={} views={} durable={}",
            health_kv("mode"),
            health_kv("epoch"),
            health_kv("views"),
            health_kv("durable"),
        );
        let ms = |name: &str| -> String {
            metric(name).map_or_else(|| "-".to_owned(), |v| format!("{:.3}", v / 1e6))
        };
        println!(
            "requests: {} total, {} errors | latency ms p50={} p95={} p99={}",
            metric("linrec_service_requests_total").unwrap_or(0.0),
            metric("linrec_service_request_errors_total").unwrap_or(0.0),
            ms("linrec_service_request_ns_p50"),
            ms("linrec_service_request_ns_p95"),
            ms("linrec_service_request_ns_p99"),
        );
        println!(
            "maintain: ms p50={} p95={} p99={} | batches={} | epoch rate={}",
            ms("linrec_service_view_maintain_ns_p50"),
            ms("linrec_service_view_maintain_ns_p95"),
            ms("linrec_service_view_maintain_ns_p99"),
            metric("linrec_service_batches_total").unwrap_or(0.0),
            epoch_rate.map_or_else(|| "-".to_owned(), |r| format!("{r:.2}/s")),
        );
        println!(
            "wal: batches={} bytes={} generation={} | drift events={} degradations={}",
            health_kv("wal-batches"),
            health_kv("wal-bytes"),
            health_kv("generation"),
            metric("linrec_service_plan_drift_total").unwrap_or(0.0),
            health_kv("degradations"),
        );
        println!("decisions (newest last):");
        let mut shown = false;
        for line in &journal {
            let Some(record) = line.strip_prefix("decision ") else {
                continue;
            };
            shown = true;
            let members = json::members(record).unwrap_or_default();
            let field = |key: &str| members.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
            // A missing or `null` number reads as 0.
            let num = |key| field(key).and_then(|v| v.parse().ok()).unwrap_or(0.0);
            let text = |key| field(key).and_then(json::unescape).unwrap_or_default();
            let est = num("estimate");
            let actual = num("actual");
            let ratio = if est > 0.0 && actual > 0.0 {
                format!("{:.2}", est / actual)
            } else {
                "-".to_owned()
            };
            println!(
                "  #{:<6} {:<9} view={} shape={} est={est:.1} actual={actual} est/actual={ratio}",
                num("seq"),
                text("kind"),
                text("view"),
                text("shape"),
            );
        }
        if !shown {
            println!("  (journal empty)");
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `linrec serve <file> [--tcp ADDR] [--threads N] [--data-dir DIR]`:
/// start the incremental materialized-view service for the program's
/// recursive predicate. The seed facts become an EDB relation named after
/// the predicate, so protocol inserts into it extend the seed like any
/// other delta. With `--data-dir` the service opens (or creates) a durable
/// store there: committed batches are WAL-logged before acknowledgement
/// and a restart recovers from the newest checkpoint plus the WAL tail.
fn serve(path: &str, args: &[String]) -> Result<(), String> {
    use linrec::service::{
        open_durable, serve_lines, serve_tcp, spawn_degraded_probe, CheckpointPolicy,
        ServiceConfig, ServiceLimits, ViewDef, ViewService, WorkerPool,
    };
    use std::sync::Arc;

    let (args, no_check) = strip_flag(args, "--no-check");
    let (args, read_only) = strip_flag(&args, "--read-only");
    let (rest, par) = parse_threads(&args)?;
    let threads = par.threads();
    let mut tcp: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut policy = CheckpointPolicy::default();
    let mut limits = ServiceLimits::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics" => {
                metrics_addr = Some(
                    it.next()
                        .ok_or_else(|| {
                            "--metrics needs an address (e.g. 127.0.0.1:9100)".to_owned()
                        })?
                        .clone(),
                )
            }
            "--trace-json" => {
                trace_json = Some(
                    it.next()
                        .ok_or_else(|| "--trace-json needs a file path".to_owned())?
                        .clone(),
                )
            }
            "--slow-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| "--slow-ms needs a number".to_owned())?;
                limits.slow_request = Some(std::time::Duration::from_millis(ms));
            }
            "--tcp" => {
                tcp = Some(
                    it.next()
                        .ok_or_else(|| "--tcp needs an address (e.g. 127.0.0.1:7171)".to_owned())?
                        .clone(),
                )
            }
            "--data-dir" => {
                data_dir = Some(
                    it.next()
                        .ok_or_else(|| "--data-dir needs a directory".to_owned())?
                        .clone(),
                )
            }
            "--checkpoint-batches" => {
                policy.max_wal_batches = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| "--checkpoint-batches needs a number".to_owned())?;
            }
            "--checkpoint-bytes" => {
                policy.max_wal_bytes = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| "--checkpoint-bytes needs a number".to_owned())?;
            }
            "--max-queue" => {
                limits.max_queue = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| "--max-queue needs a number".to_owned())?;
            }
            "--request-timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| "--request-timeout-ms needs a number".to_owned())?;
                limits.request_timeout = Some(std::time::Duration::from_millis(ms));
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }

    let prog = load(path)?;
    check_gate(&prog, no_check)?;
    let name = prog.rec_pred().as_str().to_owned();
    let mut db = prog.database().snapshot();
    db.set_relation(prog.rec_pred(), prog.init().clone());
    let def = ViewDef {
        name: name.clone(),
        rules: prog.rules().to_vec(),
        seed: prog.rec_pred(),
    };
    // One knob, two uses: `par` shards large maintenance rounds on the
    // engine pool, `threads` sizes the connection pool below.
    let config = ServiceConfig {
        par,
        limits,
        registration_checks: !no_check,
        ..ServiceConfig::default()
    };
    let service = match data_dir {
        Some(dir) => {
            let started = std::time::Instant::now();
            let (service, report) =
                open_durable(&dir, db, vec![def], config, policy).map_err(|e| e.to_string())?;
            eprintln!(
                "store {dir}: {} in {:.2} ms (epoch {}, {} WAL batches replayed, \
                 generation {})",
                if report.from_snapshot {
                    "recovered from snapshot"
                } else {
                    "fresh, baseline checkpoint written"
                },
                started.elapsed().as_secs_f64() * 1e3,
                report.epoch,
                report.replayed_batches,
                service.store_generation().unwrap_or(0),
            );
            Arc::new(service)
        }
        None => {
            let service = Arc::new(ViewService::with_config(db, config));
            service.register_view(def).map_err(|e| e.to_string())?;
            service
        }
    };
    if read_only {
        service.set_read_only(true);
        eprintln!("read-only: commits answer `err read-only`; queries serve normally");
    }
    if let Some(addr) = &metrics_addr {
        let bound = linrec::obs::serve_metrics(addr).map_err(|e| format!("{addr}: {e}"))?;
        eprintln!("metrics exposition on http://{bound}/metrics");
    }
    // A durable service heals itself: if a storage fault degrades it to
    // read-only, this probe re-opens the store once the fault clears (a
    // write arriving in the meantime probes inline, too).
    let _probe = spawn_degraded_probe(&service);
    let snapshot = service.snapshot();
    let info = snapshot.view(&name).expect("view just registered");
    eprintln!(
        "view {name}: {} tuples at epoch {} ({}: {})",
        info.relation.len(),
        snapshot.epoch,
        info.mode,
        info.decision
    );
    let served = match tcp {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("{addr}: {e}"))?;
            // Connections are I/O-bound (a client holds its worker for the
            // whole session), so never drop below the historical default of
            // 4 even when the CPU-bound engine knob says 1.
            let pool = WorkerPool::new(threads.max(4));
            eprintln!(
                "serving on {} with {} workers (line protocol; try `help`)",
                listener.local_addr().map_err(|e| e.to_string())?,
                pool.threads()
            );
            serve_tcp(service, listener, &pool)
        }
        None => {
            eprintln!("serving on stdin (line protocol; try `help`)");
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_lines(service, stdin.lock(), stdout.lock()).map_err(|e| e.to_string())
        }
    };
    if let Some(path) = &trace_json {
        let json = linrec::obs::trace::recorder().dump_json();
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("flight recorder dumped to {path}");
    }
    served
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") if args.len() == 2 => analyze(&args[1]),
        Some("check") if args.len() >= 2 => return check_cmd(&args[1..]),
        Some("run") if args.len() >= 2 => run(&args[1], &args[2..]),
        // `explain <file> <v1,v2,..>` is the provenance form; anything
        // else (bare, `analyze`, flags) explains the *plan*.
        Some("explain")
            if args.len() == 3 && args[2] != "analyze" && !args[2].starts_with("--") =>
        {
            explain(&args[1], &args[2])
        }
        Some("explain") if args.len() >= 2 => explain_plan(&args[1], &args[2..]),
        Some("top") if args.len() >= 2 => top(&args[1..]),
        Some("serve") if args.len() >= 2 => serve(&args[1], &args[2..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
