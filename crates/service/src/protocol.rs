//! The line-oriented serving protocol (stdin REPL and TCP).
//!
//! One request per line, one reply per line (`rows`/`select`/`stats`
//! replies prepend extra lines, one `row …` per tuple). Replies start with
//! `ok` or `err`. Inserts are **staged per session** and applied atomically
//! by `commit`, which maintains every view and bumps the epoch; queries
//! always run against the service's current snapshot, so a session
//! observes its own commit immediately and other sessions' commits as they
//! publish.
//!
//! ```text
//! register <rules>         parse the rules (paper notation, `.`-separated),
//!                          run the static analyzer, and register a view
//!                          named after the recursive predicate; a rejected
//!                          program answers one typed diagnostic line,
//!                          `err <code> <span>: <message>`
//! insert <pred> <v> …      stage one tuple for the next commit
//! commit                   apply the staged batch, maintain views
//!                          (a rejected batch stays staged — nothing lands)
//! clear                    discard the staged batch
//! epoch                    current epoch
//! views                    registered views
//! count <view>             tuple count
//! ask <view> <v> …         membership test
//! rows <view> [limit]      list tuples (default limit 20)
//! select <view> <pos>=<v> … [limit <n>]   filtered listing
//! stats <view>             maintenance mode, stats, the rendered plan
//!                          decision
//! explain <view> [json]    the view's plan tree plus its plan-decision
//!                          record (`plan` lines and the rendered
//!                          `decision` line, or one `explain <json>`
//!                          line carrying the record as JSON)
//! explain analyze <view> [json]   `explain`, plus actually run the plan
//!                          against the current snapshot and report
//!                          per-node wall time and statistics (`node`
//!                          lines)
//! decisions [n]            newest plan/maintenance/drift journal entries,
//!                          one `decision <json>` line each (default 16)
//! health                   mode, epoch, queue depth, WAL pressure, faults
//!                          (one `key=value` line, same grammar as `metrics`)
//! metrics                  dump the global metrics registry, one
//!                          `metric name=value` line per reading
//! trace [limit]            dump the flight recorder's newest spans as
//!                          `span <json>` lines (default limit 64)
//! ready                    `ok ready` iff writes would be accepted
//! help                     this text
//! quit                     end the session
//! ```
//!
//! Every request runs under a fresh trace ID ([`linrec_obs::TraceId`]);
//! the spans it opens — protocol dispatch through maintenance fixpoint,
//! WAL append/fsync, checkpoint, and epoch publish — land in the flight
//! recorder and correlate via that ID. Requests slower than the
//! configured threshold ([`crate::service::ServiceLimits::slow_request`])
//! are counted and logged to stderr with their trace ID.
//!
//! Values parse as `i64` when possible and as symbols otherwise
//! ([`Value::parse_token`]); an empty value (`select tc 0=`) is
//! `bad-argument`, and `ask` with a tuple of the wrong arity is `arity`.
//!
//! # Error replies
//!
//! Every failure is one line, `err <code> <message>`, where `<code>` is a
//! fixed machine-parseable word (`usage`, `unknown-command`,
//! `bad-argument`, `unknown-view`, `arity`, `reserved`, `duplicate`,
//! `strategy`, `storage`, `degraded`, `read-only`, `busy`, `timeout`,
//! `internal`) or a typed analyzer diagnostic code (`L…`/`C…`). Clients
//! branch on the second token; the rest of the line is for humans.

use crate::service::{ServiceError, ViewService};
use crate::view::ViewDef;
use linrec_datalog::{Symbol, Value};
use linrec_engine::Selection;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Reply to one protocol line.
pub struct Reply {
    /// The reply text (possibly multi-line; no trailing newline).
    pub text: String,
    /// True after `quit`: the session is over.
    pub quit: bool,
}

impl Reply {
    fn line(text: impl Into<String>) -> Reply {
        Reply {
            text: text.into(),
            quit: false,
        }
    }

    /// A typed error reply: `err <code> <detail>`.
    fn err(code: &str, detail: impl std::fmt::Display) -> Reply {
        Reply::line(format!("err {code} {detail}"))
    }

    /// A [`ServiceError`] as a typed error line. Analyzer rejections keep
    /// their own per-finding code as the leading token (`err L001 …`);
    /// everything else gets the error's fixed code word.
    fn service_err(e: &ServiceError) -> Reply {
        match e {
            ServiceError::Lint(_) => Reply::line(format!("err {e}")),
            _ => Reply::err(e.code(), e),
        }
    }
}

const HELP: &str = "ok commands: register <rules> | insert <pred> <v>.. | commit | clear \
| epoch | views | count <view> | ask <view> <v>.. | rows <view> [limit] \
| select <view> <pos>=<v>.. [limit <n>] | stats <view> \
| explain [analyze] <view> [json] | decisions [n] | health | metrics \
| trace [limit] | ready | help | quit";

/// True when `LINREC_FAULT_INJECTION=1`: the `inject` test command is
/// honored (deliberate in-session panics for the containment suites).
fn fault_injection_enabled() -> bool {
    std::env::var("LINREC_FAULT_INJECTION").as_deref() == Ok("1")
}

/// The value spelled by `tok`, or the `bad-argument` reply naming the
/// argument `arg` it was cut from when it is empty.
fn parse_value(tok: &str, arg: &str) -> Result<Value, Reply> {
    Value::parse_token(tok)
        .ok_or_else(|| Reply::err("bad-argument", format_args!("empty value in {arg:?}")))
}

fn parse_tuple(toks: &[&str]) -> Result<Vec<Value>, Reply> {
    toks.iter().map(|t| parse_value(t, t)).collect()
}

/// One protocol session: a staged insert batch plus a handle to the
/// service. Sessions are independent; any number may run concurrently
/// (e.g. one per TCP connection, dispatched on the worker pool).
pub struct Session {
    service: Arc<ViewService>,
    pending: Vec<(Symbol, Vec<Value>)>,
}

impl Session {
    /// A fresh session with an empty staged batch.
    pub fn new(service: Arc<ViewService>) -> Session {
        Session {
            service,
            pending: Vec::new(),
        }
    }

    /// Handle one protocol line.
    ///
    /// Every non-empty line runs under a fresh trace ID inside a
    /// `request` span, is counted in the request metrics, and — when a
    /// [`ServiceLimits::slow_request`](crate::service::ServiceLimits)
    /// threshold is configured — is logged to stderr with its trace ID
    /// if it ran long. With instrumentation disabled
    /// ([`linrec_obs::set_enabled`]) this is a plain dispatch.
    pub fn handle(&mut self, line: &str) -> Reply {
        if !linrec_obs::enabled() {
            return self.dispatch(line);
        }
        let trace = linrec_obs::trace::TraceId::next();
        let _scope = linrec_obs::trace::enter_trace(trace);
        let cmd = line.split_whitespace().next().unwrap_or("").to_owned();
        let mut sp = linrec_obs::span("request");
        sp.attr("cmd", &cmd);
        sp.observe_into(linrec_obs::histogram!(
            "linrec_service_request_ns",
            "Protocol request latency in nanoseconds"
        ));
        let reply = self.dispatch(line);
        let nanos = sp.end().unwrap_or(0);
        linrec_obs::counter!("linrec_service_requests_total").inc();
        if reply.text.starts_with("err ") {
            linrec_obs::counter!("linrec_service_request_errors_total").inc();
        }
        if let Some(threshold) = self.service.limits().slow_request {
            if Duration::from_nanos(nanos) >= threshold {
                linrec_obs::counter!("linrec_service_slow_requests_total").inc();
                eprintln!(
                    "slow-request trace={trace} cmd={cmd} ms={:.3}",
                    nanos as f64 / 1e6
                );
            }
        }
        reply
    }

    /// Parse the command word and route to its handler (no
    /// instrumentation — [`Session::handle`] wraps this).
    fn dispatch(&mut self, line: &str) -> Reply {
        let mut toks = line.split_whitespace();
        let Some(cmd) = toks.next() else {
            return Reply::line("ok");
        };
        let rest: Vec<&str> = toks.collect();
        match cmd {
            // Rules contain whitespace: hand `register` the raw remainder.
            "register" => self.register(line.trim_start()["register".len()..].trim()),
            "insert" => self.insert(&rest),
            "commit" => self.commit(),
            "clear" => {
                let dropped = self.pending.len();
                self.pending.clear();
                Reply::line(format!("ok cleared {dropped} staged"))
            }
            "epoch" => Reply::line(format!("ok epoch {}", self.service.snapshot().epoch)),
            "views" => {
                let names = self.service.snapshot().view_names();
                Reply::line(format!("ok views {}", names.join(",")))
            }
            "count" => self.count(&rest),
            "ask" => self.ask(&rest),
            "rows" => self.rows(&rest),
            "select" => self.select(&rest),
            "stats" => self.stats(&rest),
            "explain" => self.explain(&rest),
            "decisions" => self.decisions(&rest),
            "health" => self.health(),
            "metrics" => self.metrics(),
            "trace" => self.trace(&rest),
            "ready" => self.ready(),
            "help" => Reply::line(HELP),
            "quit" => Reply {
                text: "ok bye".to_owned(),
                quit: true,
            },
            "inject" if fault_injection_enabled() => match rest.as_slice() {
                ["panic"] => panic!("deliberate injected panic (LINREC_FAULT_INJECTION)"),
                _ => Reply::err("usage", "inject panic"),
            },
            other => Reply::err("unknown-command", format_args!("{other:?} (try help)")),
        }
    }

    /// `health`: one `ok health` line of `key=value` tokens built with the
    /// same [`linrec_obs::KvLine`] grammar as `metrics`. Service-state
    /// fields come first, then the registry-sourced degradation/retry
    /// counters; the free-form degradation reason, when present, comes
    /// last.
    fn health(&self) -> Reply {
        let h = self.service.health();
        let retries = linrec_obs::counter!("linrec_service_storage_retries_total");
        let slow = linrec_obs::counter!("linrec_service_slow_requests_total");
        let mut kv = linrec_obs::KvLine::new("ok health");
        kv.push("mode", h.mode)
            .push("epoch", h.epoch)
            .push("views", h.views)
            .push("staged", self.pending.len())
            .push("waiting", h.waiting_writers)
            .push("max-queue", h.max_queue)
            .push("durable", h.durable)
            .push("wal-batches", h.wal_batches)
            .push("wal-bytes", h.wal_bytes)
            .push(
                "generation",
                h.generation
                    .map_or_else(|| "-".to_owned(), |g| g.to_string()),
            )
            .push("degradations", h.degradations)
            .push("retries", retries.get())
            .push("slow-requests", slow.get());
        if let Some(fault) = &h.last_fault {
            kv.push("last-fault", fault);
        }
        Reply::line(kv.finish())
    }

    /// `metrics`: dump every reading in the global registry, one
    /// `metric name=value` line per reading (histograms expand to their
    /// `_count`/`_sum`/`_min`/`_max`/`_p50`/`_p95`/`_p99` series), closed
    /// by `ok metrics <n>`.
    fn metrics(&self) -> Reply {
        let readings = linrec_obs::metrics::registry().render_kv();
        let mut text = String::new();
        for (name, value) in &readings {
            let mut kv = linrec_obs::KvLine::new("metric");
            kv.push(name, value);
            let _ = writeln!(text, "{}", kv.finish());
        }
        let _ = write!(text, "ok metrics {}", readings.len());
        Reply::line(text)
    }

    /// `trace [limit]`: dump the newest spans from the flight recorder
    /// (default 64), one `span <json>` line each, oldest first, closed by
    /// `ok trace <shown> spans dropped=<d>` where `dropped` counts spans
    /// the ring buffer has evicted since startup.
    fn trace(&self, rest: &[&str]) -> Reply {
        let limit = match rest {
            [] => 64usize,
            [n] => match n.parse() {
                Ok(n) => n,
                Err(_) => return Reply::err("bad-argument", format_args!("bad limit {n:?}")),
            },
            _ => return Reply::err("usage", "trace [limit]"),
        };
        let (spans, dropped) = linrec_obs::trace::recorder().snapshot();
        let skip = spans.len().saturating_sub(limit);
        let mut text = String::new();
        for record in &spans[skip..] {
            let _ = writeln!(text, "span {}", record.to_json());
        }
        let _ = write!(
            text,
            "ok trace {} spans dropped={dropped}",
            spans.len() - skip
        );
        Reply::line(text)
    }

    /// `ready`: `ok ready` iff a write arriving now would be accepted;
    /// otherwise the same typed error the write would get.
    fn ready(&self) -> Reply {
        match self.service.mode() {
            (crate::service::ServiceMode::ReadWrite, _) => Reply::line("ok ready"),
            (crate::service::ServiceMode::ReadOnly, _) => {
                Reply::service_err(&ServiceError::ReadOnly)
            }
            (crate::service::ServiceMode::Degraded, reason) => {
                Reply::service_err(&crate::service::degraded(reason))
            }
        }
    }

    /// `register <rules>`: parse a program in the paper's notation and
    /// register its recursion as a view named after the recursive
    /// predicate. Malformed programs answer a typed `L000` diagnostic;
    /// programs the analyzer refuses answer the gate's diagnostic
    /// (`err <code> <span>: <message>`). Facts in the source are ignored —
    /// the view materializes against the service's database.
    fn register(&self, src: &str) -> Reply {
        if src.is_empty() {
            return Reply::err("usage", "register <rules>");
        }
        let prog = match linrec_engine::Program::parse(src) {
            Ok(prog) => prog,
            Err(e) => return Reply::line(format!("err L000 program: {e}")),
        };
        let name = prog.rec_pred().as_str().to_owned();
        let def = ViewDef {
            name: name.clone(),
            rules: prog.rules().to_vec(),
            seed: prog.rec_pred(),
        };
        match self.service.register_view(def) {
            Ok(report) => {
                let tuples = report.views.first().map_or(0, |v| v.grown_by);
                Reply::line(format!(
                    "ok registered {name} at epoch {} ({tuples} tuples)",
                    report.epoch
                ))
            }
            Err(e) => Reply::service_err(&e),
        }
    }

    fn insert(&mut self, rest: &[&str]) -> Reply {
        let [pred, values @ ..] = rest else {
            return Reply::err("usage", "insert <pred> <v> ..");
        };
        if values.is_empty() {
            return Reply::err("usage", "insert <pred> <v> ..");
        }
        let max_staged = self.service.limits().max_staged;
        if max_staged > 0 && self.pending.len() >= max_staged {
            return Reply::err(
                "busy",
                format_args!("staged batch full ({max_staged} tuples; `commit` or `clear` first)"),
            );
        }
        let tuple = match parse_tuple(values) {
            Ok(tuple) => tuple,
            Err(reply) => return reply,
        };
        self.pending.push((Symbol::new(pred), tuple));
        Reply::line(format!("ok staged ({} pending)", self.pending.len()))
    }

    fn commit(&mut self) -> Reply {
        let staged = self.pending.len();
        match self.service.apply_batch(self.pending.iter().cloned()) {
            Ok(report) => {
                self.pending.clear();
                let mut text = format!(
                    "ok epoch {} inserted {}/{staged}",
                    report.epoch, report.inserted
                );
                for v in &report.views {
                    let _ = write!(
                        text,
                        "; {}: {} +{} tuples in {:.3} ms",
                        v.name,
                        v.mode,
                        v.grown_by,
                        v.nanos as f64 / 1e6
                    );
                }
                Reply::line(text)
            }
            // A rejected batch stays staged (nothing landed — batches are
            // atomic): fix the bad insert's effect with `clear` and retry.
            Err(e) => match e {
                ServiceError::Lint(_) => {
                    Reply::line(format!("err {e} ({staged} still staged; `clear` discards)"))
                }
                _ => Reply::err(
                    e.code(),
                    format_args!("{e} ({staged} still staged; `clear` discards)"),
                ),
            },
        }
    }

    fn count(&self, rest: &[&str]) -> Reply {
        let [view] = rest else {
            return Reply::err("usage", "count <view>");
        };
        match self.service.snapshot().count(view) {
            Ok(n) => Reply::line(format!("ok count {n}")),
            Err(e) => Reply::service_err(&e),
        }
    }

    fn ask(&self, rest: &[&str]) -> Reply {
        let [view, values @ ..] = rest else {
            return Reply::err("usage", "ask <view> <v> ..");
        };
        let tuple = match parse_tuple(values) {
            Ok(tuple) => tuple,
            Err(reply) => return reply,
        };
        match self.service.snapshot().contains(view, &tuple) {
            Ok(found) => Reply::line(format!("ok {found}")),
            Err(e) => Reply::service_err(&e),
        }
    }

    fn rows(&self, rest: &[&str]) -> Reply {
        let (view, limit) = match rest {
            [view] => (view, 20usize),
            [view, limit] => match limit.parse() {
                Ok(n) => (view, n),
                Err(_) => return Reply::err("bad-argument", "bad limit"),
            },
            _ => return Reply::err("usage", "rows <view> [limit]"),
        };
        self.listing(view, None, limit)
    }

    fn select(&self, rest: &[&str]) -> Reply {
        let [view, args @ ..] = rest else {
            return Reply::err("usage", "select <view> <pos>=<v> .. [limit <n>]");
        };
        let mut sel: Option<Selection> = None;
        let mut limit = 20usize;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if *arg == "limit" {
                match args.next().and_then(|n| n.parse().ok()) {
                    Some(n) => limit = n,
                    None => return Reply::err("bad-argument", "bad limit"),
                }
                continue;
            }
            let Some((pos, val)) = arg.split_once('=') else {
                return Reply::err(
                    "bad-argument",
                    format_args!("bad binding {arg:?}; expected pos=value"),
                );
            };
            let Ok(pos) = pos.parse::<usize>() else {
                return Reply::err("bad-argument", format_args!("bad position in {arg:?}"));
            };
            let value = match parse_value(val, arg) {
                Ok(value) => value,
                Err(reply) => return reply,
            };
            sel = Some(match sel {
                None => Selection::eq(pos, value),
                Some(s) => s.and(pos, value),
            });
        }
        self.listing(view, sel, limit)
    }

    fn listing(&self, view: &str, sel: Option<Selection>, limit: usize) -> Reply {
        let snapshot = self.service.snapshot();
        // A position past the view's arity matches nothing; on the wire
        // that is a mistake to report, not an empty answer.
        if let (Some(sel), Some(info)) = (&sel, snapshot.view(view)) {
            let arity = info.relation.arity();
            if let Some(pos) = sel.positions().into_iter().find(|&p| p >= arity) {
                return Reply::err(
                    "bad-argument",
                    format_args!("position {pos} out of range for {view}/{arity}"),
                );
            }
        }
        match snapshot.select(view, sel.as_ref(), limit) {
            Ok(rows) => {
                let mut text = String::new();
                for row in &rows {
                    text.push_str("row");
                    for v in row {
                        let _ = write!(text, " {v}");
                    }
                    text.push('\n');
                }
                let _ = write!(text, "ok {} rows", rows.len());
                Reply::line(text)
            }
            Err(e) => Reply::service_err(&e),
        }
    }

    fn stats(&self, rest: &[&str]) -> Reply {
        let [view] = rest else {
            return Reply::err("usage", "stats <view>");
        };
        let snapshot = self.service.snapshot();
        match snapshot.view(view) {
            Some(info) => Reply::line(format!(
                "stat epoch {} (view updated at {})\n\
                 stat mode {}\n\
                 stat maintenance {:.3} ms [{}]\n\
                 stat plan {}\n\
                 ok stats",
                snapshot.epoch,
                info.updated_epoch,
                info.mode,
                info.maintenance_nanos as f64 / 1e6,
                info.stats,
                info.decision,
            )),
            None => Reply::service_err(&ServiceError::UnknownView((*view).to_owned())),
        }
    }

    /// `explain [analyze] <view> [json]`: the plan tree plus the
    /// structured decision record; with `analyze` the
    /// plan also runs against the current snapshot and the reply carries
    /// per-node wall time. Human form is `plan`/`decision`/`node` lines
    /// closed by `ok explain <view> …`; `json` collapses the report into
    /// one `explain <json>` line.
    fn explain(&self, rest: &[&str]) -> Reply {
        let (analyze, rest) = match rest {
            ["analyze", tail @ ..] => (true, tail),
            tail => (false, tail),
        };
        let (view, json) = match rest {
            [view] => (view, false),
            [view, "json"] => (view, true),
            _ => return Reply::err("usage", "explain [analyze] <view> [json]"),
        };
        let report = match self.service.explain(view, analyze) {
            Ok(report) => report,
            Err(e) => return Reply::service_err(&e),
        };
        let mut text = String::new();
        if json {
            let _ = writeln!(text, "explain {}", explain_json(&report));
            let _ = write!(text, "ok explain {}", report.view);
            return Reply::line(text);
        }
        let _ = writeln!(text, "plan view {} mode {}", report.view, report.mode);
        for line in report.tree.lines() {
            let _ = writeln!(text, "plan {line}");
        }
        let _ = writeln!(text, "decision {}", report.decision);
        for (i, node) in report.nodes.iter().enumerate() {
            let _ = writeln!(
                text,
                "node {i} {:.3} ms [{}] {}",
                node.nanos as f64 / 1e6,
                node.stats,
                node.label
            );
        }
        if report.analyzed {
            let _ = write!(
                text,
                "ok explain {} analyzed {} nodes in {:.3} ms",
                report.view,
                report.nodes.len(),
                report.total_nanos as f64 / 1e6
            );
        } else {
            let _ = write!(text, "ok explain {}", report.view);
        }
        Reply::line(text)
    }

    /// `decisions [n]`: the newest `n` (default 16) entries of the global
    /// decision journal, one `decision <json>` line each, oldest first,
    /// closed by `ok decisions <shown> dropped=<d>`.
    fn decisions(&self, rest: &[&str]) -> Reply {
        let limit = match rest {
            [] => 16usize,
            [n] => match n.parse() {
                Ok(n) => n,
                Err(_) => return Reply::err("bad-argument", format_args!("bad limit {n:?}")),
            },
            _ => return Reply::err("usage", "decisions [n]"),
        };
        let journal = linrec_obs::journal::journal();
        let entries = journal.recent(limit);
        let mut text = String::new();
        for entry in &entries {
            let _ = writeln!(text, "decision {}", entry.to_json());
        }
        let _ = write!(
            text,
            "ok decisions {} dropped={}",
            entries.len(),
            journal.dropped()
        );
        Reply::line(text)
    }
}

/// Render an [`ExplainReport`](crate::service::ExplainReport) as one JSON
/// object. The embedded decision record (already JSON) is inlined. Shared
/// by the protocol's `explain … json` reply and `linrec explain --format
/// json`.
pub fn explain_json(report: &crate::service::ExplainReport) -> String {
    linrec_obs::json::object(|o| {
        o.str("view", &report.view);
        o.str("mode", report.mode);
        o.bool("analyzed", report.analyzed);
        o.str("tree", &report.tree);
        o.raw("decision", &report.decision.to_json());
        o.u64("total_nanos", report.total_nanos);
        o.array("nodes", |a| {
            for node in &report.nodes {
                a.object(|o| {
                    o.str("label", &node.label);
                    o.u64("nanos", node.nanos);
                    node.stats.write_json(o);
                });
            }
        });
    })
}

/// Run a session over arbitrary buffered line I/O (stdin REPL, test
/// harnesses). Returns when the input ends or the session quits.
///
/// A panic while handling a request is **contained to the session**: the
/// client gets one `err internal …` line and the connection closes; the
/// service (and every other session) keeps serving. The writer lock is
/// only at risk if the panic happened while holding it — the handler
/// stages and queries through the service API, which never unwinds with
/// the lock held short of a service bug, and even then only writers see
/// the poison, not this loop.
pub fn serve_lines(
    service: Arc<ViewService>,
    input: impl std::io::BufRead,
    mut output: impl std::io::Write,
) -> std::io::Result<()> {
    let mut session = Session::new(service);
    for line in input.lines() {
        let line = line?;
        let reply =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.handle(&line)));
        match reply {
            Ok(reply) => {
                writeln!(output, "{}", reply.text)?;
                output.flush()?;
                if reply.quit {
                    break;
                }
            }
            Err(_) => {
                writeln!(
                    output,
                    "err internal request handler panicked; closing session"
                )?;
                output.flush()?;
                break;
            }
        }
    }
    Ok(())
}

/// Pause after a failed `accept` before the next attempt.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Serve TCP connections on `listener`, one session per connection,
/// dispatched on `pool` (so at most `pool.threads()` connections are
/// served concurrently; further connections queue). Runs until the
/// process exits: a failed `accept` — say, out of file descriptors, as
/// each session holds two — is logged once per run of failures and
/// retried after `ACCEPT_BACKOFF`.
pub fn serve_tcp(
    service: Arc<ViewService>,
    listener: std::net::TcpListener,
    pool: &crate::WorkerPool,
) -> ! {
    let mut failing = false;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _addr)) => stream,
            Err(e) => {
                if !failing {
                    eprintln!("accept failed: {e}; retrying every {ACCEPT_BACKOFF:?}");
                }
                failing = true;
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        failing = false;
        let service = Arc::clone(&service);
        pool.execute(move || {
            let reader = std::io::BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            });
            let _ = serve_lines(service, reader, stream);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, ServiceLimits};
    use crate::view::ViewDef;
    use linrec_datalog::{parse_linear_rule, Database, Relation};

    fn tc_service() -> Arc<ViewService> {
        tc_service_with(ServiceLimits::default())
    }

    fn tc_service_with(limits: ServiceLimits) -> Arc<ViewService> {
        let mut db = Database::new();
        db.set_relation("e", Relation::from_pairs([(1, 2), (2, 3)]));
        let config = ServiceConfig {
            limits,
            ..ServiceConfig::default()
        };
        let service = Arc::new(ViewService::with_config(db, config));
        service
            .register_view(ViewDef {
                name: "tc".into(),
                rules: vec![parse_linear_rule("p(x,y) :- p(x,z), e(z,y).").unwrap()],
                seed: Symbol::new("e"),
            })
            .unwrap();
        service
    }

    #[test]
    fn protocol_round_trip() {
        let service = tc_service();
        let mut s = Session::new(Arc::clone(&service));
        assert_eq!(s.handle("count tc").text, "ok count 3");
        assert_eq!(s.handle("ask tc 1 3").text, "ok true");
        assert_eq!(s.handle("ask tc 3 1").text, "ok false");
        assert_eq!(s.handle("epoch").text, "ok epoch 1");
        assert_eq!(s.handle("views").text, "ok views tc");
        assert!(s.handle("insert e 3 4").text.starts_with("ok staged"));
        let commit = s.handle("commit").text;
        assert!(commit.starts_with("ok epoch 2 inserted 1/1"), "{commit}");
        assert!(commit.contains("tc: incremental"), "{commit}");
        assert_eq!(s.handle("ask tc 1 4").text, "ok true");
        assert_eq!(s.handle("count tc").text, "ok count 6");
        let select = s.handle("select tc 0=1").text;
        assert_eq!(select.lines().count(), 4, "{select}");
        assert!(select.ends_with("ok 3 rows"), "{select}");
        let stats = s.handle("stats tc").text;
        assert!(stats.contains("stat mode incremental"), "{stats}");
        assert!(stats.contains("estimate/actual"), "{stats}");
        assert!(s.handle("quit").quit);
    }

    #[test]
    fn protocol_reports_errors() {
        let service = tc_service();
        let mut s = Session::new(service);
        assert!(s.handle("count nope").text.starts_with("err unknown-view"));
        assert!(s
            .handle("frobnicate")
            .text
            .starts_with("err unknown-command"));
        assert!(s.handle("insert e 1").text.starts_with("ok staged"));
        assert!(s.handle("insert e 1 2 3").text.starts_with("ok staged"));
        // Mixed arities within one batch fail atomically: nothing lands,
        // and the staged batch is kept for inspection/clear.
        let err = s.handle("commit").text;
        assert!(err.starts_with("err"), "{err}");
        assert!(err.contains("2 still staged"), "{err}");
        assert_eq!(s.handle("count tc").text, "ok count 3");
        assert_eq!(s.handle("epoch").text, "ok epoch 1");
        assert_eq!(s.handle("clear").text, "ok cleared 2 staged");
        // After clearing, a commit is a no-op rather than an error.
        assert!(s
            .handle("commit")
            .text
            .starts_with("ok epoch 1 inserted 0/0"));
    }

    #[test]
    fn protocol_registers_programs_through_the_analyzer() {
        let mut db = Database::new();
        db.set_relation("up", Relation::from_pairs([(1, 2), (2, 3)]));
        let service = Arc::new(ViewService::new(db));
        let mut s = Session::new(service);

        let ok = s.handle("register p(x,y) :- p(x,z), up(z,y).").text;
        assert!(ok.starts_with("ok registered p at epoch 1"), "{ok}");
        assert_eq!(s.handle("views").text, "ok views p");
        // The view is seeded by its own predicate: stage seed facts and
        // let maintenance chase them through `up`.
        s.handle("insert p 1 1");
        assert!(s.handle("commit").text.starts_with("ok epoch 2"));
        assert_eq!(s.handle("ask p 1 3").text, "ok true");

        // Unsafe rule: the analyzer answers a typed diagnostic line.
        let unsafe_rule = s.handle("register q(x,w) :- q(x,z), up(z,y).").text;
        assert!(unsafe_rule.starts_with("err L001 rule 0"), "{unsafe_rule}");

        // Malformed source: typed parse diagnostic, not a generic error.
        let bad = s.handle("register this is not datalog").text;
        assert!(bad.starts_with("err L000 program:"), "{bad}");

        // Facts using one predicate at two arities: typed, not a panic,
        // and the session keeps serving.
        let clash = s
            .handle("register r(x,y) :- r(x,z), up(z,y). up(1,2). up(1,2,3).")
            .text;
        assert!(clash.starts_with("err L000 program:"), "{clash}");
        assert_eq!(s.handle("views").text, "ok views p");

        assert!(s.handle("register").text.starts_with("err usage"));
    }

    #[test]
    fn serve_lines_drives_a_session() {
        let service = tc_service();
        let input = b"count tc\nask tc 1 2\nquit\nnever reached\n";
        let mut output = Vec::new();
        serve_lines(service, &input[..], &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text, "ok count 3\nok true\nok bye\n");
    }

    #[test]
    fn every_failure_is_a_typed_code_line() {
        let service = tc_service();
        let mut s = Session::new(service);
        // Second token of every error line is a fixed code word.
        for (line, code) in [
            ("count", "usage"),
            ("rows", "usage"),
            ("rows tc nope", "bad-argument"),
            ("select tc 0:1", "bad-argument"),
            ("select tc 5=1", "bad-argument"),
            ("ask tc 1", "arity"),
            ("insert e", "usage"),
            ("stats nope", "unknown-view"),
            ("bogus-cmd", "unknown-command"),
        ] {
            let text = s.handle(line).text;
            let mut toks = text.split_whitespace();
            assert_eq!(toks.next(), Some("err"), "{line} → {text}");
            assert_eq!(toks.next(), Some(code), "{line} → {text}");
        }
        // A selection past the view's arity names the position, and the
        // session keeps serving valid selections.
        assert_eq!(
            s.handle("select tc 5=1").text,
            "err bad-argument position 5 out of range for tc/2"
        );
        assert!(s.handle("select tc 0=1").text.ends_with("ok 2 rows"));
        // An empty value and a tuple of the wrong arity are mistakes to
        // report, not the symbol "" and a tuple that is not there.
        assert_eq!(
            s.handle("select tc 0=").text,
            "err bad-argument empty value in \"0=\""
        );
        assert_eq!(
            s.handle("ask tc 1 2 3").text,
            "err arity tc holds 2-tuples, got arity 3"
        );
        assert_eq!(s.handle("ask tc 1 2").text, "ok true");
        // Wrong-arity commit: typed code, batch stays staged.
        s.handle("insert e 1 2 3");
        let text = s.handle("commit").text;
        assert!(text.starts_with("err arity"), "{text}");
        assert!(text.contains("still staged"), "{text}");
    }

    #[test]
    fn health_and_ready_report_the_mode() {
        let service = tc_service();
        let mut s = Session::new(Arc::clone(&service));
        assert_eq!(s.handle("ready").text, "ok ready");
        let health = s.handle("health").text;
        assert!(health.starts_with("ok health mode=read-write"), "{health}");
        assert!(health.contains("epoch=1"), "{health}");
        assert!(health.contains("views=1"), "{health}");
        assert!(health.contains("durable=false"), "{health}");
        assert!(health.contains("generation=-"), "{health}");

        // Operator read-only: ready degrades to the typed refusal, and so
        // does a commit; reads keep working.
        service.set_read_only(true);
        assert!(s.handle("ready").text.starts_with("err read-only"));
        s.handle("insert e 7 8");
        assert!(s.handle("commit").text.starts_with("err read-only"));
        assert_eq!(s.handle("count tc").text, "ok count 3");
        let health = s.handle("health").text;
        assert!(health.contains("mode=read-only"), "{health}");
        service.set_read_only(false);
        assert_eq!(s.handle("ready").text, "ok ready");
        assert!(s.handle("commit").text.starts_with("ok epoch 2"));
    }

    #[test]
    fn metrics_command_dumps_the_registry() {
        let service = tc_service();
        let mut s = Session::new(service);
        s.handle("insert e 3 4");
        assert!(s.handle("commit").text.starts_with("ok epoch 2"));
        let text = s.handle("metrics").text;
        let lines: Vec<&str> = text.lines().collect();
        let (last, body) = lines.split_last().unwrap();
        assert!(!body.is_empty(), "{text}");
        for line in body {
            // Shared grammar with `health`: `metric <name>=<value>`.
            let rest = line.strip_prefix("metric ").unwrap_or_else(|| {
                panic!("metrics line missing prefix: {line:?}");
            });
            let (name, value) = rest.split_once('=').unwrap();
            assert!(!name.is_empty() && !value.is_empty(), "{line}");
        }
        assert_eq!(*last, format!("ok metrics {}", body.len()), "{text}");
        // The batch just committed is visible in the dump (global
        // registry: other tests may have committed too, so ≥ 1).
        let batches = body
            .iter()
            .find_map(|l| l.strip_prefix("metric linrec_service_batches_total="))
            .expect("batches_total present");
        assert!(batches.parse::<u64>().unwrap() >= 1, "{batches}");
    }

    #[test]
    fn trace_command_dumps_correlated_spans() {
        let service = tc_service();
        let mut s = Session::new(service);
        s.handle("insert e 30 40");
        assert!(s.handle("commit").text.starts_with("ok epoch 2"));
        let text = s.handle("trace 4096").text;
        let lines: Vec<&str> = text.lines().collect();
        let (last, body) = lines.split_last().unwrap();
        assert!(last.starts_with("ok trace "), "{last}");
        assert!(last.contains(" spans dropped="), "{last}");
        // Every span line is the JSON the flight recorder produced.
        for line in body {
            assert!(line.starts_with("span {\"trace\":\"t-"), "{line}");
        }
        // A commit's request span shares its trace ID with the
        // maintenance fixpoint, batch, and epoch publish it triggered.
        // (The recorder is global, so scan every commit trace — other
        // tests' no-op commits legitimately have no fixpoint.)
        let trace_of = |l: &str| -> String {
            l.split_once("\"trace\":\"")
                .unwrap()
                .1
                .split('"')
                .next()
                .unwrap()
                .to_owned()
        };
        let correlated = body
            .iter()
            .filter(|l| l.contains("\"name\":\"request\"") && l.contains("\"cmd\":\"commit\""))
            .map(|l| trace_of(l))
            .any(|trace| {
                ["engine.fixpoint", "service.batch", "service.publish"]
                    .iter()
                    .all(|name| {
                        body.iter().any(|l| {
                            l.contains(&format!("\"name\":\"{name}\"")) && l.contains(&trace)
                        })
                    })
            });
        assert!(
            correlated,
            "no commit trace correlates request → fixpoint → batch → publish:\n{text}"
        );
        assert!(s.handle("trace nope").text.starts_with("err bad-argument"));
    }

    #[test]
    fn trace_edge_limits_zero_and_larger_than_the_ring() {
        let service = tc_service();
        let mut s = Session::new(service);
        s.handle("insert e 50 60");
        assert!(s.handle("commit").text.starts_with("ok epoch 2"));

        // `trace 0`: no span lines, just the terminator.
        let zero = s.handle("trace 0").text;
        assert_eq!(zero.lines().count(), 1, "{zero}");
        assert!(zero.starts_with("ok trace 0 spans dropped="), "{zero}");

        // A limit far beyond the ring capacity returns every held span
        // and reports the honest count, not the limit.
        let cap = linrec_obs::trace::recorder().capacity();
        let huge = s.handle(&format!("trace {}", cap * 100)).text;
        let lines: Vec<&str> = huge.lines().collect();
        let (last, body) = lines.split_last().unwrap();
        assert!(
            body.len() <= cap,
            "{} spans > ring capacity {cap}",
            body.len()
        );
        let shown: usize = last
            .strip_prefix("ok trace ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert_eq!(shown, body.len(), "{last}");
    }

    #[test]
    fn explain_shows_the_plan_and_decision_record() {
        let service = tc_service();
        let mut s = Session::new(service);
        let text = s.handle("explain tc").text;
        assert!(text.starts_with("plan view tc mode incremental"), "{text}");
        assert!(text.contains("decision picked "), "{text}");
        assert!(
            !text.contains("\nnode "),
            "plain explain must not run: {text}"
        );
        assert!(text.ends_with("ok explain tc"), "{text}");

        let analyzed = s.handle("explain analyze tc").text;
        assert!(analyzed.contains("\nnode 0 "), "{analyzed}");
        assert!(analyzed.contains("derivations="), "{analyzed}");
        let last = analyzed.lines().last().unwrap();
        assert!(last.starts_with("ok explain tc analyzed"), "{analyzed}");

        let json = s.handle("explain analyze tc json").text;
        let mut lines = json.lines();
        let body = lines.next().unwrap();
        assert!(body.starts_with("explain {\"view\":\"tc\""), "{json}");
        assert!(body.contains("\"decision\":{"), "{json}");
        assert!(body.contains("\"winner\""), "{json}");
        assert!(body.contains("\"nodes\":[{"), "{json}");
        assert_eq!(lines.next(), Some("ok explain tc"), "{json}");

        assert!(s
            .handle("explain nope")
            .text
            .starts_with("err unknown-view"));
        assert!(s.handle("explain").text.starts_with("err usage"));
    }

    #[test]
    fn decisions_dumps_the_journal() {
        let service = tc_service();
        let mut s = Session::new(Arc::clone(&service));
        s.handle("insert e 3 4");
        assert!(s.handle("commit").text.starts_with("ok epoch 2"));
        let text = s.handle("decisions 256").text;
        let lines: Vec<&str> = text.lines().collect();
        let (last, body) = lines.split_last().unwrap();
        assert!(last.starts_with("ok decisions "), "{last}");
        assert!(last.contains(" dropped="), "{last}");
        for line in body {
            assert!(line.starts_with("decision {\"seq\":"), "{line}");
        }
        // The commit above journaled a maintenance sample for tc (the
        // journal is global, so scan rather than index).
        assert!(
            body.iter()
                .any(|l| l.contains("\"kind\":\"maintain\"") && l.contains("\"view\":\"tc\"")),
            "{text}"
        );
        assert!(s
            .handle("decisions nope")
            .text
            .starts_with("err bad-argument"));
    }

    #[test]
    fn slow_request_threshold_counts_and_logs() {
        let service = tc_service_with(ServiceLimits {
            slow_request: Some(std::time::Duration::ZERO),
            ..Default::default()
        });
        let mut s = Session::new(service);
        let slow = linrec_obs::counter!("linrec_service_slow_requests_total");
        let before = slow.get();
        assert_eq!(s.handle("epoch").text, "ok epoch 1");
        let after = slow.get();
        assert!(after > before, "slow-request counter did not move");
        // And `health` surfaces the registry counter.
        let health = s.handle("health").text;
        assert!(health.contains("slow-requests="), "{health}");
        assert!(health.contains("retries="), "{health}");
    }

    #[test]
    fn staged_cap_sheds_inserts_with_busy() {
        let service = tc_service_with(ServiceLimits {
            max_staged: 2,
            ..Default::default()
        });
        let mut s = Session::new(service);
        assert!(s.handle("insert e 10 11").text.starts_with("ok staged"));
        assert!(s.handle("insert e 11 12").text.starts_with("ok staged"));
        let shed = s.handle("insert e 12 13").text;
        assert!(shed.starts_with("err busy"), "{shed}");
        // The staged batch is intact and committable.
        assert!(s
            .handle("commit")
            .text
            .starts_with("ok epoch 2 inserted 2/2"));
    }

    #[test]
    fn a_panicking_request_closes_only_its_session() {
        std::env::set_var("LINREC_FAULT_INJECTION", "1");
        let service = tc_service();
        let input = b"count tc\ninject panic\nnever reached\n";
        let mut output = Vec::new();
        // Quiet the default panic hook for the deliberate panic.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        serve_lines(Arc::clone(&service), &input[..], &mut output).unwrap();
        std::panic::set_hook(hook);
        let text = String::from_utf8(output).unwrap();
        assert_eq!(
            text,
            "ok count 3\nerr internal request handler panicked; closing session\n"
        );
        // The service survives: a fresh session serves normally.
        let mut s = Session::new(service);
        assert_eq!(s.handle("count tc").text, "ok count 3");
        s.handle("insert e 3 4");
        assert!(s.handle("commit").text.starts_with("ok epoch 2"));
    }

    /// `explain … json` (with nodes) and the drift event are each one
    /// valid object whose top-level members read back as written.
    #[test]
    fn every_json_shape_reads_back() {
        use crate::sentinel::DriftTrip;
        use crate::service::{drift_event, ExplainReport};
        use linrec_engine::{EvalStats, TraceStep};

        let decision = tc_service().explain("tc", false).unwrap().decision;
        let stats = EvalStats {
            iterations: 2,
            applications: 3,
            derivations: 4,
            duplicates: 1,
            tuples: 3,
        };
        let step = |label: &str, nanos| TraceStep {
            label: label.into(),
            stats,
            nanos,
        };
        let report = ExplainReport {
            view: "t\"c".into(),
            mode: "incremental",
            tree: "star\n  e".into(),
            decision: Arc::clone(&decision),
            nodes: vec![step("seed", 5), step("σ ∘ e*", 7)],
            total_nanos: 12,
            analyzed: true,
        };
        let node = |label: &str, nanos: u64| {
            format!(
                "{{\"label\":\"{label}\",\"nanos\":{nanos},\"tuples\":3,\"derivations\":4,\
                 \"duplicates\":1,\"iterations\":2,\"applications\":3}}"
            )
        };
        let nodes = format!("[{},{}]", node("seed", 5), node("σ ∘ e*", 7));
        let decision_json = decision.to_json();
        let trip = DriftTrip::Ratio { ewma_ratio: 600.0 };
        let cases: Vec<(String, Vec<(&str, &str)>)> = vec![
            (
                explain_json(&report),
                vec![
                    ("view", "\"t\\\"c\""),
                    ("mode", "\"incremental\""),
                    ("analyzed", "true"),
                    ("tree", "\"star\\n  e\""),
                    ("decision", &decision_json),
                    ("total_nanos", "12"),
                    ("nodes", &nodes),
                ],
            ),
            (
                drift_event("tc", &trip, "t-00000001"),
                vec![
                    ("event", "\"plan-drift\""),
                    ("view", "\"tc\""),
                    ("kind", "\"ratio\""),
                    ("detail", "\"estimate/actual EWMA drifted to 600.000\""),
                    ("trace", "\"t-00000001\""),
                ],
            ),
        ];
        for (text, expected) in cases {
            let members =
                linrec_obs::json::members(&text).unwrap_or_else(|| panic!("invalid: {text}"));
            let got: Vec<(&str, &str)> = members.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            assert_eq!(got, expected, "{text}");
        }
    }
}
