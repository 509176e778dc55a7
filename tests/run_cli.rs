//! `linrec run` end-to-end: what the real binary prints after the plan
//! and the phase trace — the count, the 20 lexicographically smallest
//! tuples and `… N more` — must equal the library's answer, sorted, cut
//! to its first 20. Covered: every shipped `examples/programs/*.lr`, a
//! relabelled 40×40 grid TC (the dense closure) and a relabelled chains
//! TC (sparse semi-naive).
//!
//! The dense backend emits its answer in sorted order (its domain is
//! numbered in value order), so only the sparse run, whose rows sit in
//! derivation order, tells a real top-k from "the first 20 rows".
//!
//! Also: `run` and `serve` refuse a thread count above the engine's
//! limit, from `--threads` or `LINREC_THREADS`, before building a pool.

use linrec::datalog::Value;
use linrec::engine::{Plan, Program};
use linrec_testkit::grid;
use std::path::{Path, PathBuf};
use std::process::Command;

const SHOWN: usize = 20;

/// `linrec run`'s plan (the stdout before the `N tuples in` line), and
/// the tail from that line on without its timing and `phase:` lines:
/// the count, then the rows and the `… N more` line.
fn printed_answer(path: &Path) -> (String, (usize, Vec<String>)) {
    let out = Command::new(env!("CARGO_BIN_EXE_linrec"))
        .arg("run")
        .arg(path)
        .output()
        .expect("spawn linrec");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{}: {stdout}{}",
        path.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    let at = stdout.find(" tuples in ").expect("a `tuples in` line");
    let plan = stdout[..at].rsplit_once('\n').map_or("", |(plan, _)| plan);
    let mut lines = stdout[plan.len()..].lines().skip_while(|l| l.is_empty());
    let count_line = lines.next().expect("a `tuples in` line");
    let count = count_line
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("bad count line {count_line:?}"));
    let rest = lines
        .filter(|l| !l.starts_with("  phase: "))
        .map(str::to_owned)
        .collect();
    (plan.to_owned(), (count, rest))
}

/// The same lines computed by the library: the Direct fixpoint's answer,
/// fully sorted, first 20 shown.
fn oracle(src: &str) -> (usize, Vec<String>) {
    let prog = Program::parse(src).expect("the program parses");
    let answer = Plan::direct(prog.rules().to_vec())
        .execute(prog.database(), prog.init())
        .expect("Direct runs")
        .relation;
    let sorted = answer.sorted();
    let mut lines: Vec<String> = sorted
        .iter()
        .take(SHOWN)
        .map(|t| {
            let cells: Vec<String> = t.iter().map(|v| v.to_string()).collect();
            format!("  {}({})", prog.rec_pred(), cells.join(","))
        })
        .collect();
    if sorted.len() > SHOWN {
        lines.push(format!("  … {} more", sorted.len() - SHOWN));
    }
    (sorted.len(), lines)
}

/// Check the printed answer against the oracle; returns the plan.
fn assert_run_matches_oracle(path: &Path) -> String {
    let src = std::fs::read_to_string(path).unwrap();
    let (plan, printed) = printed_answer(path);
    assert_eq!(printed, oracle(&src), "{}", path.display());
    plan
}

/// A TC program over `edges`, seeded with every edge.
fn tc_program(edges: impl IntoIterator<Item = (i64, i64)>) -> String {
    let mut text = String::from("p(x,y) :- p(x,z), edge(z,y).\n");
    for (a, b) in edges {
        text.push_str(&format!("edge({a},{b}). p({a},{b}).\n"));
    }
    text
}

/// Write `src` to a per-process temp file, removed on drop.
struct Fixture(PathBuf);

impl Fixture {
    fn new(name: &str, src: &str) -> Fixture {
        let path = std::env::temp_dir().join(format!("linrec-run-{}-{name}", std::process::id()));
        std::fs::write(&path, src).unwrap();
        Fixture(path)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Scatter node ids `0..5003`, so insertion order is not the sorted
/// order, and spread them over negative values too.
fn relabel(v: i64) -> i64 {
    (v * 7919) % 5003 - 2501
}

#[test]
fn shipped_programs_print_the_sorted_prefix() {
    let mut seen = 0;
    for entry in std::fs::read_dir("examples/programs").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "lr") {
            assert_run_matches_oracle(&path);
            seen += 1;
        }
    }
    assert!(seen >= 4, "the corpus went missing: {seen} programs");
}

#[test]
fn dense_grid_tc_prints_the_sorted_prefix() {
    let grid = grid(40, 40);
    let edges = grid.iter().map(|t| match t {
        [Value::Int(a), Value::Int(b)] => (relabel(*a), relabel(*b)),
        _ => unreachable!("grid edges are integer pairs"),
    });
    let f = Fixture::new("grid.lr", &tc_program(edges));
    let plan = assert_run_matches_oracle(&f.0);
    assert!(plan.starts_with("plan:\nDenseClosure"), "{plan}");
}

#[test]
fn chains_tc_prints_the_sorted_prefix() {
    // Too many nodes for the dense budget, so semi-naive runs it.
    let (chains, len) = (200i64, 25i64);
    let edges = (0..chains)
        .flat_map(|c| (0..len - 1).map(move |i| (relabel(c * len + i), relabel(c * len + i + 1))));
    let f = Fixture::new("chains.lr", &tc_program(edges));
    let plan = assert_run_matches_oracle(&f.0);
    assert!(!plan.contains("DenseClosure"), "{plan}");
}

#[test]
fn thread_counts_above_the_limit_fail_before_any_pool() {
    let program = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs/tc_chain.lr");
    // 65 is one past the limit: a broken check starts at most 65 threads.
    let over = (linrec::engine::parallel::MAX_THREADS + 1).to_string();
    for cmd in ["run", "serve"] {
        for via_env in [false, true] {
            let mut linrec = Command::new(env!("CARGO_BIN_EXE_linrec"));
            linrec
                .arg(cmd)
                .arg(&program)
                .stdin(std::process::Stdio::null());
            if via_env {
                linrec.env(linrec::engine::parallel::THREADS_ENV, &over);
            } else {
                linrec.args(["--threads", &over]);
            }
            let out = linrec.output().expect("spawn linrec");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !out.status.success(),
                "{cmd} (env: {via_env}) accepted {over}"
            );
            assert!(
                stderr.contains("65 threads is above the limit of 64"),
                "{cmd} (env: {via_env}): {stderr}"
            );
            assert!(out.stdout.is_empty(), "{cmd} ran before refusing");
        }
    }
}
