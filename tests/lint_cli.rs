//! `linrec check` end-to-end: the analyzer's documented exit-code and
//! output contract, driven through the real binary.
//!
//! Fixture programs exercise one lint class each (unsafe rule, dead rule,
//! subsumed rule, duplicate rule); a clean program and the shipped
//! `examples/programs/*.lr` corpus must pass. JSON output must carry the
//! same codes as the human renderer. On that corpus, `linrec analyze` must
//! print the plan `linrec explain` shows.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Write `src` to a unique temp file and return its path.
struct Fixture(PathBuf);

impl Fixture {
    fn new(name: &str, src: &str) -> Fixture {
        let path = std::env::temp_dir().join(format!("linrec-lint-{}-{name}", std::process::id()));
        std::fs::write(&path, src).unwrap();
        Fixture(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_linrec"))
        .arg("check")
        .args(args)
        .output()
        .expect("spawn linrec")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_program_exits_zero() {
    let f = Fixture::new(
        "clean.lr",
        "p(x,y) :- p(x,z), e(z,y).\ne(1,2). e(2,3).\np(1,1).\n",
    );
    let out = check(&[f.path()]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("clean"), "{}", stdout(&out));
}

#[test]
fn unsafe_rule_is_l001() {
    let f = Fixture::new(
        "unsafe.lr",
        "q(x,w) :- q(x,z), up(z,x).\nup(1,2). q(1,1).\n",
    );
    let out = check(&[f.path()]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("error[L001]"), "{}", stdout(&out));
}

#[test]
fn dead_rule_is_l004() {
    // `ghost` has no facts: the rule joining it can never fire.
    let f = Fixture::new(
        "dead.lr",
        "p(x,y) :- p(x,z), e(z,y).\np(x,y) :- p(x,z), ghost(z,y).\ne(1,2).\np(1,1).\n",
    );
    let out = check(&[f.path()]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("warning[L004]"), "{}", stdout(&out));
}

#[test]
fn subsumed_rule_is_l005() {
    // The second rule adds a restriction to the first: everything it
    // derives, the first derives too.
    let f = Fixture::new(
        "subsumed.lr",
        "p(x,y) :- p(x,z), e(z,y).\np(x,y) :- p(x,z), e(z,y), f(y,y).\ne(1,2). f(2,2).\np(1,1).\n",
    );
    let out = check(&[f.path()]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("warning[L005]"), "{}", stdout(&out));
}

#[test]
fn duplicate_rule_is_l006() {
    let f = Fixture::new(
        "dup.lr",
        "p(x,y) :- p(x,z), e(z,y).\np(x,y) :- p(x,w), e(w,y).\ne(1,2).\np(1,1).\n",
    );
    let out = check(&[f.path()]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("warning[L006]"), "{}", stdout(&out));
}

#[test]
fn unparsable_file_is_l000() {
    // Garbage, and facts using one predicate at two arities (which used
    // to abort inside the relation arena instead of being reported).
    for (name, src) in [
        ("garbage.lr", "this is not a program\n"),
        (
            "two-arities.lr",
            "p(x,y) :- p(x,z), edge(z,y).\nedge(1,2). edge(1,2,3).\np(1,1).\n",
        ),
    ] {
        let f = Fixture::new(name, src);
        let out = check(&[f.path()]);
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        let text = stdout(&out);
        assert_eq!(text.lines().count(), 1, "{name}: {text}");
        assert!(text.contains("error[L000]"), "{name}: {text}");
        assert!(out.stderr.is_empty(), "{name}: {out:?}");
    }
}

#[test]
fn json_format_carries_the_same_codes() {
    let f = Fixture::new(
        "unsafe-json.lr",
        "q(x,w) :- q(x,z), up(z,x).\nup(1,2). q(1,1).\n",
    );
    let out = check(&[f.path(), "--format", "json"]);
    assert!(!out.status.success());
    let json = stdout(&out);
    assert!(json.trim_start().starts_with('['), "{json}");
    assert!(json.contains("\"code\":\"L001\""), "{json}");
    assert!(json.contains("\"severity\":\"error\""), "{json}");
}

/// Two files, one clean and one failing: the output is one valid JSON
/// array of per-file objects, each reading back its file name and the
/// same diagnostics the library renders.
#[test]
fn json_format_over_two_files_reads_back() {
    use linrec::obs::json;
    let clean_src = "p(x,y) :- p(x,z), e(z,y).\ne(1,2). e(2,3).\np(1,1).\n";
    let failing_src = "q(x,w) :- q(x,z), up(z,x).\nup(1,2). q(1,1).\n";
    let clean = Fixture::new("clean-two.lr", clean_src);
    let failing = Fixture::new("unsafe-two.lr", failing_src);
    let out = check(&[clean.path(), failing.path(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    // The reader takes objects: wrap the array so it scans all of it.
    let wrapped = format!("{{\"files\":{}}}", text.trim_end());
    let files = json::members(&wrapped).unwrap_or_else(|| panic!("invalid: {text}"));
    let mut objects = Vec::new();
    for (fixture, src) in [(&clean, clean_src), (&failing, failing_src)] {
        let prog = linrec::engine::Program::parse(src).unwrap();
        let report = linrec::lint::check_program(prog.rules(), prog.database(), prog.init(), None);
        let object = json::object(|o| {
            o.str("file", fixture.path());
            o.raw("diagnostics", &report.render_json());
        });
        let members = json::members(&object).unwrap();
        assert_eq!(members.len(), 2, "{object}");
        assert_eq!(members[0].0, "file");
        assert_eq!(
            json::unescape(members[0].1).as_deref(),
            Some(fixture.path())
        );
        assert_eq!(
            members[1],
            ("diagnostics".to_owned(), &*report.render_json())
        );
        assert_eq!(report.has_errors(), src == failing_src, "{object}");
        objects.push(object);
    }
    assert_eq!(files.len(), 1);
    assert_eq!(files[0].1, format!("[{}]", objects.join(",")), "{text}");
}

/// The shipped `examples/programs/*.lr` corpus, sorted.
fn shipped_programs() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut programs: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/programs")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "lr"))
        .collect();
    programs.sort();
    assert!(!programs.is_empty(), "no programs under {}", dir.display());
    programs
}

#[test]
fn shipped_example_programs_are_clean() {
    for p in shipped_programs() {
        let out = check(&[p.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{} is not lint-clean:\n{}",
            p.display(),
            stdout(&out)
        );
    }
}

#[test]
fn run_rejects_a_selection_position_past_the_arity() {
    let f = Fixture::new(
        "tc.lr",
        "p(x,y) :- p(x,z), e(z,y).\ne(1,2). e(2,3).\np(1,2).\n",
    );
    let run = |sel: &str| {
        Command::new(env!("CARGO_BIN_EXE_linrec"))
            .args(["run", f.path(), sel])
            .output()
            .expect("spawn linrec")
    };
    let out = run("5=1");
    assert!(!out.status.success(), "{}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: selection position 5 is out of range for p/2"),
        "{err}"
    );
    // A position inside the arity answers as before.
    let out = run("0=1");
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("p(1,3)"), "{}", stdout(&out));
}

#[test]
fn explain_and_run_reject_a_short_tuple_and_an_empty_value() {
    let f = Fixture::new(
        "tc_values.lr",
        "p(x,y) :- p(x,z), e(z,y).\ne(1,2). e(2,3).\np(1,2).\n",
    );
    let linrec = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_linrec"))
            .args(args)
            .output()
            .expect("spawn linrec")
    };
    for (args, message) in [
        (
            ["explain", f.path(), "1"],
            "error: p has arity 2, got 1 value(s)",
        ),
        (["explain", f.path(), "1,"], "error: empty value in \"1,\""),
        (["run", f.path(), "0="], "error: empty value in \"0=\""),
    ] {
        let out = linrec(&args);
        assert!(!out.status.success(), "{args:?}: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
    }
    // A tuple of the right arity is explained as before.
    let out = linrec(&["explain", f.path(), "1,3"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("[1, 3]"), "{}", stdout(&out));
}

#[test]
fn figures_is_not_a_subcommand() {
    // The paper's figures come from `cargo run --example figures`.
    let out = Command::new(env!("CARGO_BIN_EXE_linrec"))
        .arg("figures")
        .output()
        .expect("spawn linrec");
    assert!(!out.status.success(), "{}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage: linrec analyze <file>"), "{err}");
    assert!(!err.contains("figures"), "{err}");
}

#[test]
fn analyze_shows_the_plan_explain_runs() {
    // The first line after `header` in `linrec <cmd> <program>`'s output.
    let plan_line = |cmd: &str, program: &str, header: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_linrec"))
            .args([cmd, program])
            .output()
            .expect("spawn linrec");
        assert!(out.status.success(), "{cmd} {program}: {}", stdout(&out));
        let text = stdout(&out);
        let mut lines = text.lines().skip_while(|l| l.trim() != header);
        lines.next();
        let line = lines.next().map(|l| l.trim().to_owned());
        line.unwrap_or_else(|| panic!("{cmd} {program}: no line after {header:?}:\n{text}"))
    };
    for p in shipped_programs() {
        let p = p.to_str().unwrap();
        assert_eq!(
            plan_line("analyze", p, "---- plan (no selection) ----"),
            plan_line("explain", p, "plan:"),
            "{p}"
        );
    }
}
