//! The repo benchmark. See `bench/README.md`.
//!
//! ```text
//! bench run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--out FILE]
//! bench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! `run` prints every metric by name with its unit and sample count and,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod client;
mod compare;
mod contract;
mod e2e;
mod harness;
mod json;
mod metrics;
mod reference;
mod stats;
mod trace;
mod traced;
mod workload;

use contract::Contract;
use harness::{Outcome, RunConfig};
use json::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Scale, Scenario, SCENARIOS};

const USAGE: &str = "usage: bench run --workload <name|all> [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out FILE]\n       bench compare <a.jsonl> <b.jsonl>\n\
run from the root of the repo; workloads: tc_small_delta updown_deep_delta recover_read \
query_scratch";

struct RunArgs {
    workloads: Vec<&'static Scenario>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads = match name.as_str() {
                    "all" => SCENARIOS.iter().collect(),
                    name => vec![workload::scenario(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                };
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(parsed)
}

/// The record of one run: the line the contract asks for, plus what is
/// needed to compare runs and to see where they were measured.
fn result_record(
    cfg: &RunConfig,
    traced: bool,
    outcome: &Outcome,
    environment: Json,
) -> (Json, Json) {
    let metrics = |with_n: bool| {
        Json::obj(outcome.metrics.iter().map(|m| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            if with_n {
                fields.push(("n", Json::Num(m.n as f64)));
            }
            (m.name, Json::obj(fields))
        }))
    };
    let verdict = [
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
    ];
    let contract = Json::obj(verdict.iter().cloned().chain([("metrics", metrics(false))]));
    let full = Json::obj(
        [
            ("workload", Json::str(cfg.scenario.name)),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("trace", Json::Num(f64::from(u8::from(traced)))),
            ("smoke", Json::Bool(cfg.scale == Scale::SMOKE)),
        ]
        .into_iter()
        .chain(verdict.iter().cloned())
        .chain([
            ("metrics", metrics(true)),
            ("environment", environment),
            ("reported", Json::obj(outcome.reported.iter().cloned())),
        ]),
    );
    (contract, full)
}

fn run_one(
    scenario: &'static Scenario,
    args: &RunArgs,
    contract: &Contract,
    linrec: &Path,
    out_dir: &Path,
) -> Result<(bool, Json), Box<dyn std::error::Error>> {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let cfg = RunConfig {
        scenario,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            1.0
        } else {
            contract.run_seconds
        }),
        scale,
        linrec: linrec.to_owned(),
        run_dir: out_dir.join(format!("run-{}-{}", scenario.name, std::process::id())),
        out_dir: out_dir.to_owned(),
        sabotage_wal: false,
    };
    println!(
        "== {} seed {} seconds {} {}{}\n   {}",
        scenario.name,
        cfg.seed,
        cfg.seconds,
        if args.traced {
            "traced (in-process)"
        } else {
            "end to end"
        },
        if args.smoke { " smoke" } else { "" },
        contract.why(scenario.name),
    );
    let result = if args.traced {
        traced::run(&cfg)
    } else {
        e2e::run(&cfg)
    };
    // The data directories go whether the run succeeded or not.
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    let outcome = result?;
    contract.check(args.traced, &outcome.metrics)?;
    for m in &outcome.metrics {
        println!("{:<34} {:>18.6} {:<9} n={}", m.name, m.value, m.unit, m.n);
    }
    for (key, value) in &outcome.reported {
        match value.as_str() {
            Some(text) => println!("reported {key}: {text}"),
            None => println!("reported {key}: {}", value.render()),
        }
    }
    let environment = harness::environment(&cfg);
    if let Some(warning) = environment.get("warning").and_then(Json::as_str) {
        println!("WARNING: {warning}");
    }
    let (contract, full) = result_record(&cfg, args.traced, &outcome, environment);
    let results = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("results.jsonl"));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)?;
    writeln!(file, "{}", full.render())?;
    Ok((outcome.failed == 0, contract))
}

fn run(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args = parse_run_args(args)?;
    let root = std::env::current_dir()?;
    if !root.join("bench/Cargo.toml").is_file() {
        return Err("run from the root of the repo (bench/ must be here)".into());
    }
    let contract = Contract::load(&root)?;
    let out_dir = root.join("bench/out");
    std::fs::create_dir_all(&out_dir)?;
    let linrec = client::build_linrec(&root)?;
    let mut all_correct = true;
    for scenario in &args.workloads {
        let (correct, contract) = run_one(scenario, &args, &contract, &linrec, &out_dir)?;
        all_correct &= correct;
        // The contract's result line: the last line of standard output.
        println!("{}", contract.render());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
