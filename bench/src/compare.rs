//! `bench compare <a.jsonl> <b.jsonl>`: do two sets of runs agree within
//! the bounds `BENCHMARK.json` fixes? One row per workload × end-to-end
//! metric; exits non-zero when any row is `worse`.

use crate::contract::{Contract, MetricSpec};
use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// workload → metric → values, from the untraced records of a result file.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_run_set(jsonl: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (i, line) in jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if record.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = record
            .get("metrics")
            .and_then(Json::members)
            .ok_or(format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between runs of one set is wider than the bound, so the
    /// sets can neither be told apart nor called equal.
    Unresolved,
}

/// Judge set `b` against set `a` for one metric.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let spread = |v: &[f64]| stats::spread(v).unwrap_or(0.0);
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn summary(values: &[f64]) -> String {
    let median = stats::median(values).unwrap_or(f64::NAN);
    match stats::quartiles(values) {
        Some([q1, _, q3]) => format!("{median:.4} [{q1:.4} .. {q3:.4}] n={}", values.len()),
        None => format!("{median:.4} n={}", values.len()),
    }
}

/// Print one row per workload × metric; true when no row is `worse`.
pub fn report(a: &RunSet, b: &RunSet, metrics: &[MetricSpec]) -> bool {
    let mut none_worse = true;
    for (workload, metrics_a) in a {
        for MetricSpec {
            name,
            lower_is_better,
            bound,
            ..
        } in metrics
        {
            let bound = bound.unwrap_or(0.0);
            let (Some(va), Some(vb)) = (
                metrics_a.get(name),
                b.get(workload).and_then(|m| m.get(name)),
            ) else {
                println!("{workload:<18} {name:<20} missing from one set");
                continue;
            };
            let verdict = judge(va, vb, *lower_is_better, bound);
            none_worse &= verdict != Verdict::Worse;
            println!(
                "{workload:<18} {name:<20} a {:<44} b {:<44} bound {:>4.0}% {}",
                summary(va),
                summary(vb),
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    none_worse
}

pub fn main(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let [a, b] = args else {
        return Err("usage: bench compare <a.jsonl> <b.jsonl>".into());
    };
    let contract = Contract::load(&std::env::current_dir()?)?;
    let a = parse_run_set(&std::fs::read_to_string(a)?)?;
    let b = parse_run_set(&std::fs::read_to_string(b)?)?;
    Ok(if report(&a, &b, &contract.end_to_end) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn verdicts_on_synthetic_sets() {
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = STEADY.iter().map(|v| v * 0.5).collect();
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        // Lower is better: +20 % is worse than a 10 % bound, inside a 25 % one.
        assert_eq!(judge(&STEADY, &slower, true, 0.1), Verdict::Worse);
        assert_eq!(judge(&STEADY, &slower, true, 0.25), Verdict::Ok);
        assert_eq!(judge(&STEADY, &faster, true, 0.1), Verdict::Ok);
        // Higher is better: the same numbers the other way round.
        assert_eq!(judge(&STEADY, &slower, false, 0.1), Verdict::Ok);
        assert_eq!(judge(&STEADY, &faster, false, 0.1), Verdict::Worse);
        // A set that does not repeat settles nothing, whichever side it is.
        assert_eq!(judge(&noisy, &STEADY, true, 0.1), Verdict::Unresolved);
        assert_eq!(judge(&STEADY, &noisy, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn reads_run_sets_and_reports_them() {
        let record = |x: f64, trace: u8| {
            format!(
                r#"{{"workload": "w", "trace": {trace}, "metrics": {{"x_ms": {{"value": {x}, "unit": "ms", "n": 3}}}}}}"#
            )
        };
        let lines = format!(
            "{}\n{}\n\n{}\n",
            record(1.0, 0),
            record(2.0, 0),
            record(9.0, 1)
        );
        let a = parse_run_set(&lines).unwrap();
        assert_eq!(
            a["w"]["x_ms"],
            vec![1.0, 2.0],
            "traced records are left out"
        );
        assert!(parse_run_set("{not json").is_err());
        let metric = MetricSpec {
            name: "x_ms".to_owned(),
            unit: "ms".to_owned(),
            lower_is_better: true,
            bound: Some(0.1),
        };
        assert!(report(&a, &a, std::slice::from_ref(&metric)));
        let b = parse_run_set(&format!("{}\n{}\n", record(10.0, 0), record(10.1, 0))).unwrap();
        let steady = parse_run_set(&format!("{}\n{}\n", record(5.0, 0), record(5.01, 0))).unwrap();
        assert!(
            !report(&steady, &b, std::slice::from_ref(&metric)),
            "twice as slow is worse"
        );
    }
}
