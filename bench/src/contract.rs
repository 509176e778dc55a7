//! `BENCHMARK.json`, the contract at the root of the repo: the workloads
//! and every metric with its unit, direction and bound. The program reads
//! it rather than repeat it, and refuses to report anything else.

use crate::json::Json;
use crate::metrics::Measured;
use std::path::Path;

/// One declared metric. End-to-end metrics carry the share of the
/// parent's median they may worsen by; per-layer metrics have no bound.
#[derive(Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    /// `(name, why)` of each workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text(m: &Json, key: &str) -> Result<String, String> {
    m.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or(format!("BENCHMARK.json: an entry lacks the string {key:?}"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let name = text(m, "name")?;
            let lower_is_better = match text(m, "better")?.as_str() {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            Ok(MetricSpec {
                unit: text(m, "unit")?,
                lower_is_better,
                bound: m.get("bound").and_then(Json::as_f64),
                name,
            })
        })
        .collect()
}

impl Contract {
    pub fn parse(benchmark_json: &str) -> Result<Contract, String> {
        let doc = Json::parse(benchmark_json)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json has no workloads list")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<_, String>>()?;
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json has no run_seconds")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Read the contract of the repo rooted at `root`.
    pub fn load(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Contract::parse(&text)
    }

    pub fn why(&self, workload: &str) -> &str {
        self.workloads
            .iter()
            .find(|(name, _)| name == workload)
            .map_or("", |(_, why)| why)
    }

    /// A run reports exactly the declared metrics of its kind, in the
    /// declared order and units.
    pub fn check(&self, traced: bool, reported: &[Measured]) -> Result<(), String> {
        let declared = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let same = declared.len() == reported.len()
            && declared
                .iter()
                .zip(reported)
                .all(|(d, r)| d.name == r.name && d.unit == r.unit);
        if same {
            return Ok(());
        }
        let names = |it: &mut dyn Iterator<Item = String>| it.collect::<Vec<_>>().join(" ");
        Err(format!(
            "the run's metrics are not the ones BENCHMARK.json declares\n declared: {}\n reported: {}",
            names(&mut declared.iter().map(|d| format!("{}[{}]", d.name, d.unit))),
            names(&mut reported.iter().map(|r| format!("{}[{}]", r.name, r.unit))),
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workload::SCENARIOS;

    /// The contract of this checkout.
    pub(crate) fn contract() -> Contract {
        Contract::load(Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap()).unwrap()
    }

    #[test]
    fn the_contract_names_the_workloads_the_code_defines() {
        let contract = contract();
        let declared: Vec<&str> = contract.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let defined: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        assert_eq!(declared, defined);
        for (name, why) in &contract.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        let setup = contract
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.unit == "s" && setup.lower_is_better);
        for m in &contract.end_to_end {
            let bound = m.bound.unwrap();
            assert!(
                bound > 0.0 && bound <= 0.25 && bound <= setup.bound.unwrap(),
                "{}",
                m.name
            );
        }
        assert!((1.0..=60.0).contains(&contract.run_seconds));
    }

    #[test]
    fn reads_metrics_and_rejects_a_run_that_reports_others() {
        let contract = Contract::parse(
            r#"{"run_seconds": 5, "workloads": [{"name": "w", "why": "because"}],
                "end_to_end": [{"name": "x_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "l.y", "unit": "1/s", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(contract.why("w"), "because");
        assert_eq!(
            contract.per_layer[0],
            MetricSpec {
                name: "l.y".to_owned(),
                unit: "1/s".to_owned(),
                lower_is_better: false,
                bound: None
            }
        );
        let measured = |name, unit| Measured {
            name,
            value: 1.0,
            unit,
            n: 1,
        };
        assert!(contract.check(false, &[measured("x_ms", "ms")]).is_ok());
        assert!(contract.check(false, &[measured("x_ms", "us")]).is_err());
        assert!(contract.check(true, &[measured("x_ms", "ms")]).is_err());
        assert!(contract.check(false, &[]).is_err());
        assert!(Contract::parse(r#"{"run_seconds": 5}"#).is_err());
    }
}
