//! What a run measured, and the numeric codes of the labels it reports.

/// Plan shapes as the `engine.plan_shape` code (index here; the label is
/// `PlanShape::label`), so that a planner flip shows as a changed number.
pub const PLAN_SHAPES: [&str; 7] = [
    "Direct",
    "Naive",
    "BoundedPrefix",
    "Decomposed",
    "Separable",
    "RedundancyBounded",
    "DenseClosure",
];

/// Maintenance modes as the `view.maintenance_mode` code.
pub const MAINTENANCE_MODES: [&str; 6] = [
    "incremental",
    "incremental-bounded",
    "incremental-decomposed",
    "recompute",
    "unchanged",
    "materialize",
];

/// Index of `label` in `table`, or −1.
pub fn code(table: &[&str], label: &str) -> f64 {
    table
        .iter()
        .position(|&l| l == label)
        .map_or(-1.0, |i| i as f64)
}

/// One measured value with its sample count.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}
