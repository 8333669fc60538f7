//! `unimatch-benchmark compare <dirA> <dirB>`: two result sets side by
//! side, one row per workload and end-to-end metric the workload owns,
//! each judged against the metric's bound in `BENCHMARK.json`. The tool
//! for the repeatability criterion (two sets of the same commit must
//! agree) and for parent-versus-change pairs.

use std::path::Path;

use unimatch_data::json::Json;

use crate::report::result_path;
use crate::spec::{catalogue, Better, WORKLOADS};

/// The quality metrics repeat per seed (training and the exact scans are
/// deterministic; on `serve-paced` only which answers the client kept
/// varies), so between two sets of one seed they may differ by this much,
/// absolute, whatever their relative bound: speed is not bought with
/// quality. Across seeds the data differ and the relative bound applies.
const SAME_SEED_QUALITY_BOUND: f64 = 0.005;
const QUALITY: [&str; 2] = ["recall_at_10", "ndcg_avg"];

/// One compared metric.
#[derive(Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Value in the first set.
    pub a: f64,
    /// Value in the second set.
    pub b: f64,
    /// How much worse the second set is, positive is *worse*: `b − a`
    /// when `absolute`, `(b − a) / a` otherwise.
    pub worse_by: f64,
    /// The bound `worse_by` is judged against.
    pub bound: f64,
    /// The bound is an absolute difference (a quality metric, same seed).
    pub absolute: bool,
}

impl Row {
    /// The two sets differ by more than the bound, in either direction: a
    /// difference this benchmark cannot tell from a real change.
    pub fn unresolved(&self) -> bool {
        self.worse_by.abs() > self.bound
    }
}

fn result_of(dir: &Path, workload: &str) -> Result<Json, String> {
    let path = result_path(dir, workload);
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads both sets and pairs every end-to-end metric of every workload
/// that owns it (the others are reported on a workload only because the
/// driver wants every metric on every run). A workload or metric missing
/// from either side is an error: the sets are not comparable.
pub fn compare(a: &Path, b: &Path) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let (left, right) = (result_of(a, w.name)?, result_of(b, w.name)?);
        let seed = |side: &Json| {
            side.get("environment")
                .and_then(|e| e.get("seed"))
                .and_then(Json::as_f64)
        };
        let same_seed = seed(&left).is_some() && seed(&left) == seed(&right);
        for def in catalogue().end_to_end.iter().filter(|d| w.owns(&d.name)) {
            let value = |side: &Json, dir: &Path| {
                side.get("end_to_end")
                    .and_then(|block| block.get(&def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: {} has no {}", dir.display(), w.name, def.name))
            };
            let (va, vb) = (value(&left, a)?, value(&right, b)?);
            let absolute = same_seed && QUALITY.contains(&def.name.as_str());
            let change = if absolute {
                vb - va
            } else if va == 0.0 {
                0.0
            } else {
                (vb - va) / va.abs()
            };
            rows.push(Row {
                workload: w.name,
                metric: &def.name,
                a: va,
                b: vb,
                worse_by: if def.better == Better::Lower {
                    change
                } else {
                    -change
                },
                bound: if absolute {
                    SAME_SEED_QUALITY_BOUND
                } else {
                    def.bound.expect("end-to-end metrics carry a bound")
                },
                absolute,
            });
        }
    }
    Ok(rows)
}

/// Prints the table; returns how many rows are unresolved.
pub fn print(rows: &[Row]) -> usize {
    println!(
        "{:<17} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        let (worse_by, bound) = if r.absolute {
            (format!("{:+.4}", r.worse_by), format!("{:.3}", r.bound))
        } else {
            (
                format!("{:+.2}%", 100.0 * r.worse_by),
                format!("{:.1}%", 100.0 * r.bound),
            )
        };
        println!(
            "{:<17} {:<18} {:>14.4} {:>14.4} {:>9} {:>7}{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            worse_by,
            bound,
            if r.unresolved() { "  UNRESOLVED" } else { "" }
        );
    }
    let unresolved = rows.iter().filter(|r| r.unresolved()).count();
    println!("{unresolved} of {} rows unresolved", rows.len());
    unresolved
}
