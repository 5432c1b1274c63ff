//! `compare A B`: two sets of result documents, one row per workload ×
//! end-to-end metric — both medians, the ratio with its base, the bound and
//! a verdict — plus the checks that do not depend on timing: the share of
//! failed operations, and state CRCs and exact counts for equal seeds.

use crate::report::{Better, END_TO_END, SCHEMA};
use crate::stats::{median, quartile_spread};
use crate::WORKLOADS;
use serve::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Per-layer metrics that are counts of a deterministic protocol: equal
/// seeds must reproduce them exactly.
const EXACT_COUNTS: [&str; 7] = [
    "mdcore.pairs_per_eval",
    "core.n_patches",
    "core.n_computes",
    "charmrt.msgs_per_step",
    "charmrt.wire_bytes_per_step",
    "ckpt.snapshot_bytes",
    "serve.engine_executions",
];

/// What `compare` reads of one result document.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    pub workload: String,
    pub traced: bool,
    /// Smoke-test size: shorter cycles, so other states than a full run's.
    pub quick: bool,
    pub seed: u64,
    pub oversubscribed: bool,
    pub attempted: f64,
    pub failed: f64,
    pub metrics: BTreeMap<String, f64>,
    pub crcs: BTreeMap<String, String>,
}

impl Doc {
    pub fn parse(text: &str) -> Result<Doc, String> {
        let json = Json::parse(text)?;
        let o = json.as_obj().ok_or("result document is not an object")?;
        let field = |k: &str| o.get(k).ok_or(format!("result document lacks \"{k}\""));
        if field("schema")?.as_str() != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
        {
            let value = m
                .as_obj()
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            metrics.insert(
                name.clone(),
                value.ok_or(format!("metric {name} has no value"))?,
            );
        }
        let crcs = field("crcs")?
            .as_obj()
            .ok_or("crcs is not an object")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect();
        let flags = match field("flags")? {
            Json::Arr(a) => a
                .iter()
                .filter_map(Json::as_str)
                .map(String::from)
                .collect(),
            _ => Vec::new(),
        };
        Ok(Doc {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            traced: field("mode")?.as_str() == Some("traced"),
            quick: field("quick")?.as_bool().ok_or("quick is not a boolean")?,
            seed: field("seed")?.as_u64().ok_or("seed is not an integer")?,
            oversubscribed: flags.iter().any(|f: &String| f == "oversubscribed"),
            attempted: field("ops_attempted")?.as_f64().ok_or("ops_attempted")?,
            failed: field("ops_failed")?.as_f64().ok_or("ops_failed")?,
            metrics,
            crcs,
        })
    }
}

/// Every result document under `dir`, sub-directories included.
fn load(dir: &Path) -> Result<Vec<Doc>, String> {
    let mut docs = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|x| x == "json") {
                let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                docs.push(Doc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
            }
        }
    }
    if docs.is_empty() {
        return Err(format!("{}: no result documents", dir.display()));
    }
    Ok(docs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// say "unchanged" — and not every run of B beats every run of A.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// Widest inter-quartile spread of the two sets, as a share of the
    /// median; `None` with fewer than two runs on a side.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Judge B's values of one metric against A's.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (median_b - median_a) / median_a,
        Better::Higher => (median_a - median_b) / median_a,
    };
    let spread = (a.len() >= 2 && b.len() >= 2).then(|| quartile_spread(a).max(quartile_spread(b)));
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let verdict = if spread.is_some_and(|s| s > bound) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        median_b,
        spread,
        verdict,
    }
}

/// Name → value pairs that two documents of one workload and seed must
/// agree on, whatever the clock did.
fn witnesses(d: &Doc) -> impl Iterator<Item = (String, String)> + '_ {
    // The end state depends on how many cycles fit the window; the states
    // every run passes through do not.
    let crcs = d
        .crcs
        .iter()
        .filter(|(k, _)| *k != "end")
        .map(|(k, v)| (format!("crc {k}"), v.clone()));
    let counts = EXACT_COUNTS.iter().filter_map(|&k| {
        d.metrics
            .get(k)
            .map(|v| (format!("count {k}"), format!("{v}")))
    });
    crcs.chain(counts)
}

/// Witness mismatches between any two documents of one workload, size and
/// seed, within or across the sets.
fn witness_mismatches(docs: &[&Doc]) -> Vec<String> {
    let mut seen: BTreeMap<(String, bool, u64, String), String> = BTreeMap::new();
    let mut out = Vec::new();
    for d in docs {
        for (name, value) in witnesses(d) {
            let key = (d.workload.clone(), d.quick, d.seed, name.clone());
            let first = seen.entry(key).or_insert_with(|| value.clone());
            if *first != value {
                out.push(format!(
                    "{} seed {}: {name} reads {first} and {value}",
                    d.workload, d.seed
                ));
            }
        }
    }
    out
}

/// The untraced runs of workload `w`: the ones that carry end-to-end metrics.
fn untraced<'a>(docs: &'a [Doc], w: &str) -> Vec<&'a Doc> {
    docs.iter()
        .filter(|d| d.workload == w && !d.traced)
        .collect()
}

pub fn run(a: &Path, b: &Path) -> i32 {
    let (docs_a, docs_b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            return 2;
        }
    };
    let mut bad = 0;
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>9} {:>6} {:>7}  verdict   (A = {}, B = {})",
        "workload",
        "metric",
        "median A",
        "median B",
        "B ÷ A",
        "bound",
        "spread",
        a.display(),
        b.display()
    );
    for w in WORKLOADS {
        let (ua, ub) = (untraced(&docs_a, w), untraced(&docs_b, w));
        if ua.is_empty() || ub.is_empty() {
            println!("{w:<14} (no untraced runs on both sides)");
            continue;
        }
        let oversubscribed = ua.iter().chain(&ub).any(|d| d.oversubscribed);
        for def in END_TO_END {
            let values = |docs: &[&Doc]| -> Vec<f64> {
                docs.iter()
                    .filter_map(|d| d.metrics.get(def.name).copied())
                    .collect()
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let mut row = judge(&values(&ua), &values(&ub), def.better, bound);
            // Two PEs on one core: the clock says nothing about the program.
            if oversubscribed && def.unit != "MB" && w != "md-small-1pe" {
                row.verdict = Verdict::Unresolved;
            }
            bad += i32::from(row.verdict == Verdict::Regressed);
            println!(
                "{:<14} {:<20} {:>12.4} {:>12.4} {:>9.4} {:>6.2} {:>7}  {}   (n = {} vs {}, {} is better, {})",
                w,
                def.name,
                row.median_a,
                row.median_b,
                row.median_b / row.median_a,
                bound,
                row.spread.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
                row.verdict.as_str(),
                ua.len(),
                ub.len(),
                def.better.as_str(),
                def.unit,
            );
        }
        let share = |docs: &[&Doc]| {
            docs.iter().map(|d| d.failed).sum::<f64>()
                / docs.iter().map(|d| d.attempted).sum::<f64>()
        };
        let (fa, fb) = (share(&ua), share(&ub));
        let worse = fb > fa;
        bad += i32::from(worse);
        println!(
            "{:<14} {:<20} {:>12.4} {:>12.4} {:>9} {:>6} {:>7}  {}",
            w,
            "ops_failed share",
            fa,
            fb,
            "",
            "",
            "",
            if worse { "regressed" } else { "ok" }
        );
    }
    let all: Vec<&Doc> = docs_a.iter().chain(&docs_b).collect();
    let mismatches = witness_mismatches(&all);
    for m in &mismatches {
        println!("witness mismatch: {m}");
    }
    if mismatches.is_empty() {
        println!("state CRCs and exact counts agree wherever workload and seed do");
    }
    bad += mismatches.len() as i32;
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Report, END_TO_END};

    #[test]
    fn verdicts_follow_the_rule() {
        // Tight runs, B 20 % slower, bound 10 %: regressed.
        let a = [100.0, 101.0, 99.0];
        let slow = [120.0, 121.0, 119.0];
        assert_eq!(
            judge(&a, &slow, Better::Lower, 0.10).verdict,
            Verdict::Regressed
        );
        // Same shift the good way: ok, and ok for a higher-is-better metric.
        assert_eq!(judge(&slow, &a, Better::Lower, 0.10).verdict, Verdict::Ok);
        assert_eq!(judge(&a, &slow, Better::Higher, 0.10).verdict, Verdict::Ok);
        assert_eq!(
            judge(&slow, &a, Better::Higher, 0.10).verdict,
            Verdict::Regressed
        );
        // Within the bound: ok.
        assert_eq!(
            judge(&a, &[104.0, 105.0, 103.0], Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        // Spread wider than the bound: unresolved…
        let wide = [80.0, 100.0, 125.0];
        assert_eq!(
            judge(&wide, &[90.0, 104.0, 130.0], Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        assert_eq!(
            judge(&wide, &[50.0, 60.0, 75.0], Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        // One run a side: no spread to judge by, the medians decide.
        let single = judge(&[100.0], &[120.0], Better::Lower, 0.10);
        assert_eq!((single.spread, single.verdict), (None, Verdict::Regressed));
    }

    #[test]
    fn documents_round_trip_and_witnesses_are_compared_per_seed() {
        let mut r = Report::new("md-small-1pe", false, true, 5, 1.0);
        r.attempted = 3;
        for d in END_TO_END {
            r.metric(d.name, 2.0, 1);
        }
        r.crc("common_step", 0xABCD);
        r.crc("end", 1);
        r.finish();
        let doc = Doc::parse(&r.to_json()).unwrap();
        assert_eq!(
            (doc.workload.as_str(), doc.seed, doc.traced),
            ("md-small-1pe", 5, false)
        );
        assert_eq!(doc.metrics["steps_per_s"], 2.0);
        assert_eq!(doc.crcs["common_step"], "000000000000abcd");

        let mut other = doc.clone();
        other
            .crcs
            .insert("end".into(), "a different cycle count".into());
        assert!(witness_mismatches(&[&doc, &other]).is_empty());
        other
            .crcs
            .insert("common_step".into(), "0000000000000000".into());
        assert_eq!(witness_mismatches(&[&doc, &other]).len(), 1);
        // Another seed is another trajectory.
        other.seed = 6;
        assert!(witness_mismatches(&[&doc, &other]).is_empty());
    }
}
