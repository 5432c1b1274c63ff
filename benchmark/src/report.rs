//! The one result schema: the metric catalogue, the host record, and the
//! writer every workload reports through.

use crate::trace::Span;
use serve::json::Json;
use std::collections::BTreeMap;

pub const SCHEMA: &str = "namd-benchmark/1";

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue entry. `bound` is the share of the baseline median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these from its untraced run (see README.md for what a "job" and a
/// "step" are on each workload).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("steps_per_s", "1/s", Higher, 0.25),
    e2e("step_ms_p50", "ms", Lower, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// The layer-by-layer ledger, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("molgen.build_ms", "ms", Lower),
    layer("mdcore.pairs_per_eval", "count", Lower),
    layer("mdcore.candidates_per_pair", "ratio", Lower),
    layer("mdcore.nb_listed_ns_per_pair", "ns", Lower),
    layer("mdcore.nb_listed_ms_per_eval", "ms", Lower),
    layer("mdcore.nb_listed_bytes_per_pair_computed", "B", Lower),
    layer("mdcore.nb_cluster_x4_ns_per_pair", "ns", Lower),
    layer("mdcore.cluster_refresh_prune_ms_per_eval", "ms", Lower),
    layer("mdcore.list_build_ns_per_candidate", "ns", Lower),
    layer("mdcore.list_build_ms_per_rebuild", "ms", Lower),
    layer("mdcore.bonded_ms_per_eval", "ms", Lower),
    layer("mdcore.seq_step_ms", "ms", Lower),
    layer("core.decomp_build_ms", "ms", Lower),
    layer("core.n_patches", "count", Higher),
    layer("core.n_computes", "count", Higher),
    layer("core.phase_ms_per_step", "ms", Lower),
    layer("core.phase_fixed_ms", "ms", Lower),
    layer("core.migrate_ms", "ms", Lower),
    layer("core.migrate_share", "frac", Lower),
    layer("core.exec_nb_ms_per_step", "ms", Lower),
    layer("core.compute_glue_ms_per_step", "ms", Lower),
    layer("core.exec_bonded_ms_per_step", "ms", Lower),
    layer("core.integrate_ms_per_step", "ms", Lower),
    layer("core.proxy_ms_per_step", "ms", Lower),
    layer("core.list_rebuild_rate", "frac", Lower),
    layer("core.list_hit_rate", "frac", Higher),
    layer("core.snapshot_ms", "ms", Lower),
    layer("core.restore_ms", "ms", Lower),
    layer("core.speedup_vs_seq", "x", Higher),
    layer("core.us_per_atom_step", "us", Lower),
    layer("core.step_ms_max", "ms", Lower),
    layer("charmrt.msgs_per_step", "count", Lower),
    layer("charmrt.wire_bytes_per_step", "B", Lower),
    layer("charmrt.pe_busy_frac", "frac", Higher),
    layer("charmrt.pe_idle_ms_per_step", "ms", Lower),
    layer("charmrt.pe_imbalance", "x", Lower),
    layer("charmrt.critical_path_ms_per_step", "ms", Lower),
    layer("charmrt.msg_dispatch_us", "us", Lower),
    layer("charmrt.msg_dispatch_cross_pe_us", "us", Lower),
    layer("charmrt.runtime_start_ms", "ms", Lower),
    layer("charmrt.coordmsg_pack_ns_per_atom", "ns", Lower),
    layer("charmrt.coordmsg_unpack_ns_per_atom", "ns", Lower),
    layer("charmrt.frame_crc_ns_per_byte", "ns", Lower),
    layer("charmrt.des_step_ms", "ms", Lower),
    layer("charmrt.proc_step_ms", "ms", Lower),
    layer("lb.greedy_refine_ms", "ms", Lower),
    layer("lb.predicted_imbalance_after", "x", Lower),
    layer("ckpt.snapshot_bytes", "B", Lower),
    layer("ckpt.encode_ms", "ms", Lower),
    layer("ckpt.decode_ms", "ms", Lower),
    layer("ckpt.write_ms", "ms", Lower),
    layer("ckpt.latest_valid_ms", "ms", Lower),
    layer("serve.job_latency_ms_p50", "ms", Lower),
    layer("serve.job_latency_ms_p95", "ms", Lower),
    layer("serve.job_latency_ms_max", "ms", Lower),
    layer("serve.short_job_latency_ms_p50", "ms", Lower),
    layer("serve.long_job_latency_ms_p50", "ms", Lower),
    layer("serve.cache_hit_latency_ms_p50", "ms", Lower),
    layer("serve.engine_executions", "count", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.coalesced", "count", Higher),
    layer("serve.dedup_rate", "frac", Higher),
    layer("serve.preemptions_per_job", "ratio", Lower),
    layer("serve.pool_busy_frac", "frac", Higher),
    layer("serve.queue_depth_mean", "count", Lower),
    layer("serve.queue_depth_peak", "count", Lower),
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.spec_parse_us", "us", Lower),
    layer("serve.cache_key_us", "us", Lower),
    layer("serve.isolated_job_ms_short", "ms", Lower),
    layer("serve.isolated_job_ms_medium", "ms", Lower),
    layer("serve.isolated_job_ms_long", "ms", Lower),
    layer("serve.direct_job_ms_short", "ms", Lower),
    layer("serve.direct_job_ms_medium", "ms", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.generator_lag_ms_max", "ms", Lower),
    layer("analyze.frames_per_s_1pe", "1/s", Higher),
    layer("analyze.frames_per_s_2pe", "1/s", Higher),
    layer("profile.observer_overhead_frac", "frac", Lower),
    layer("bench.trace_overhead_frac", "frac", Lower),
    layer("bench.ledger_residual_frac", "frac", Lower),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value; `n` is how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub def: &'static MetricDef,
    pub value: f64,
    pub n: usize,
}

/// One output check. A failed check fails the operations it covers.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// One row of the time ledger: `ms` per step (or per job) attributed to
/// `name`, nested under `parent`. Rows sharing a parent, the parent's
/// `residual` row included, sum to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    pub name: String,
    pub parent: Option<String>,
    pub ms: f64,
}

/// Everything one run of one workload produced.
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub quick: bool,
    pub seed: u64,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Per-sample arrays behind the medians, by name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Bit-identity witnesses (hex CRC-64), by name.
    pub crcs: BTreeMap<String, String>,
    pub ledger: Vec<LedgerRow>,
    pub spans: Vec<Span>,
    /// Caveats a reader must know, e.g. `oversubscribed`.
    pub flags: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, traced: bool, quick: bool, seed: u64, seconds: f64) -> Report {
        let mut flags = Vec::new();
        if nproc() < 2 {
            // Two PEs on one core measure time-slicing, not parallelism.
            flags.push("oversubscribed".to_string());
        }
        Report {
            workload: workload.to_string(),
            traced,
            quick,
            seed,
            seconds,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Vec::new(),
            samples: BTreeMap::new(),
            crcs: BTreeMap::new(),
            ledger: Vec::new(),
            spans: Vec::new(),
            flags,
        }
    }

    /// Record a metric from the catalogue. Panics on a name the catalogue
    /// does not hold: `BENCHMARK.json` and the code must not drift apart.
    pub fn metric(&mut self, name: &str, value: f64, n: usize) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(
            !self.metrics.iter().any(|m| m.def.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric { def, value, n });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn crc(&mut self, name: &str, crc: u64) {
        self.crcs.insert(name.to_string(), format!("{crc:016x}"));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The catalogue this run must fill: per-layer when traced, end-to-end
    /// otherwise.
    pub fn expected(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Close the report: every expected metric present and finite, the
    /// ledger closed, and any failed run-level check fails every operation
    /// it gated.
    pub fn finish(&mut self) {
        for def in self.expected() {
            match self.value(def.name) {
                None => self.check("metrics-complete", false, format!("{} missing", def.name)),
                Some(v) if !v.is_finite() => {
                    self.check("metrics-finite", false, format!("{} = {v}", def.name))
                }
                Some(_) => {}
            }
        }
        let parents: std::collections::BTreeSet<&str> = self
            .ledger
            .iter()
            .filter_map(|r| r.parent.as_deref())
            .collect();
        let open: Vec<String> = parents
            .into_iter()
            .filter(|p| ledger_gap(&self.ledger, p).abs() > 1e-6)
            .map(String::from)
            .collect();
        if !self.ledger.is_empty() {
            self.check(
                "ledger-closes",
                open.is_empty(),
                format!("children and residual sum to the parent; off under: {open:?}"),
            );
        }
        if self.checks.iter().any(|c| !c.ok) {
            self.failed = self.attempted.max(1);
        }
        self.attempted = self.attempted.max(1);
    }

    /// The contract line: the last line of standard output.
    pub fn contract_line(&self) -> String {
        let metrics: BTreeMap<String, Json> = self
            .metrics
            .iter()
            .filter(|m| self.expected().iter().any(|d| d.name == m.def.name))
            .map(|m| {
                (
                    m.def.name.to_string(),
                    obj([
                        ("value", num(m.value)),
                        ("unit", Json::Str(m.def.unit.into())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .canonical()
    }

    /// The full result document `compare` and later readers consume.
    pub fn to_json(&self) -> String {
        let metrics: BTreeMap<String, Json> = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", num(m.value)),
                    ("unit", Json::Str(m.def.unit.into())),
                    ("better", Json::Str(m.def.better.as_str().into())),
                    ("n", num(m.n as f64)),
                ];
                if let Some(b) = m.def.bound {
                    fields.push(("bound", num(b)));
                }
                (m.def.name.to_string(), obj(fields))
            })
            .collect();
        let samples: BTreeMap<String, Json> = self
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    obj([
                        ("n", num(v.len() as f64)),
                        ("values", Json::Arr(v.iter().map(|&x| num(x)).collect())),
                    ]),
                )
            })
            .collect();
        let strs = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("workload", Json::Str(self.workload.clone())),
            (
                "mode",
                Json::Str(if self.traced { "traced" } else { "untraced" }.into()),
            ),
            ("quick", Json::Bool(self.quick)),
            ("seed", num(self.seed as f64)),
            ("seconds", num(self.seconds)),
            ("host", host()),
            ("flags", strs(&self.flags)),
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", num(self.attempted as f64)),
            ("ops_failed", num(self.failed as f64)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj([
                                ("name", Json::Str(c.name.clone())),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", Json::Obj(metrics)),
            ("samples", Json::Obj(samples)),
            (
                "crcs",
                Json::Obj(
                    self.crcs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "ledger",
                Json::Arr(
                    self.ledger
                        .iter()
                        .map(|r| {
                            obj([
                                ("name", Json::Str(r.name.clone())),
                                ("parent", r.parent.clone().map_or(Json::Null, Json::Str)),
                                ("ms", num(r.ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            obj([
                                ("name", Json::Str(s.name.clone())),
                                ("start_us", num(s.start_us)),
                                ("end_us", num(s.end_us)),
                                ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .canonical()
    }

    /// Every metric by name with its unit, then the checks and the ledger.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} [{}{}] seed {} — {} ({}/{} ops failed)\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            if self.quick { ", quick" } else { "" },
            self.seed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            },
            self.failed,
            self.attempted,
        );
        let oversubscribed = self.flags.iter().any(|f| f == "oversubscribed");
        for f in &self.flags {
            out.push_str(&format!("   flag: {f}\n"));
        }
        for m in &self.metrics {
            // With fewer cores than PEs a wall-clock ratio between PE
            // counts says nothing about the program.
            if oversubscribed && m.def.name == "core.speedup_vs_seq" {
                out.push_str(&format!(
                    "   {:<46} (omitted: oversubscribed)\n",
                    m.def.name
                ));
                continue;
            }
            out.push_str(&format!(
                "   {:<46} {:>16.6} {:<6} (n={}, {} is better)\n",
                m.def.name,
                m.value,
                m.def.unit,
                m.n,
                m.def.better.as_str()
            ));
        }
        for c in &self.checks {
            out.push_str(&format!(
                "   check {:<34} {} {}\n",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            ));
        }
        if !self.ledger.is_empty() {
            out.push_str("   ledger (ms; rows under one parent sum to it):\n");
            render_ledger(&self.ledger, None, 2, &mut out);
        }
        out
    }
}

fn render_ledger(rows: &[LedgerRow], parent: Option<&str>, depth: usize, out: &mut String) {
    for r in rows.iter().filter(|r| r.parent.as_deref() == parent) {
        out.push_str(&format!(
            "   {:indent$}{:<width$} {:>12.4}\n",
            "",
            r.name,
            r.ms,
            indent = depth * 2,
            width = 44usize.saturating_sub(depth * 2)
        ));
        render_ledger(rows, Some(&r.name), depth + 1, out);
    }
}

/// Children of `parent` (its residual row included) minus the parent: zero
/// when the ledger closes.
pub fn ledger_gap(rows: &[LedgerRow], parent: &str) -> f64 {
    let total = rows.iter().find(|r| r.name == parent).map_or(0.0, |r| r.ms);
    let children: f64 = rows
        .iter()
        .filter(|r| r.parent.as_deref() == Some(parent))
        .map(|r| r.ms)
        .sum();
    children - total
}

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host record: what the numbers were measured on. The git revision
/// and compiler version come from `run.sh` through the environment (the
/// driver's checkout is not a git repository; both read "unknown" there).
fn host() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    let mut features: Vec<Json> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        let mut push = |name: &str, on: bool| {
            if on {
                features.push(Json::Str(name.into()));
            }
        };
        push("sse4.2", std::arch::is_x86_feature_detected!("sse4.2"));
        push("avx", std::arch::is_x86_feature_detected!("avx"));
        push("avx2", std::arch::is_x86_feature_detected!("avx2"));
        push("fma", std::arch::is_x86_feature_detected!("fma"));
        push("avx512f", std::arch::is_x86_feature_detected!("avx512f"));
    }
    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    obj([
        ("nproc", num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("cpu_features", Json::Arr(features)),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
        ("os", Json::Str(std::env::consts::OS.into())),
        ("git_rev", env("BENCH_GIT_REV")),
        ("rustc", env("BENCH_RUSTC")),
        (
            "build_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release (codegen-units=1, lto=thin, default features, no simd)"
                }
                .into(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root and the catalogue in this file are
    /// two statements of one contract; this keeps them from drifting.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let doc = doc.as_obj().unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Json::Arr(listed) = &doc[key] else {
                panic!("{key} must be an array")
            };
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                let j = j.as_obj().unwrap();
                assert_eq!(j["name"].as_str(), Some(d.name));
                assert_eq!(j["unit"].as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(j["better"].as_str(), Some(d.better.as_str()), "{}", d.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        let Json::Arr(workloads) = &doc["workloads"] else {
            panic!("workloads")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.as_obj().unwrap()["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
        assert_eq!(doc["run_seconds"].as_f64(), Some(crate::DEFAULT_SECONDS));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn failed_check_fails_every_operation_and_contract_line_parses() {
        let mut r = Report::new("md-small-1pe", false, true, 3, 1.0);
        r.attempted = 4;
        for d in END_TO_END {
            r.metric(d.name, 1.5, 1);
        }
        r.finish();
        assert!(r.correct());
        let line = Json::parse(&r.contract_line()).unwrap();
        let line = line.as_obj().unwrap();
        assert_eq!(line.len(), 4);
        assert_eq!(line["attempted"].as_u64(), Some(4));
        assert_eq!(line["metrics"].as_obj().unwrap().len(), END_TO_END.len());
        assert!(Json::parse(&r.to_json()).is_ok());

        r.check("state-crc", false, "differs".into());
        r.finish();
        assert!(!r.correct());
        assert_eq!(r.failed, 4);
    }

    #[test]
    fn ledger_gap_is_zero_when_children_and_residual_sum_to_parent() {
        let row = |name: &str, parent: Option<&str>, ms: f64| LedgerRow {
            name: name.into(),
            parent: parent.map(String::from),
            ms,
        };
        let rows = vec![
            row("step", None, 10.0),
            row("phase", Some("step"), 8.5),
            row("migrate", Some("step"), 1.0),
            row("step.residual", Some("step"), 0.5),
        ];
        assert_eq!(ledger_gap(&rows, "step"), 0.0);
    }
}
