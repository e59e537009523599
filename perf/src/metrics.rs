//! The metric tables, one run's outcome, and the `agree` comparison.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gks_core::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression; per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    ("ingest", "offline path: build, save v3, reopen, doctor over mixed XML; all work in xml/text/index/dewey"),
    ("query_selective", "short posting lists drawn uniformly from the whole rare dictionary; fixed per-query cost and first-touch decodes dominate"),
    ("query_heavy", "24 long-list queries, warm after one pass; merge, window, sweep, rank, DI and MB-sized wire bodies dominate"),
    ("serve", "loopback HTTP over a flat and a 2-shard catalog entry, Zipf traffic, closed then open loop; server, exec and gather dominate"),
    ("update", "delta commits, reloads and compactions beside reads through tombstone masks and doc remaps"),
];

/// End-to-end metrics: measured with tracing off, reported by every
/// workload (see `perf/README.md` for what an "op" is on each).
pub const END_TO_END: [Spec; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("op_tail_us", "us", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("open_ms", "ms", Lower, 0.25),
    e2e("index_bytes_per_xml_byte", "ratio", Lower, 0.05),
];

/// Per-layer metrics: from the traced run only; a layer the workload does
/// not exercise reports 0.
pub const PER_LAYER: [Spec; 69] = [
    layer("xml.parse_mb_per_s", "MB/s", Higher),
    layer("xml.events", "count", Lower),
    layer("text.tokens_per_s", "1/s", Higher),
    layer("text.tokens", "count", Lower),
    layer("index.build_mb_per_s", "MB/s", Higher),
    layer("index.build_self_share", "ratio", Lower),
    layer("index.persist_mb_per_s", "MB/s", Higher),
    layer("index.doctor_ms", "ms", Lower),
    layer("index.open_ms", "ms", Lower),
    layer("index.manifest_open_ms", "ms", Lower),
    layer("index.bytes_mapped_mb", "MB", Lower),
    layer("index.first_touch_us", "us", Lower),
    layer("index.warm_lookup_ns", "ns", Lower),
    layer("index.decoded_terms", "count", Lower),
    layer("index.resident_posting_mb", "MB", Lower),
    layer("index.delta_plan_ms", "ms", Lower),
    layer("index.delta_commit_ms", "ms", Lower),
    layer("index.compact_ms", "ms", Lower),
    layer("index.delta_shards", "count", Lower),
    layer("index.tombstones", "count", Lower),
    layer("dewey.encode_postings_per_us", "1/us", Higher),
    layer("dewey.decode_postings_per_us", "1/us", Higher),
    layer("dewey.decode_masked_postings_per_us", "1/us", Higher),
    layer("dewey.bytes_per_posting", "B", Lower),
    layer("dewey.blocks_skipped_share", "ratio", Higher),
    layer("core.parse_us", "us", Lower),
    layer("core.postlist_us", "us", Lower),
    layer("core.postlist_ns_per_posting", "ns", Lower),
    layer("core.postings_scanned", "count", Lower),
    layer("core.merge_us", "us", Lower),
    layer("core.merge_ns_per_heap_op", "ns", Lower),
    layer("core.heap_ops", "count", Lower),
    layer("core.window_us", "us", Lower),
    layer("core.sweep_us", "us", Lower),
    layer("core.sweep_ns_per_advance", "ns", Lower),
    layer("core.sweep_advances", "count", Lower),
    layer("core.assemble_us", "us", Lower),
    layer("core.rank_candidates", "count", Lower),
    layer("core.sl_len", "count", Lower),
    layer("core.hits", "count", Higher),
    layer("core.hits_per_posting", "ratio", Higher),
    layer("core.ns_per_work_unit", "ns", Lower),
    layer("core.di_us", "us", Lower),
    layer("core.di_ns_per_attr", "ns", Lower),
    layer("core.di_attrs", "count", Lower),
    layer("core.wire_us", "us", Lower),
    layer("core.wire_mb_per_s", "MB/s", Higher),
    layer("core.result_bytes", "B", Lower),
    layer("core.gather_us", "us", Lower),
    layer("core.tombstone_masked", "count", Lower),
    layer("core.stage_sum_share", "ratio", Higher),
    layer("exec.scatter_us", "us", Lower),
    layer("server.parse_request_ns", "ns", Lower),
    layer("server.handle_hit_us", "us", Lower),
    layer("server.handle_miss_us", "us", Lower),
    layer("server.cache_get_ns", "ns", Lower),
    layer("server.cache_put_ns", "ns", Lower),
    layer("server.serialize_ns", "ns", Lower),
    layer("server.cache_hit_share", "ratio", Higher),
    layer("server.socket_residual_us", "us", Lower),
    layer("server.shard_fanout", "count", Lower),
    layer("server.open_p50_us", "us", Lower),
    layer("server.open_p99_us", "us", Lower),
    layer("server.send_lag_p99_us", "us", Lower),
    layer("server.status_5xx", "count", Lower),
    layer("server.transport_errors", "count", Lower),
    layer("bench.ops", "count", Higher),
    layer("bench.spans", "count", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few), for the human-readable report.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other facts printed beside the metrics.
    pub notes: Vec<(String, String)>,
    /// FNV digest of the fixed verification sample's response bytes:
    /// identical across runs at one seed.
    pub answers_digest: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Notes a workload's fixed tail percentile beside what the sample
    /// count supports under the ten-samples-beyond rule.
    pub fn note_tail(&mut self, samples: usize, tail: f64) {
        self.note("tail percentile", tail);
        self.note("samples beyond tail", crate::stats::samples_beyond(samples, tail));
        let supported = crate::stats::highest_supported_percentile(samples);
        self.note("highest percentile with ten beyond", format!("{supported:?}"));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(what());
            }
        }
    }

    /// True when nothing failed and every reported value is a usable
    /// number.
    pub fn correct(&self, specs: &[Spec], require_nonzero: bool) -> bool {
        self.failed == 0
            && self.attempted > 0
            && specs.iter().all(|s| {
                let v = self.metrics.get(s.name).copied().unwrap_or(0.0);
                v.is_finite() && (!require_nonzero || v > 0.0)
            })
    }

    /// The driver's result line: exactly the keys `correct`, `attempted`,
    /// `failed`, `metrics`, with every metric of `specs` present.
    pub fn result_line(&self, specs: &[Spec], require_nonzero: bool) -> String {
        let mut out = String::with_capacity(64 + specs.len() * 48);
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(specs, require_nonzero),
            self.attempted.max(1),
            self.failed
        );
        for (i, spec) in specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = self.metrics.get(spec.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(out, "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", spec.name, spec.unit);
        }
        out.push_str("}}");
        out
    }

    /// Human-readable report: every metric by name with its unit.
    pub fn report(&self, specs: &[Spec]) -> String {
        let mut out = String::new();
        for spec in specs {
            let v = self.metrics.get(spec.name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {:<36} {v:>16.4} {}", spec.name, spec.unit);
        }
        for (k, v) in &self.notes {
            let _ = writeln!(out, "  # {k} = {v}");
        }
        let _ = writeln!(out, "  # answers_digest = {:016x}", self.answers_digest);
        let _ = writeln!(out, "  # attempted = {}  failed = {}", self.attempted, self.failed);
        for f in &self.failures {
            let _ = writeln!(out, "  ! {f}");
        }
        out
    }
}

/// Reads every `(workload, metric) → value` out of a record: either one
/// run's result line or the all-workloads record `run` writes.
pub fn read_values(text: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let json = Json::parse(text.trim()).map_err(|e| format!("not JSON: {e:?}"))?;
    let mut out = BTreeMap::new();
    let mut take = |workload: &str, run: &Json| {
        if let Some(metrics) = run.get("metrics").and_then(Json::as_object) {
            for (name, entry) in metrics {
                if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                    out.insert((workload.to_string(), name.clone()), v);
                }
            }
        }
    };
    match json.get("workloads").and_then(Json::as_object) {
        Some(workloads) => {
            for (name, run) in workloads {
                take(name, run);
            }
        }
        None => take("", &json),
    }
    if out.is_empty() {
        return Err("no metrics found".into());
    }
    Ok(out)
}

/// Compares two records of the same code: every end-to-end metric present
/// in both must differ by no more than its bound (as a share of `a`).
/// Returns one line per disagreement.
pub fn disagreements(
    a: &BTreeMap<(String, String), f64>,
    b: &BTreeMap<(String, String), f64>,
) -> Vec<String> {
    let mut out = Vec::new();
    for ((workload, name), &va) in a {
        let Some(spec) = END_TO_END.iter().find(|s| s.name == name) else {
            continue;
        };
        let Some(&vb) = b.get(&(workload.clone(), name.clone())) else {
            out.push(format!("{workload}/{name}: missing from the second record"));
            continue;
        };
        let share = if va == 0.0 {
            f64::INFINITY
        } else {
            ((vb - va) / va).abs()
        };
        if share > spec.bound {
            out.push(format!(
                "{workload}/{name}: {va} vs {vb} {} differ by {:.1} % (bound {:.0} %)",
                spec.unit,
                share * 100.0,
                spec.bound * 100.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        for (i, spec) in END_TO_END.iter().enumerate() {
            o.set(spec.name, 1.5 + i as f64);
        }
        o
    }

    #[test]
    fn result_line_round_trips_through_gks_core_json() {
        let o = outcome();
        let line = o.result_line(&END_TO_END, true);
        let json = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&String> = json.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
        let values = read_values(&line).unwrap();
        assert_eq!(values.len(), END_TO_END.len());
        assert_eq!(values[&(String::new(), "setup_s".to_string())], 1.5);
        for spec in &END_TO_END {
            let entry = json.get("metrics").unwrap().get(spec.name).unwrap();
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
        }
    }

    #[test]
    fn a_failure_or_a_zero_metric_is_not_correct() {
        let mut o = outcome();
        assert!(o.correct(&END_TO_END, true));
        o.check(false, || "wrong answer".into());
        assert!(!o.correct(&END_TO_END, true));
        assert!(o.result_line(&END_TO_END, true).starts_with("{\"correct\":false"));
        let mut o = outcome();
        o.set("open_ms", 0.0);
        assert!(!o.correct(&END_TO_END, true));
        assert!(o.correct(&END_TO_END, false));
    }

    #[test]
    fn agree_flags_only_differences_beyond_the_bound() {
        let a = read_values(&outcome().result_line(&END_TO_END, true)).unwrap();
        let mut other = outcome();
        other.set("peak_rss_mb", 2.5 * 1.09); // bound 0.10
        other.set("setup_s", 1.5 * 1.30); // bound 0.25
        let b = read_values(&other.result_line(&END_TO_END, true)).unwrap();
        let diffs = disagreements(&a, &b);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("setup_s"));
        assert!(disagreements(&a, &a).is_empty());
    }

    #[test]
    fn agree_reads_an_all_workloads_record() {
        let line = outcome().result_line(&END_TO_END, true);
        let record = format!(
            "{{\"header\":{{\"seed\":1}},\"workloads\":{{\"ingest\":{line},\"serve\":{line}}},\"traced\":{{\"ingest\":{line}}}}}"
        );
        let values = read_values(&record).unwrap();
        assert_eq!(values.len(), 2 * END_TO_END.len(), "traced lines are not compared");
        assert_eq!(values[&("serve".to_string(), "open_ms".to_string())], 6.5);
        assert!(read_values("{\"header\":{}}").is_err());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(spec.name), "{} listed twice", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(spec.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|s| s.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&String> = json.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        m.get("better").and_then(Json::as_str).unwrap().to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let expect =
            |specs: &[Spec], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                specs
                    .iter()
                    .map(|s| {
                        (
                            s.name.to_string(),
                            s.unit.to_string(),
                            s.better.label().to_string(),
                            bounded.then_some(s.bound),
                        )
                    })
                    .collect()
            };
        assert_eq!(listed("end_to_end"), expect(&END_TO_END, true));
        assert_eq!(listed("per_layer"), expect(&PER_LAYER, false));
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap().to_string(),
                    w.get("why").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }
}
