//! What a run reports: named metrics with units and sample counts, the
//! attempted/failed accounting, and the final JSON line.

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports with tracing off, in
/// print order: (name, unit). `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_melem_s", "Melem/s"),
    ("bits_per_value", "bits"),
    ("error_linf_rel", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Field kinds that get their own codec/serialize figures.
pub const KINDS: &[&str] = &["smooth", "noise", "clustered", "spiky", "frame"];

/// The Table I operations field-analysis runs, in call order.
pub const OPS: &[&str] = &[
    "add",
    "sub",
    "add_scalar",
    "mul_scalar",
    "dot",
    "mean",
    "variance",
    "covariance",
    "l2_norm",
    "cosine_similarity",
    "ssim",
    "wasserstein",
];

/// Request classes of query-serve.
pub const CLASSES: &[&str] = &["selective", "window", "full"];

/// Layers whose self time the traced run reports.
pub const LAYERS: &[&str] = &[
    "codec",
    "serialize",
    "ops",
    "store.writer",
    "store.query",
    "serve",
];

/// Every per-layer metric name with its unit, in print order. A traced
/// run prints all of them; a metric whose layer the workload does not
/// reach reads 0 with n=0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for k in KINDS {
        v.push((format!("codec.compress_melem_s.{k}"), "Melem/s"));
        v.push((format!("codec.decompress_melem_s.{k}"), "Melem/s"));
    }
    v.push(("codec.compress.blocks".into(), "count/item"));
    v.push(("codec.bytes_moved_per_elem".into(), "B"));
    for k in KINDS {
        v.push((format!("serialize.to_bytes_melem_s.{k}"), "Melem/s"));
        v.push((format!("serialize.from_bytes_melem_s.{k}"), "Melem/s"));
        v.push((format!("serialize.bits_per_value.{k}"), "bits"));
    }
    v.push(("coder.rans_decodes".into(), "count/item"));
    v.push(("coder.table_builds".into(), "count/item"));
    v.push(("coder.escapes".into(), "count/item"));
    for op in OPS {
        v.push((format!("ops.{op}_ms"), "ms"));
    }
    for op in OPS {
        v.push((format!("ops.{op}.error_over_bound"), "ratio"));
    }
    v.push(("rayon.parallel_calls".into(), "count/item"));
    v.push(("rayon.tasks".into(), "count/item"));
    v.push(("rayon.steals".into(), "count/item"));
    for call in ["compress_large", "append_small", "query_full"] {
        v.push((format!("rayon.speedup_2t.{call}"), "ratio"));
    }
    v.push(("store.writer.append_us.p50".into(), "us"));
    v.push(("store.writer.append_us.p99".into(), "us"));
    v.push(("store.writer.finish_ms".into(), "ms"));
    v.push(("store.writer.overhead_bits_per_value".into(), "bits"));
    for c in CLASSES {
        v.push((format!("store.query.{c}_us.p50"), "us"));
        v.push((format!("store.query.{c}_us.p99"), "us"));
        v.push((format!("store.query.prune_ratio.{c}"), "ratio"));
        v.push((format!("store.query.payload_bytes.{c}"), "B"));
    }
    v.push(("store.checksum.verified".into(), "count/item"));
    v.push(("store.chunk_reads".into(), "count/item"));
    v.push(("serve.connect_us".into(), "us"));
    v.push(("serve.exchange_us".into(), "us"));
    v.push(("serve.healthz_us".into(), "us"));
    for c in CLASSES {
        v.push((format!("serve.overhead_us.{c}"), "us"));
    }
    v.push(("serve.shed".into(), "count"));
    v.push(("serve.deadline_hits".into(), "count"));
    v.push(("serve.closed_loop_qps".into(), "req/s"));
    v.push(("serve.generator_late_ms".into(), "ms"));
    v.push(("trace.item_ms".into(), "ms"));
    for l in LAYERS {
        v.push((format!("trace.self_ms.{l}"), "ms"));
    }
    v.push(("trace.uncovered_ms".into(), "ms"));
    v.push(("trace.overhead_pct".into(), "%"));
    v
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

/// One workload's outcome.
pub struct Report {
    pub workload: &'static str,
    /// Work items attempted.
    pub attempted: u64,
    /// Work items that failed in any way, missed latency limits included.
    pub failed: u64,
    /// Work items with a wrong answer, an error, a bound violation or a
    /// non-2xx status: the run is not correct if this is above 0.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed in the table but not in the JSON line: ones that
    /// only one workload has (such as `goodput_qps` of query-serve).
    pub info: Vec<Metric>,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            wrong: 0,
            metrics: Vec::new(),
            info: Vec::new(),
            problems: Vec::new(),
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: u64) {
        let name = name.into();
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }

    /// Adds a figure that the table shows and the JSON line leaves out.
    pub fn put_info(&mut self, name: &str, value: f64, unit: &'static str, n: u64) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
        });
    }

    /// Records a correctness failure of one work item.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.failed += 1;
        self.note(what);
    }

    /// Records a work item that was right but missed its latency limit.
    pub fn late(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    fn note(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }

    /// Keeps exactly the metrics in `names` (filling absent ones with 0,
    /// n=0) in that order, so every run prints the same set.
    pub fn select(&mut self, names: &[(String, &'static str)]) {
        let mut out = Vec::with_capacity(names.len());
        for (name, unit) in names {
            match self.metrics.iter().find(|m| &m.name == name) {
                Some(m) => out.push(m.clone()),
                None => out.push(Metric {
                    name: name.clone(),
                    value: 0.0,
                    unit,
                    n: 0,
                }),
            }
        }
        self.metrics = out;
    }

    /// Human-readable lines: one per metric, then the failure summary.
    pub fn print_table(&self) {
        for m in self.metrics.iter().chain(&self.info) {
            println!(
                "{:<15} {:<40} {:>14} {:<10} n={}",
                self.workload,
                m.name,
                fmt_value(m.value),
                m.unit,
                m.n
            );
        }
        let ratio = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{:<15} {:<40} {:>14} {:<10} n={}  (wrong={})",
            self.workload,
            "failed_ratio",
            fmt_value(ratio),
            "ratio",
            self.attempted,
            self.wrong
        );
        for p in &self.problems {
            eprintln!("{}: FAILED {p}", self.workload);
        }
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A result line read back: what [`Report::json`] wrote.
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, `{"value": …, "unit": …}`) in order.
    pub metrics: Vec<(String, String)>,
}

/// Reads back a line that [`Report::json`] wrote (`None` for any other
/// line).
pub fn parse_result(line: &str) -> Option<ParsedResult> {
    let rest = line.strip_prefix("{\"correct\": ")?;
    let (correct, rest) = rest.split_once(", \"attempted\": ")?;
    let (attempted, rest) = rest.split_once(", \"failed\": ")?;
    let (failed, rest) = rest.split_once(", \"metrics\": {")?;
    let body = rest.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    // Entries are `"name": {"value": v, "unit": "u"}`, joined by ", ".
    for entry in body.split("}, \"").filter(|e| !e.is_empty()) {
        let entry = entry.trim_start_matches('"').trim_end_matches('}');
        let (name, value) = entry.split_once("\": ")?;
        metrics.push((name.to_string(), format!("{value}}}")));
    }
    Some(ParsedResult {
        correct: correct == "true",
        attempted: attempted.parse().ok()?,
        failed: failed.parse().ok()?,
        metrics,
    })
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with every digit Rust prints (shortest round-trip);
/// non-finite values, which JSON cannot hold, become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_reads_back() {
        let mut r = Report::new("query-serve");
        r.attempted = 12;
        r.late("slow".into());
        r.put("setup_s", 0.25, "s", 9);
        r.put("latency_p99_ms", 31.5, "ms", 2250);
        let p = parse_result(&r.json()).expect("parses");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (12, 1));
        assert_eq!(
            p.metrics,
            vec![
                ("setup_s".into(), r#"{"value": 0.25, "unit": "s"}"#.into()),
                (
                    "latency_p99_ms".into(),
                    r#"{"value": 31.5, "unit": "ms"}"#.into()
                ),
            ]
        );
        assert!(parse_result("query-serve: host steal share 0.01").is_none());
    }
}
