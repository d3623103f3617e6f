//! One seeded benchmark for blazr.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <field-analysis|frame-ingest|query-serve|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, sets up (nine
//! times; the median is `setup_s`), runs one untimed round whose outputs
//! are checked against uncompressed truth, then measures for `--seconds`
//! with every output checked. With `--trace 0` it prints the end-to-end
//! metrics. With `--trace 1` it measures for half the time, repeats the
//! same work with spans and library counters on, runs the layer probes,
//! and prints the per-layer metrics. The last line of
//! standard output is one JSON object; the exit code is 1 if any check
//! failed and 2 on a usage error.
//!
//! End-to-end runs use the shipped defaults: telemetry off, the default
//! thread count, and `ServeConfig::default()`.

mod field;
mod gen;
mod ingest;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads `--workload all` runs, in order.
const WORKLOADS: &[&str] = &["field-analysis", "frame-ingest", "query-serve"];

/// Command-line settings shared by the workloads.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds: want 0 < s <= 600".into());
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace: want 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }

    /// Length of the measured phase. A traced run measures the same work
    /// twice, untraced and then traced, so each phase gets half.
    pub fn phase(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

/// Where scratch files and span dumps go: inside the working directory,
/// which is the checkout root.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Runs `make` [`SETUP_REPEATS`] times, handing every result but the
/// last to `teardown`; returns the last result and the set-up times in
/// seconds.
pub fn repeat_setup<T>(mut make: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(make());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Puts `setup_s` and `peak_rss_mb` into an end-to-end report.
pub fn put_common(r: &mut Report, setup_times: &[f64]) {
    r.put(
        "setup_s",
        stats::median(setup_times),
        "s",
        setup_times.len() as u64,
    );
    r.put("peak_rss_mb", stats::peak_rss_mib(), "MiB", 1);
}

/// Median time of `f` on one thread over median time at the default
/// thread count, `reps` runs each, alternating.
pub fn speedup_2t(reps: usize, mut f: impl FnMut()) -> f64 {
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t0 = Instant::now();
        one.install(&mut f);
        t1.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        f();
        t2.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&t1) / stats::median(&t2)
}

/// Per-item self time of each layer, the uncovered remainder, and the
/// tracing overhead (traced over untraced time for the same items).
pub fn put_breakdown(r: &mut Report, tr: &Tracer, untraced_s: f64, traced_s: f64) {
    let b = tr.breakdown();
    let per_item_ms = |ns: u64| ns as f64 / b.items.max(1) as f64 / 1e6;
    r.put("trace.item_ms", per_item_ms(b.item_ns), "ms", b.items);
    for (layer, ns) in &b.self_ns {
        r.put(
            format!("trace.self_ms.{layer}"),
            per_item_ms(*ns),
            "ms",
            b.items,
        );
    }
    r.put(
        "trace.uncovered_ms",
        per_item_ms(b.uncovered_ns),
        "ms",
        b.items,
    );
    r.put(
        "trace.overhead_pct",
        100.0 * (traced_s / untraced_s - 1.0),
        "%",
        b.items,
    );
}

fn run_one(name: &str, args: &Args) -> Option<Report> {
    let mut r = match name {
        "field-analysis" => field::run(args),
        "frame-ingest" => ingest::run(args),
        "query-serve" => serve::run(args),
        _ => return None,
    };
    if args.trace {
        r.select(&report::per_layer());
    } else {
        let names: Vec<(String, &'static str)> = report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        r.select(&names);
        for m in &r.metrics.clone() {
            if !(m.value.is_finite() && m.value > 0.0) {
                r.wrong(format!("end-to-end metric {} is {}", m.name, m.value));
            }
        }
    }
    Some(r)
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <field-analysis|frame-ingest|query-serve|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    blazr_telemetry::set_mode(blazr_telemetry::Mode::Off);
    println!(
        "blazr benchmark: seed={} seconds={} trace={} threads={} nproc={} l2_bytes={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads(),
        stats::nproc(),
        stats::l2_cache_bytes().map_or("unknown".into(), |b| b.to_string())
    );
    let steal0 = stats::cpu_steal_ticks();
    let Some(r) = run_one(&args.workload, &args) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    r.print_table();
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, stats::cpu_steal_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("{}: host steal share during the run {share:.4}", r.workload);
    }
    let _ = std::fs::remove_dir_all(out_dir().join("tmp"));
    println!("{}", r.json());
    if !r.correct() {
        std::process::exit(1);
    }
}

/// `--workload all`: every workload in a child process of its own, so
/// that each reports its own peak memory. The children's tables pass
/// through, and their result lines merge into one, with metric names
/// prefixed by the workload. Returns the exit code.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot find this program: {e}");
            return 2;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: cannot run {name}: {e}");
                return 2;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let (table, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
        println!("{table}");
        let Some(res) = report::parse_result(last) else {
            eprintln!(
                "error: {name} printed no result (exit status {})",
                out.status
            );
            return 2;
        };
        correct &= res.correct && out.status.success();
        attempted += res.attempted;
        failed += res.failed;
        metrics.extend(
            res.metrics
                .iter()
                .map(|(metric, body)| format!("\"{name}/{metric}\": {body}")),
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}
