//! query-serve: the read path over loopback TCP.
//!
//! Set-up writes a store of 384 seeded 64×64 chunks whose values drift
//! with the label (so zone maps can prune), computes the in-process answer
//! of every request in a seeded pool, checks each answer against the
//! uncompressed frames within its reported error bound, and starts the
//! server with `ServeConfig::default()`. The measured phase is an open
//! loop: requests are due at a fixed rate on a seeded schedule, sent from
//! at most `nproc` client threads (one connection each at a time), and
//! timed from their due time. Each request of the pool comes many times in
//! the schedule, and its latency is its best over them. The traced run
//! adds a closed loop with `nproc` clients that measures the capacity. Every response
//! body must equal `encode_query_body` of the in-process answer byte for
//! byte.

use crate::field::{ROUNDING_ELEMS, U};
use crate::report::{Report, CLASSES};
use crate::stats;
use crate::trace::{total_ns, SpanId, Tracer};
use crate::{gen, put_breakdown, put_common, repeat_setup, speedup_2t, Args};
use blazr::{CompressedArray, IndexType, ScalarType, Settings};
use blazr_serve::{encode_query_body, http_get, ServeConfig, Server, TcpConn, TcpTransport};
use blazr_store::{Aggregate, Predicate, Query, Store, StoreWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load of the open loop: under a third of the capacity the traced
/// run measures with two clients (`serve.closed_loop_qps`, about 600
/// requests/s on a 2-vCPU Xeon VM). Requests are 5.9 ms apart, so one
/// waits for the one before it only behind a `full` scan.
pub const RATE_PER_S: f64 = 170.0;
/// Latency limit per request, timed from its due time.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(250);
const CHUNKS: u64 = 384;
const SIDE: usize = 64;
/// Requests of each class in every fifty of the schedule, in [`CLASSES`]
/// order. An assumption, not taken from a real trace: mostly cheap
/// requests and a rare decode-bound `full` scan (in-process p50s about 1,
/// 1.5 and 12 ms). `full` is 2% of the requests, so `latency_p99_ms` is
/// about the median `full` request and `latency_p50_ms` a `selective` or
/// `window` one.
const MIX: [usize; 3] = [33, 16, 1];
/// Length of the capacity loop's schedule per second of it: more requests
/// than the server can answer, so the loop ends on time, not on a short
/// schedule.
const CLOSED_MAX_QPS: f64 = 2000.0;
/// Distinct requests per class in the pool (`full` has one).
const POOL: usize = 128;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
const SPIN: Duration = Duration::from_micros(200);

/// One request of the pool, with its expected response.
struct Req {
    class: usize,
    target: String,
    query: Query,
    body: String,
    scanned_elems: f64,
}

struct Setup {
    server: Server,
    addr: String,
    /// The same file opened in-process, for the layer measurements.
    store: Store,
    pool: Vec<Req>,
    file_bits: f64,
    linf_rel: f64,
    problems: Vec<String>,
}

fn setup(seed: u64, dir: &Path) -> Setup {
    std::fs::create_dir_all(dir).expect("create scratch directory");
    let path = dir.join("served.blzs");
    let mut rng = gen::rng(seed, 21);
    let frames: Vec<_> = (0..CHUNKS).map(|l| gen::drift_frame(l, &mut rng)).collect();
    let mut w = StoreWriter::create(
        &path,
        Settings::new(vec![8, 8]).expect("settings"),
        ScalarType::F32,
        IndexType::I16,
    )
    .expect("create served store");
    for (l, f) in frames.iter().enumerate() {
        w.append(l as u64, f).expect("append served chunk");
    }
    w.finish().expect("finish served store");
    let store = Store::open(&path).expect("open served store");
    let mut problems = Vec::new();

    // Every chunk against its frame; the error is relative to the range
    // of the whole store.
    let mut max_err = 0.0f64;
    let (mut lo_all, mut hi_all) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, f) in frames.iter().enumerate() {
        let x = f.as_slice();
        let c: CompressedArray<f32, i16> = store.chunk_typed(i).expect("served chunk");
        let amax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let bound = c.error_bounds().linf + ROUNDING_ELEMS * U * amax;
        let err = c
            .decompress()
            .as_slice()
            .iter()
            .zip(x)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        if err.is_nan() || err > bound {
            problems.push(format!("chunk {i}: error {err:e} exceeds bound {bound:e}"));
        }
        max_err = max_err.max(err);
        for &v in x {
            lo_all = lo_all.min(v);
            hi_all = hi_all.max(v);
        }
    }
    let linf_rel = max_err / (hi_all - lo_all);

    // The request pool: targets as the server parses them, the same
    // queries in-process, and each answer against the original frames.
    let mut pool = Vec::new();
    let top = 0.2 * CHUNKS as f64;
    let scale = frames
        .iter()
        .map(|f| f.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs())))
        .fold(0.0, f64::max);
    for (class, &name) in CLASSES.iter().enumerate() {
        let count = if name == "full" { 1 } else { POOL };
        for _ in 0..count {
            let (target, query) = match name {
                "selective" => {
                    let lo = rng.uniform_in(0.0, top);
                    let hi = lo + 0.05;
                    (
                        format!("/query?agg=mean&value_lo={lo}&value_hi={hi}"),
                        Query {
                            from_label: 0,
                            to_label: u64::MAX,
                            predicate: Some(Predicate::ValueInRange { lo, hi }),
                            aggregate: Aggregate::Mean,
                        },
                    )
                }
                "window" => {
                    let from = rng.below(CHUNKS - CHUNKS / 8);
                    let to = from + CHUNKS / 8 - 1;
                    (
                        format!("/query?agg=mean&from={from}&to={to}"),
                        Query {
                            from_label: from,
                            to_label: to,
                            predicate: None,
                            aggregate: Aggregate::Mean,
                        },
                    )
                }
                _ => (
                    "/query?agg=variance".to_string(),
                    Query::all(Aggregate::Variance),
                ),
            };
            let (res, report) = store.query_degraded(&query).expect("in-process query");
            let truth = truth_of(&frames, &res.matched_labels, query.aggregate);
            let slack = 1e-5
                * if query.aggregate == Aggregate::Variance {
                    scale * scale
                } else {
                    scale
                };
            if (res.value - truth).abs() > res.error_bound + slack || res.value.is_nan() {
                problems.push(format!(
                    "{target}: value {} vs truth {truth} beyond bound {}",
                    res.value, res.error_bound
                ));
            }
            pool.push(Req {
                class,
                target,
                query,
                body: encode_query_body(&res, &report),
                scanned_elems: (res.chunks_scanned * SIDE * SIDE) as f64,
            });
        }
    }
    let listener = TcpTransport::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(
        Store::open(&path).expect("open served store"),
        Box::new(listener),
        ServeConfig::default(),
    )
    .expect("start server");
    Setup {
        addr: server.local_addr().to_string(),
        server,
        store,
        pool,
        file_bits: 8.0 * std::fs::metadata(&path).map_or(0, |m| m.len()) as f64,
        linf_rel,
        problems,
    }
}

/// Mean or population variance over the original frames of `labels`.
fn truth_of(frames: &[blazr_tensor::NdArray<f64>], labels: &[u64], agg: Aggregate) -> f64 {
    let vals = || {
        labels
            .iter()
            .flat_map(|&l| frames[l as usize].as_slice().iter().copied())
    };
    let n = vals().count() as f64;
    let mean = vals().sum::<f64>() / n;
    match agg {
        Aggregate::Variance => vals().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n,
        _ => mean,
    }
}

/// The seeded schedule: which pool request is due at each slot. Every
/// block of fifty consecutive slots holds each class exactly in its
/// [`MIX`] share and ends with the `full` request; the others come in
/// seeded order. So neither the class counts nor the spacing of the
/// `full` requests, which the tail of the latency depends on, changes
/// with the seed.
fn schedule(seed: u64, stream: u64, pool: &[Req], n: usize) -> Vec<usize> {
    let mut rng = gen::rng(seed, stream);
    let by_class: Vec<Vec<usize>> = (0..CLASSES.len())
        .map(|c| (0..pool.len()).filter(|&i| pool[i].class == c).collect())
        .collect();
    let mut block: Vec<usize> = MIX
        .iter()
        .enumerate()
        .flat_map(|(c, &k)| std::iter::repeat_n(c, k))
        .collect();
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        for i in (1..block.len() - 1).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &c in &block {
            order.push(by_class[c][rng.below(by_class[c].len() as u64) as usize]);
        }
    }
    order.truncate(n);
    order
}

/// One request as the client saw it.
#[derive(Clone, Copy)]
struct Sample {
    req: usize,
    /// From due time to the end of the response.
    latency_s: f64,
    /// From due time to the send.
    late_s: f64,
    connect_s: f64,
    exchange_s: f64,
    ok: bool,
}

/// What one GET on a fresh connection returned, and how long its two
/// steps took.
struct Fetched {
    /// Status and body, or what failed.
    resp: Result<(u16, Vec<u8>), String>,
    connect_s: f64,
    exchange_s: f64,
}

fn fetch(addr: &str, target: &str, tr: &mut Tracer, parent: SpanId, id: u64) -> Fetched {
    let t0 = Instant::now();
    let conn = tr.span("serve.connect", parent, id, || TcpConn::connect(addr));
    let connect_s = t0.elapsed().as_secs_f64();
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => {
            let resp = Err(format!("connect: {e}"));
            return Fetched {
                resp,
                connect_s,
                exchange_s: 0.0,
            };
        }
    };
    let t1 = Instant::now();
    let resp = tr.span("serve.exchange", parent, id, || {
        http_get(&mut conn, target, CLIENT_TIMEOUT)
    });
    Fetched {
        resp: resp
            .map(|r| (r.status, r.body))
            .map_err(|e| format!("exchange: {e}")),
        connect_s,
        exchange_s: t1.elapsed().as_secs_f64(),
    }
}

/// Drives `order` against the server. Open loop: request `k` is due at
/// `k / RATE_PER_S` after the start. Closed loop (`open == false`): each
/// client sends its next request as soon as the last one is answered,
/// until `budget` has passed.
fn drive(
    s: &Setup,
    order: &[usize],
    open: bool,
    budget: Duration,
    trace: bool,
    r: &Mutex<&mut Report>,
) -> (Vec<Sample>, f64, Tracer) {
    let next = AtomicUsize::new(0);
    let start = Instant::now()
        + if open {
            Duration::from_millis(20)
        } else {
            Duration::ZERO
        };
    let clients = stats::nproc().max(1);
    let results: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut tr = Tracer::new(trace, start);
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= order.len() || (!open && start.elapsed() >= budget) {
                            break;
                        }
                        let due = if open {
                            start + Duration::from_secs_f64(k as f64 / RATE_PER_S)
                        } else {
                            Instant::now()
                        };
                        // Sleep until just before the due time, then spin, so
                        // timer slack does not make every request late.
                        if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                            std::thread::sleep(wait);
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let sent = Instant::now();
                        let req = &s.pool[order[k]];
                        let item = tr.open_at("serve.request", None, k as u64, Some(due));
                        let Fetched {
                            resp,
                            connect_s,
                            exchange_s,
                        } = fetch(&s.addr, &req.target, &mut tr, item, k as u64);
                        tr.close(item);
                        let latency = due.elapsed();
                        let ok = match resp {
                            Ok((200, body)) if body == req.body.as_bytes() => true,
                            Ok((status, body)) => {
                                let mut rep = r.lock().expect("report lock");
                                if status == 200 {
                                    rep.wrong(format!(
                                        "{}: body differs: {}",
                                        req.target,
                                        String::from_utf8_lossy(&body)
                                    ));
                                } else {
                                    rep.wrong(format!("{}: status {status}", req.target));
                                }
                                false
                            }
                            Err(e) => {
                                r.lock()
                                    .expect("report lock")
                                    .wrong(format!("{}: {e}", req.target));
                                false
                            }
                        };
                        if ok && latency > LATENCY_LIMIT {
                            r.lock()
                                .expect("report lock")
                                .late(format!("{} took {latency:?}", req.target));
                        }
                        out.push(Sample {
                            req: order[k],
                            latency_s: latency.as_secs_f64(),
                            late_s: sent.saturating_duration_since(due).as_secs_f64(),
                            connect_s,
                            exchange_s,
                            ok: ok && latency <= LATENCY_LIMIT,
                        });
                    }
                    (out, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut tr = Tracer::new(trace, start);
    for (s, t) in results {
        samples.extend(s);
        tr.merge(t);
    }
    r.lock().expect("report lock").attempted += samples.len() as u64;
    (samples, elapsed, tr)
}

fn teardown(s: Setup) {
    s.server.shutdown();
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::new("query-serve");
    let dir: PathBuf = crate::out_dir().join("tmp").join("serve");
    let (s, setup_times) = repeat_setup(|| setup(args.seed, &dir), teardown);
    r.attempted += s.pool.len() as u64;
    for p in &s.problems {
        r.wrong(format!("set-up check: {p}"));
    }

    // Checked round: every pool request once over HTTP, untimed; this
    // also touches every chunk, so checksums are verified before timing.
    let all: Vec<usize> = (0..s.pool.len()).collect();
    let cell = Mutex::new(&mut r);
    drive(&s, &all, false, Duration::from_secs(3600), false, &cell);

    // Other guests on the host take a CPU for milliseconds at a time, so a
    // request's latency is the best over its repeats in the schedule: each
    // `selective` and `window` request of the pool comes about 26 times at
    // `--seconds 30`, the one `full` request about 100 times.
    let n = (RATE_PER_S * args.phase().as_secs_f64()).ceil() as usize;
    let order = schedule(args.seed, 22, &s.pool, n);
    let (samples, open_s, _) = drive(&s, &order, true, Duration::ZERO, false, &cell);
    let mut best_of = vec![f64::INFINITY; s.pool.len()];
    for x in &samples {
        best_of[x.req] = best_of[x.req].min(x.latency_s);
    }
    let best: Vec<f64> = order.iter().map(|&k| best_of[k]).collect();
    let good = samples.iter().filter(|x| x.ok).count();

    put_common(&mut r, &setup_times);
    // The elements the answers decoded per second of their best latencies.
    let elems: f64 = order.iter().map(|&k| s.pool[k].scanned_elems).sum();
    r.put(
        "throughput_melem_s",
        elems / best.iter().sum::<f64>() / 1e6,
        "Melem/s",
        order.len() as u64,
    );
    r.put(
        "bits_per_value",
        s.file_bits / (CHUNKS as f64 * (SIDE * SIDE) as f64),
        "bits",
        CHUNKS,
    );
    r.put("error_linf_rel", s.linf_rel, "ratio", CHUNKS);
    r.put(
        "latency_p50_ms",
        1e3 * stats::median(&best),
        "ms",
        best.len() as u64,
    );
    r.put(
        "latency_p99_ms",
        1e3 * stats::quantile(&best, 0.99),
        "ms",
        best.len() as u64,
    );
    r.put_info(
        "goodput_qps",
        good as f64 / open_s,
        "req/s",
        samples.len() as u64,
    );

    if args.trace {
        traced(args, &s, &order, &samples, &mut r);
    }
    teardown(s);
    r
}

fn traced(args: &Args, s: &Setup, order: &[usize], untraced: &[Sample], r: &mut Report) {
    use blazr_telemetry as tel;
    let before = s.server.stats();
    tel::registry().reset();
    tel::set_mode(tel::Mode::Counters);
    let cell = Mutex::new(&mut *r);
    let (samples, _, tr) = drive(s, order, true, Duration::ZERO, true, &cell);
    tel::set_mode(tel::Mode::Off);
    let snap = tel::registry().snapshot();
    let reqs = samples.len() as u64;
    for name in [
        "store.checksum.verified",
        "store.chunk_reads",
        "rayon.parallel_calls",
        "rayon.tasks",
        "rayon.steals",
    ] {
        cell.lock().expect("report lock").put(
            name,
            snap.counter(name).unwrap_or(0) as f64 / reqs as f64,
            "count/item",
            reqs,
        );
    }

    let after = s.server.stats();
    r.put(
        "serve.shed",
        (after.shed - before.shed) as f64,
        "count",
        reqs,
    );
    r.put(
        "serve.deadline_hits",
        (after.deadline_hits - before.deadline_hits) as f64,
        "count",
        reqs,
    );

    // Capacity: `nproc` clients sending back to back for a while.
    let capacity = Duration::from_secs(2);
    let n = (CLOSED_MAX_QPS * capacity.as_secs_f64()).ceil() as usize;
    let capacity_order = schedule(args.seed, 24, &s.pool, n);
    let cell = Mutex::new(&mut *r);
    let (closed, closed_s, _) = drive(s, &capacity_order, false, capacity, false, &cell);
    r.put(
        "serve.closed_loop_qps",
        closed.len() as f64 / closed_s,
        "req/s",
        closed.len() as u64,
    );

    let us = |xs: Vec<f64>| 1e6 * stats::median(&xs);
    r.put(
        "serve.connect_us",
        us(samples.iter().map(|x| x.connect_s).collect()),
        "us",
        reqs,
    );
    r.put(
        "serve.exchange_us",
        us(samples.iter().map(|x| x.exchange_s).collect()),
        "us",
        reqs,
    );
    let late: Vec<f64> = untraced.iter().map(|x| x.late_s).collect();
    r.put(
        "serve.generator_late_ms",
        1e3 * stats::quantile(&late, 0.99),
        "ms",
        late.len() as u64,
    );
    let sum = |xs: &[Sample]| xs.iter().map(|x| x.latency_s).sum::<f64>();
    put_breakdown(r, &tr, sum(untraced), sum(&samples));
    if let Err(e) =
        tr.write_jsonl(&crate::out_dir().join(format!("spans-query-serve-{}.jsonl", args.seed)))
    {
        eprintln!("query-serve: could not write spans: {e}");
    }

    // The store layer in-process, on the same request sequence.
    let never = || false;
    let mut class_us: Vec<Vec<f64>> = vec![Vec::new(); CLASSES.len()];
    let t_budget = Instant::now();
    for &k in order.iter().take(1000) {
        let q = &s.pool[k];
        let t0 = Instant::now();
        let ok = s.store.query_degraded_with(&q.query, &never).is_ok();
        class_us[q.class].push(t0.elapsed().as_secs_f64() * 1e6);
        if !ok || t_budget.elapsed() > Duration::from_secs(5) {
            break;
        }
    }
    for (c, name) in CLASSES.iter().enumerate() {
        let pool: Vec<&Req> = s.pool.iter().filter(|q| q.class == c).collect();
        let results: Vec<_> = pool
            .iter()
            .filter_map(|q| s.store.query(&q.query).ok())
            .collect();
        let mean = |f: &dyn Fn(&blazr_store::QueryResult) -> f64| {
            results.iter().map(f).sum::<f64>() / results.len() as f64
        };
        let n = class_us[c].len() as u64;
        let p50 = stats::median(&class_us[c]);
        r.put(format!("store.query.{name}_us.p50"), p50, "us", n);
        r.put(
            format!("store.query.{name}_us.p99"),
            stats::quantile(&class_us[c], 0.99),
            "us",
            n,
        );
        r.put(
            format!("store.query.prune_ratio.{name}"),
            mean(&|x| x.prune_ratio()),
            "ratio",
            results.len() as u64,
        );
        r.put(
            format!("store.query.payload_bytes.{name}"),
            mean(&|x| x.payload_bytes_read as f64),
            "B",
            results.len() as u64,
        );
        let served: Vec<f64> = samples
            .iter()
            .filter(|x| s.pool[x.req].class == c)
            .map(|x| (x.connect_s + x.exchange_s) * 1e6)
            .collect();
        r.put(
            format!("serve.overhead_us.{name}"),
            stats::median(&served) - p50,
            "us",
            served.len() as u64,
        );
    }

    // /healthz: the served floor with no store work.
    let mut health = Vec::new();
    let mut off = Tracer::new(false, Instant::now());
    for _ in 0..200 {
        let t0 = Instant::now();
        if let Ok((200, _)) = fetch(&s.addr, "/healthz", &mut off, None, 0).resp {
            health.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    r.put(
        "serve.healthz_us",
        stats::median(&health),
        "us",
        health.len() as u64,
    );

    // Decoding a chunk's stream, as the scan does per chunk.
    let mut tc = Tracer::new(true, Instant::now());
    for i in 0..s.store.len() {
        if let Ok(bytes) = s.store.chunk_bytes(i) {
            let _ = tc.span("serialize.from_bytes", None, i as u64, || {
                CompressedArray::<f32, i16>::from_bytes(&bytes)
            });
        }
    }
    let (ns, n) = total_ns(tc.spans(), "serialize.from_bytes", |_| true);
    r.put(
        "serialize.from_bytes_melem_s.frame",
        n as f64 * (SIDE * SIDE) as f64 / ns as f64 * 1e3,
        "Melem/s",
        n,
    );

    let full = s
        .pool
        .iter()
        .find(|q| CLASSES[q.class] == "full")
        .expect("full request");
    let speedup = speedup_2t(7, || {
        let _ = s.store.query(&full.query);
    });
    r.put("rayon.speedup_2t.query_full", speedup, "ratio", 7);
}
