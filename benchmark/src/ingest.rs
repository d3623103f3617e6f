//! frame-ingest: the store's write path on thousands of small frames.
//!
//! Inputs are 1536 seeded 2-D frames (64² to 96², alternating smooth and
//! noisy) and 64 3-D fission frames (40×40×32, cropped from 40×40×66),
//! interleaved; each frame fits in L2, so per-call costs dominate. One
//! pass creates a 2-D and a 3-D store, appends every frame with
//! `StoreWriter::append`, and finishes both. The untimed first pass
//! reopens the stores and checks every chunk against its frame within the
//! chunk's error bound; every measured pass must write byte-identical
//! files.

use crate::field::{ROUNDING_ELEMS, U};
use crate::report::Report;
use crate::stats::{self, Fingerprint};
use crate::trace::{total_ns, Tracer};
use crate::{gen, put_breakdown, put_common, repeat_setup, speedup_2t, Args};
use blazr::{compress, CompressedArray, IndexType, ScalarType, Settings};
use blazr_store::{Store, StoreWriter};
use blazr_tensor::NdArray;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-append latency limit; an append over it counts as failed.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(100);
const FRAMES_2D: usize = 1536;
const FRAMES_3D: usize = 64;
/// One frame in this many is 3-D.
const EVERY_3D: usize = 25;

struct Frame {
    data: NdArray<f64>,
    is_3d: bool,
}

struct Setup {
    frames: Vec<Frame>,
    elems: f64,
    s2: Settings,
    s3: Settings,
    dir: PathBuf,
}

fn setup(seed: u64, dir: &Path) -> Setup {
    let mut rng2 = gen::rng(seed, 11);
    let (mut n2, mut n3) = (0, 0);
    let mut frames = Vec::with_capacity(FRAMES_2D + FRAMES_3D);
    while n2 < FRAMES_2D || n3 < FRAMES_3D {
        let want_3d =
            n3 < FRAMES_3D && (frames.len() % EVERY_3D == EVERY_3D - 1 || n2 == FRAMES_2D);
        if want_3d {
            frames.push(Frame {
                data: gen::frame_3d(n3, seed),
                is_3d: true,
            });
            n3 += 1;
        } else {
            frames.push(Frame {
                data: gen::frame_2d(n2, &mut rng2),
                is_3d: false,
            });
            n2 += 1;
        }
    }
    std::fs::create_dir_all(dir).expect("create scratch directory");
    Setup {
        elems: frames.iter().map(|f| f.data.len() as f64).sum(),
        frames,
        s2: Settings::new(vec![8, 8]).expect("2-D settings"),
        s3: Settings::new(vec![4, 4, 4]).expect("3-D settings"),
        dir: dir.to_path_buf(),
    }
}

impl Setup {
    fn paths(&self) -> [PathBuf; 2] {
        [
            self.dir.join("frames2d.blzs"),
            self.dir.join("frames3d.blzs"),
        ]
    }
}

/// One pass's measurements.
struct Pass {
    append_s: Vec<f64>,
    total_s: f64,
    result: Result<(), String>,
}

/// One pass: create both stores, append every frame, finish.
fn pass(s: &Setup, tr: &mut Tracer, first_item: u64, r: &mut Report) -> Pass {
    let t_pass = Instant::now();
    let mut p = Pass {
        append_s: Vec::with_capacity(s.frames.len()),
        total_s: 0.0,
        result: Ok(()),
    };
    let [p2, p3] = s.paths();
    let open = tr.open("ingest.create", None, first_item);
    let writers = tr.span("store.writer.create", open, first_item, || {
        let w2 = StoreWriter::create(&p2, s.s2.clone(), ScalarType::F32, IndexType::I16)?;
        let w3 = StoreWriter::create(&p3, s.s3.clone(), ScalarType::F32, IndexType::I16)?;
        Ok::<_, blazr_store::StoreError>((w2, w3))
    });
    tr.close(open);
    let (mut w2, mut w3) = match writers {
        Ok(w) => w,
        Err(e) => {
            r.attempted += 1;
            r.wrong(format!("create: {e}"));
            p.result = Err(e.to_string());
            return p;
        }
    };
    for (k, f) in s.frames.iter().enumerate() {
        let id = first_item + 1 + k as u64;
        let item = tr.open("ingest.frame", None, id);
        let t0 = Instant::now();
        let w = if f.is_3d { &mut w3 } else { &mut w2 };
        let out = tr.span("store.writer.append", item, id, || {
            w.append(k as u64, black_box(&f.data))
        });
        let dt = t0.elapsed();
        tr.close(item);
        r.attempted += 1;
        p.append_s.push(dt.as_secs_f64());
        match out {
            Err(e) => r.wrong(format!("append {k}: {e}")),
            Ok(_) if dt > LATENCY_LIMIT => r.late(format!("append {k} took {dt:?}")),
            Ok(_) => {}
        }
    }
    let id = first_item + 1 + s.frames.len() as u64;
    let item = tr.open("ingest.finish", None, id);
    let done = tr.span("store.writer.finish", item, id, || {
        w2.finish().and_then(|_| w3.finish())
    });
    tr.close(item);
    r.attempted += 1;
    if let Err(e) = done {
        r.wrong(format!("finish: {e}"));
        p.result = Err(e.to_string());
    }
    p.total_s = t_pass.elapsed().as_secs_f64();
    p
}

fn file_print(paths: &[PathBuf]) -> Result<Fingerprint, String> {
    let mut fp = Fingerprint::default();
    for p in paths {
        fp.bytes(&std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()))?);
    }
    Ok(fp)
}

/// Reopens the stores and checks every chunk against its frame: labels
/// in order, and decompression error within the chunk's bound. Returns
/// the largest error over the frame's range.
fn check_truth(s: &Setup) -> Result<f64, String> {
    let [p2, p3] = s.paths();
    let stores = [
        Store::open(&p2).map_err(|e| format!("reopen 2-D store: {e}"))?,
        Store::open(&p3).map_err(|e| format!("reopen 3-D store: {e}"))?,
    ];
    let mut next = [0usize; 2];
    let mut linf_rel = 0.0f64;
    for (k, f) in s.frames.iter().enumerate() {
        let which = usize::from(f.is_3d);
        let (store, i) = (&stores[which], next[which]);
        next[which] += 1;
        if store.entries().get(i).map(|e| e.label) != Some(k as u64) {
            return Err(format!("frame {k}: chunk {i} has the wrong label"));
        }
        let c: CompressedArray<f32, i16> = store
            .chunk_typed(i)
            .map_err(|e| format!("chunk {i}: {e}"))?;
        let x = f.data.as_slice();
        let amax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let bound = c.error_bounds().linf + ROUNDING_ELEMS * U * amax;
        let dec = c.decompress();
        let err = dec
            .as_slice()
            .iter()
            .zip(x)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        if dec.shape() != f.data.shape() || err.is_nan() || err > bound {
            return Err(format!("frame {k}: error {err:e} exceeds bound {bound:e}"));
        }
        let (lo, hi) = x
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), v| {
                (l.min(*v), h.max(*v))
            });
        linf_rel = linf_rel.max(err / (hi - lo));
    }
    if next[0] != stores[0].len() || next[1] != stores[1].len() {
        return Err("stores hold extra chunks".into());
    }
    Ok(linf_rel)
}

struct Phase {
    append_s: Vec<f64>,
    /// Per frame, its fastest append over the passes.
    best_append_s: Vec<f64>,
    /// The fastest create and finish (a pass's time outside its appends).
    best_rest_s: f64,
    total_s: f64,
    passes: usize,
}

/// Runs whole passes until `budget` has passed (or exactly `passes`),
/// checking each pass's files against the checked pass.
fn measure(
    s: &Setup,
    print: Fingerprint,
    budget: Duration,
    passes: Option<usize>,
    tr: &mut Tracer,
    r: &mut Report,
) -> Phase {
    let mut ph = Phase {
        append_s: Vec::new(),
        best_append_s: vec![f64::INFINITY; s.frames.len()],
        best_rest_s: f64::INFINITY,
        total_s: 0.0,
        passes: 0,
    };
    let start = Instant::now();
    loop {
        let done = match passes {
            Some(n) => ph.passes >= n,
            None => ph.passes > 0 && start.elapsed() >= budget,
        };
        if done {
            break;
        }
        let first = (ph.passes * (s.frames.len() + 2)) as u64;
        let p = pass(s, tr, first, r);
        if p.result.is_ok() {
            match file_print(&s.paths()) {
                Ok(fp) if fp == print => {}
                Ok(_) => r.wrong(format!(
                    "pass {}: files differ from the checked pass",
                    ph.passes
                )),
                Err(e) => r.wrong(format!("pass {}: {e}", ph.passes)),
            }
        }
        for (best, &t) in ph.best_append_s.iter_mut().zip(&p.append_s) {
            *best = best.min(t);
        }
        let rest = p.total_s - p.append_s.iter().sum::<f64>();
        ph.best_rest_s = ph.best_rest_s.min(rest);
        ph.append_s.extend(p.append_s);
        ph.total_s += p.total_s;
        ph.passes += 1;
    }
    ph
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::new("frame-ingest");
    let dir = crate::out_dir().join("tmp").join("ingest");
    let (s, setup_times) = repeat_setup(|| setup(args.seed, &dir), drop);

    let mut off = Tracer::new(false, Instant::now());
    let checked = pass(&s, &mut off, 0, &mut r);
    let mut linf_rel = f64::NAN;
    let mut print = Fingerprint::default();
    if checked.result.is_ok() {
        match check_truth(&s).and_then(|l| Ok((l, file_print(&s.paths())?))) {
            Ok((l, fp)) => {
                linf_rel = l;
                print = fp;
            }
            Err(e) => r.wrong(format!("checked pass: {e}")),
        }
    }
    let file_bits: f64 = s
        .paths()
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()) as f64 * 8.0)
        .sum();

    let ph = measure(&s, print, args.phase(), None, &mut off, &mut r);
    let n = ph.append_s.len() as u64;
    put_common(&mut r, &setup_times);
    // Each frame's fastest append over the passes, and the fastest create
    // and finish: other guests on the host take a CPU for milliseconds at a
    // time, and an item's best time over the passes is its time without
    // that. A pass is about a second, so a run makes tens of passes.
    let best_pass_s = ph.best_append_s.iter().sum::<f64>() + ph.best_rest_s;
    r.put(
        "throughput_melem_s",
        s.elems / best_pass_s / 1e6,
        "Melem/s",
        ph.passes as u64,
    );
    r.put(
        "bits_per_value",
        file_bits / s.elems,
        "bits",
        s.frames.len() as u64,
    );
    r.put("error_linf_rel", linf_rel, "ratio", s.frames.len() as u64);
    // 1600 frames, so the p99 has 16 beyond it.
    let best = &ph.best_append_s;
    r.put("latency_p50_ms", 1e3 * stats::median(best), "ms", n);
    r.put("latency_p99_ms", 1e3 * stats::quantile(best, 0.99), "ms", n);

    if args.trace {
        traced(args, &s, print, &ph, &mut r);
    }
    r
}

fn traced(args: &Args, s: &Setup, print: Fingerprint, untraced: &Phase, r: &mut Report) {
    use blazr_telemetry as tel;
    let mut tr = Tracer::new(true, Instant::now());
    tel::registry().reset();
    tel::set_mode(tel::Mode::Counters);
    let ph = measure(s, print, Duration::ZERO, Some(untraced.passes), &mut tr, r);
    tel::set_mode(tel::Mode::Off);
    let snap = tel::registry().snapshot();
    let appends = ph.append_s.len() as u64;
    for name in [
        "codec.compress.blocks",
        "coder.table_builds",
        "rayon.parallel_calls",
        "rayon.tasks",
        "rayon.steals",
    ] {
        r.put(
            name,
            snap.counter(name).unwrap_or(0) as f64 / appends as f64,
            "count/item",
            appends,
        );
    }
    let append_us: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|sp| sp.name == "store.writer.append")
        .map(|sp| sp.dur_ns() as f64 / 1e3)
        .collect();
    r.put(
        "store.writer.append_us.p50",
        stats::median(&append_us),
        "us",
        appends,
    );
    r.put(
        "store.writer.append_us.p99",
        stats::quantile(&append_us, 0.99),
        "us",
        appends,
    );
    let (finish_ns, finishes) = total_ns(tr.spans(), "store.writer.finish", |_| true);
    r.put(
        "store.writer.finish_ms",
        finish_ns as f64 / finishes as f64 / 1e6,
        "ms",
        finishes,
    );
    let (mut file, mut payload) = (0u64, 0u64);
    for p in s.paths() {
        if let Ok(st) = Store::open(&p) {
            file += st.file_bytes();
            payload += st.payload_bytes();
        }
    }
    r.put(
        "store.writer.overhead_bits_per_value",
        8.0 * (file - payload) as f64 / s.elems,
        "bits",
        2,
    );
    put_breakdown(r, &tr, untraced.total_s, ph.total_s);
    if let Err(e) =
        tr.write_jsonl(&crate::out_dir().join(format!("spans-frame-ingest-{}.jsonl", args.seed)))
    {
        eprintln!("frame-ingest: could not write spans: {e}");
    }

    // The codec and serializer on the same frames, called directly.
    let mut tc = Tracer::new(true, Instant::now());
    let mut bits = 0.0;
    for (k, f) in s.frames.iter().enumerate() {
        let id = k as u64;
        let settings = if f.is_3d { &s.s3 } else { &s.s2 };
        let c = tc.span("codec.compress", None, id, || {
            compress::<f32, i16>(&f.data, settings)
        });
        let Ok(c) = c else { continue };
        let bytes = tc.span("serialize.to_bytes", None, id, || c.to_bytes());
        bits += 8.0 * bytes.len() as f64;
        if let Ok(back) = tc.span("serialize.from_bytes", None, id, || {
            CompressedArray::<f32, i16>::from_bytes(&bytes)
        }) {
            black_box(tc.span("codec.decompress", None, id, || back.decompress()));
        }
    }
    for (span, metric) in [
        ("codec.compress", "codec.compress_melem_s.frame"),
        ("codec.decompress", "codec.decompress_melem_s.frame"),
        ("serialize.to_bytes", "serialize.to_bytes_melem_s.frame"),
        ("serialize.from_bytes", "serialize.from_bytes_melem_s.frame"),
    ] {
        let (ns, n) = total_ns(tc.spans(), span, |_| true);
        r.put(metric, s.elems / ns as f64 * 1e3, "Melem/s", n);
    }
    r.put(
        "serialize.bits_per_value.frame",
        bits / s.elems,
        "bits",
        s.frames.len() as u64,
    );

    // Appends of the 2-D frames on one thread against the default team.
    let scratch = s.dir.join("speedup.blzs");
    let small: Vec<&Frame> = s.frames.iter().filter(|f| !f.is_3d).take(256).collect();
    let speedup = speedup_2t(5, || {
        let mut w = StoreWriter::create(&scratch, s.s2.clone(), ScalarType::F32, IndexType::I16)
            .expect("scratch store");
        for (k, f) in small.iter().enumerate() {
            w.append(k as u64, &f.data).expect("append");
        }
    });
    r.put("rayon.speedup_2t.append_small", speedup, "ratio", 5);
}
