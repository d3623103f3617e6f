//! field-analysis: large fields through the codec, the serializer and
//! the twelve Table I operations.
//!
//! Inputs are three 2048² fields (smooth, white noise, clustered) and a
//! 128³ spiky time series, each 16–32 MiB as f64, so every working set
//! is many times the L2 cache. Each field gives thirteen work items per
//! round, each one request to the library: the codec round trip
//! (`compress::<f32, i16>` → `to_bytes` → `from_bytes` → `decompress`),
//! then each of the twelve ops against a partner field. The untimed
//! first round checks every answer against the same operation on the
//! uncompressed arrays, within a bound derived from the library's §IV-D
//! `error_bounds()` plus an allowance for f32 rounding (which those
//! bounds do not cover); measured rounds must reproduce the checked
//! round's outputs bit for bit.

use crate::report::{Report, OPS};
use crate::stats::{self, Fingerprint};
use crate::trace::{total_ns, Tracer};
use crate::{gen, put_breakdown, put_common, repeat_setup, speedup_2t, Args};
use blazr::coder::histogram::{Histogram, SymbolTable};
use blazr::ops::SsimParams;
use blazr::serialize::peek_coder;
use blazr::{compress, Coder, CompressedArray, Settings};
use blazr_tensor::reduce::wasserstein_1d;
use blazr_tensor::NdArray;
use std::hint::black_box;
use std::time::{Duration, Instant};

type C = CompressedArray<f32, i16>;

/// Per-item latency limit; an item over it counts as failed.
pub const LATENCY_LIMIT: Duration = Duration::from_secs(10);
const SIDE: usize = 2048;
const VOLUME: [usize; 3] = [128, 128, 128];
const ADD_SCALAR: f64 = 0.5;
const MUL_SCALAR: f64 = -1.5;
const WASSERSTEIN_P: f64 = 2.0;
/// f32 unit roundoff.
pub const U: f64 = 1.0 / 16_777_216.0;
/// Allowance, in units of `U · max|x|`, for the f32 conversion and the
/// f32 forward and inverse transforms of one element.
pub const ROUNDING_ELEMS: f64 = 128.0;

/// Higham's γ_m: the relative error bound of an m-term f32 sum.
fn gamma(m: usize) -> f64 {
    let mu = m as f64 * U;
    mu / (1.0 - mu)
}

struct Field {
    kind: &'static str,
    data: NdArray<f64>,
    settings: Settings,
    /// Compressed in set-up; used as the partner operand.
    compressed: C,
    summary: Summary,
    block_means: Vec<f64>,
}

/// Exact statistics of an uncompressed field.
struct Summary {
    n: f64,
    min: f64,
    max: f64,
    amax: f64,
    norm: f64,
    mean: f64,
    var: f64,
}

impl Summary {
    fn of(x: &[f64]) -> Self {
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Self {
            n,
            min: x.iter().copied().fold(f64::INFINITY, f64::min),
            max: x.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            amax: x.iter().fold(0.0, |m, v| m.max(v.abs())),
            norm: x.iter().map(|v| v * v).sum::<f64>().sqrt(),
            mean,
            var,
        }
    }
}

/// Means of the blocks of a block-multiple array (any order: the
/// Wasserstein operation sorts them).
fn block_means(a: &NdArray<f64>, block: &[usize]) -> Vec<f64> {
    let shape = a.shape();
    let grid: Vec<usize> = shape.iter().zip(block).map(|(s, b)| s / b).collect();
    let mut sums = vec![0.0; grid.iter().product()];
    let mut idx = vec![0usize; shape.len()];
    for &v in a.as_slice() {
        let mut id = 0;
        for d in 0..shape.len() {
            id = id * grid[d] + idx[d] / block[d];
        }
        sums[id] += v;
        for d in (0..shape.len()).rev() {
            idx[d] += 1;
            if idx[d] < shape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    let len: usize = block.iter().product();
    sums.iter().map(|s| s / len as f64).collect()
}

struct Setup {
    fields: Vec<Field>,
    /// `(item field, partner field)`; the last field is a partner only.
    items: Vec<(usize, usize)>,
}

fn setup(seed: u64) -> Setup {
    let s2 = Settings::new(vec![8, 8]).expect("2-D settings");
    let s3 = Settings::new(vec![4, 4, 4]).expect("3-D settings");
    let [t, r, c] = VOLUME;
    let raw: Vec<(&'static str, NdArray<f64>, &Settings)> = vec![
        (
            "smooth",
            gen::smooth(SIDE, SIDE, &mut gen::rng(seed, 1)),
            &s2,
        ),
        (
            "noise",
            gen::white_noise(vec![SIDE, SIDE], &mut gen::rng(seed, 2)),
            &s2,
        ),
        (
            "clustered",
            gen::clustered(SIDE, SIDE, &mut gen::rng(seed, 3)),
            &s2,
        ),
        (
            "spiky",
            gen::spiky_series(t, r, c, &mut gen::rng(seed, 4)),
            &s3,
        ),
        (
            "spiky",
            gen::spiky_series(t, r, c, &mut gen::rng(seed, 5)),
            &s3,
        ),
    ];
    let fields = raw
        .into_iter()
        .map(|(kind, data, settings)| Field {
            kind,
            compressed: compress::<f32, i16>(&data, settings).expect("set-up compress"),
            summary: Summary::of(data.as_slice()),
            block_means: block_means(&data, settings.block_shape.as_slice()),
            settings: settings.clone(),
            data,
        })
        .collect();
    Setup {
        fields,
        items: vec![(0, 1), (1, 2), (2, 0), (3, 4)],
    }
}

/// Everything one field's work items produced.
struct Out {
    compressed: C,
    stream: Vec<u8>,
    restored: C,
    arrays: [C; 4],
    scalars: [f64; 8],
    decompressed: NdArray<f64>,
}

/// Work items per field and round: the codec round trip, then one per
/// operation.
pub const ITEMS_PER_FIELD: usize = 1 + OPS.len();

/// Times one work item: a root span around one call into a layer.
struct Items<'t> {
    tr: &'t mut Tracer,
    id: u64,
    secs: Vec<f64>,
}

impl Items<'_> {
    fn op<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let root = self.tr.open("field.op", None, self.id);
        let t0 = Instant::now();
        let r = self.tr.span(name, root, self.id, f);
        self.secs.push(t0.elapsed().as_secs_f64());
        self.tr.close(root);
        self.id += 1;
        r
    }
}

/// One field's work items, timed: the codec round trip (`compress` →
/// `to_bytes` → `from_bytes` → `decompress`), then each Table I
/// operation against the partner `b`. Returns the outputs and each
/// item's time; spans cost nothing when the tracer is off.
fn pipeline(f: &Field, b: &C, tr: &mut Tracer, id: u64) -> (Result<Out, String>, Vec<f64>) {
    let mut it = Items {
        tr,
        id,
        secs: Vec::with_capacity(ITEMS_PER_FIELD),
    };
    let out = run_items(f, b, &mut it);
    (out, it.secs)
}

fn run_items(f: &Field, b: &C, it: &mut Items) -> Result<Out, String> {
    let (tr, id) = (&mut *it.tr, it.id);
    let root = tr.open("field.codec", None, id);
    let t0 = Instant::now();
    let compressed = tr
        .span("codec.compress", root, id, || {
            compress::<f32, i16>(black_box(&f.data), &f.settings)
        })
        .map_err(|e| format!("compress: {e}"))?;
    let stream = tr.span("serialize.to_bytes", root, id, || compressed.to_bytes());
    let a = tr
        .span("serialize.from_bytes", root, id, || {
            C::from_bytes(black_box(&stream))
        })
        .map_err(|e| format!("from_bytes: {e}"))?;
    let decompressed = tr.span("codec.decompress", root, id, || a.decompress());
    it.secs.push(t0.elapsed().as_secs_f64());
    tr.close(root);
    it.id += 1;

    let e = |op: &str, err: blazr::BlazError| format!("{op}: {err}");
    let add = it.op("ops.add", || a.add(b)).map_err(|x| e("add", x))?;
    let sub = it.op("ops.sub", || a.sub(b)).map_err(|x| e("sub", x))?;
    let adds = it
        .op("ops.add_scalar", || a.add_scalar(ADD_SCALAR))
        .map_err(|x| e("add_scalar", x))?;
    let muls = it.op("ops.mul_scalar", || a.mul_scalar(MUL_SCALAR));
    let dot = it.op("ops.dot", || a.dot(b)).map_err(|x| e("dot", x))?;
    let mean = it.op("ops.mean", || a.mean()).map_err(|x| e("mean", x))?;
    let var = it
        .op("ops.variance", || a.variance())
        .map_err(|x| e("variance", x))?;
    let cov = it
        .op("ops.covariance", || a.covariance(b))
        .map_err(|x| e("covariance", x))?;
    let l2 = it.op("ops.l2_norm", || a.l2_norm());
    let cos = it
        .op("ops.cosine_similarity", || a.cosine_similarity(b))
        .map_err(|x| e("cosine_similarity", x))?;
    let ssim = it
        .op("ops.ssim", || a.ssim(b, &SsimParams::default()))
        .map_err(|x| e("ssim", x))?;
    let wass = it
        .op("ops.wasserstein", || a.wasserstein(b, WASSERSTEIN_P))
        .map_err(|x| e("wasserstein", x))?;
    Ok(black_box(Out {
        compressed,
        stream,
        restored: a,
        arrays: [add, sub, adds, muls],
        scalars: [
            f64::from(dot),
            f64::from(mean),
            f64::from(var),
            f64::from(cov),
            f64::from(l2),
            f64::from(cos),
            f64::from(ssim),
            wass,
        ],
        decompressed,
    }))
}

fn fingerprint(o: &Out) -> Fingerprint {
    let mut fp = Fingerprint::default();
    fp.bytes(&o.stream);
    for c in [&o.compressed, &o.restored]
        .into_iter()
        .chain(o.arrays.iter())
    {
        for pair in c.biggest().chunks(2) {
            let lo = u64::from(pair[0].to_bits());
            let hi = pair.get(1).map_or(0, |v| u64::from(v.to_bits()));
            fp.word(lo | hi << 32);
        }
        for quad in c.indices().chunks(4) {
            let mut w = 0u64;
            for (k, v) in quad.iter().enumerate() {
                w |= u64::from(*v as u16) << (16 * k);
            }
            fp.word(w);
        }
    }
    for s in o.scalars {
        fp.word(s.to_bits());
    }
    for v in o.decompressed.as_slice() {
        fp.word(v.to_bits());
    }
    fp
}

/// A closed interval, for propagating bounds through SSIM and cosine.
#[derive(Clone, Copy)]
struct Iv(f64, f64);

impl Iv {
    fn around(x: f64, e: f64) -> Self {
        Iv(x - e, x + e)
    }
    fn add(self, o: Iv) -> Iv {
        Iv(self.0 + o.0, self.1 + o.1)
    }
    fn scale(self, k: f64) -> Iv {
        let (a, b) = (self.0 * k, self.1 * k);
        Iv(a.min(b), a.max(b))
    }
    fn mul(self, o: Iv) -> Iv {
        let p = [self.0 * o.0, self.0 * o.1, self.1 * o.0, self.1 * o.1];
        Iv(
            p.iter().copied().fold(f64::INFINITY, f64::min),
            p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    }
    fn sq(self) -> Iv {
        if self.0 <= 0.0 && self.1 >= 0.0 {
            Iv(0.0, (self.0 * self.0).max(self.1 * self.1))
        } else {
            self.mul(self)
        }
    }
    fn sqrt(self) -> Iv {
        Iv(self.0.max(0.0).sqrt(), self.1.max(0.0).sqrt())
    }
    /// `self / o`; `None` unless `o` is strictly positive.
    fn div(self, o: Iv) -> Option<Iv> {
        (o.0 > 0.0).then(|| self.mul(Iv(1.0 / o.1, 1.0 / o.0)))
    }
    /// Largest distance from `x` to an end of the interval.
    fn reach(self, x: f64) -> f64 {
        (x - self.0).abs().max((self.1 - x).abs())
    }
}

/// Error bounds of one operand: element L∞ and whole-array L2, the
/// library's binning bounds plus the f32 rounding allowance.
struct Operand<'a> {
    s: &'a Summary,
    linf: f64,
    l2: f64,
    blocks: usize,
    kept: usize,
}

impl<'a> Operand<'a> {
    fn of(c: &C, s: &'a Summary) -> Self {
        let e = c.error_bounds();
        Self {
            s,
            linf: e.linf + ROUNDING_ELEMS * U * s.amax,
            l2: e.l2 + ROUNDING_ELEMS * U * s.norm,
            blocks: c.block_count(),
            kept: c.kept_per_block(),
        }
    }
    /// γ for the block-then-blocks f32 sums the reductions perform.
    fn g(&self) -> f64 {
        gamma(self.kept + self.blocks + 8)
    }
    fn mean_err(&self) -> f64 {
        self.linf.min(self.l2 / self.s.n.sqrt())
            + gamma(self.blocks + 8) * (self.s.amax + self.linf)
    }
    fn var_err(&self) -> f64 {
        let (n, l2) = (self.s.n, self.l2);
        let comp = (2.0 * (n * self.s.var).sqrt() * l2 + l2 * l2) / n;
        let hat_sq = (self.s.norm + l2).powi(2) / n;
        comp + self.g() * (hat_sq + (self.s.amax + self.linf).powi(2))
    }
    fn norm_err(&self) -> f64 {
        self.l2 + self.g() * (self.s.norm + self.l2)
    }
}

fn dot_err(a: &Operand, b: &Operand) -> f64 {
    a.s.norm * b.l2 + b.s.norm * a.l2 + a.l2 * b.l2 + a.g() * (a.s.norm + a.l2) * (b.s.norm + b.l2)
}

fn cov_err(a: &Operand, b: &Operand) -> f64 {
    let n = a.s.n;
    let (da, db) = ((n * a.s.var).sqrt(), (n * b.s.var).sqrt());
    let comp = (da * b.l2 + db * a.l2 + a.l2 * b.l2) / n;
    comp + a.g()
        * ((a.s.norm + a.l2) * (b.s.norm + b.l2) / n + (a.s.amax + a.linf) * (b.s.amax + b.linf))
}

/// Exact answers and error bounds of the eight scalar operations, in
/// `Out::scalars` order.
fn scalar_truth(f: &Field, p: &Field, a: &Operand, b: &Operand) -> [(f64, f64); 8] {
    let (x, y) = (f.data.as_slice(), p.data.as_slice());
    let n = a.s.n;
    let dot: f64 = x.iter().zip(y).map(|(u, v)| u * v).sum();
    let cov: f64 = x
        .iter()
        .zip(y)
        .map(|(u, v)| (u - a.s.mean) * (v - b.s.mean))
        .sum::<f64>()
        / n;
    let cos = dot / (a.s.norm * b.s.norm);
    let dot_iv = Iv::around(dot, dot_err(a, b));
    let norms_iv = Iv::around(a.s.norm, a.norm_err()).mul(Iv::around(b.s.norm, b.norm_err()));
    let cos_err = dot_iv
        .div(norms_iv)
        .map_or(f64::INFINITY, |iv| iv.reach(cos))
        + 8.0 * U;

    // SSIM (Algorithm 12) over intervals of its five inputs.
    let sp = SsimParams::default();
    let ssim_of = |ma: Iv, mb: Iv, va: Iv, vb: Iv, cv: Iv| -> Option<Iv> {
        let (sl, sc) = (
            Iv(sp.luminance_stabilizer, sp.luminance_stabilizer),
            Iv(sp.contrast_stabilizer, sp.contrast_stabilizer),
        );
        let half = sc.scale(0.5);
        let (sa, sb) = (va.sqrt(), vb.sqrt());
        let l = ma
            .mul(mb)
            .scale(2.0)
            .add(sl)
            .div(ma.sq().add(mb.sq()).add(sl))?;
        let c = sa.mul(sb).scale(2.0).add(sc).div(va.add(vb).add(sc))?;
        let s = cv.add(half).div(sa.mul(sb).add(half))?;
        Some(l.mul(c).mul(s))
    };
    let exact = |v: f64| Iv(v, v);
    let ssim = ssim_of(
        exact(a.s.mean),
        exact(b.s.mean),
        exact(a.s.var),
        exact(b.s.var),
        exact(cov),
    )
    .expect("positive SSIM denominators")
    .0;
    let ssim_err = ssim_of(
        Iv::around(a.s.mean, a.mean_err()),
        Iv::around(b.s.mean, b.mean_err()),
        Iv::around(a.s.var, a.var_err()),
        Iv::around(b.s.var, b.var_err()),
        Iv::around(cov, cov_err(a, b)),
    )
    .map_or(f64::INFINITY, |iv| iv.reach(ssim))
        + 64.0 * U * (1.0 + ssim.abs());

    // Wasserstein on block means: softmax probabilities move by at most
    // a factor e^{±2δ} when every block mean moves by at most δ, and the
    // sorted power mean is 1-Lipschitz in the largest probability change.
    let wass = wasserstein_1d(&f.block_means, &p.block_means, WASSERSTEIN_P);
    let shift = |bm: &[f64], linf: f64| -> f64 {
        let sum: f64 = bm.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            let mx = bm.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let z: f64 = bm.iter().map(|v| (v - mx).exp()).sum();
            (1.0 / z) * ((2.0 * linf).exp() - 1.0)
        } else {
            linf
        }
    };
    let wass_err =
        shift(&f.block_means, a.linf) + shift(&p.block_means, b.linf) + 1e-9 * wass + 1e-15;

    [
        (dot, dot_err(a, b)),
        (a.s.mean, a.mean_err()),
        (a.s.var, a.var_err()),
        (cov, cov_err(a, b)),
        (a.s.norm, a.norm_err()),
        (cos, cos_err),
        (ssim, ssim_err),
        (wass, wass_err),
    ]
}

/// Largest `|got − truth|` over elements, with `truth` computed per
/// element from the two originals.
fn max_elem_err(got: &NdArray<f64>, x: &[f64], y: &[f64], truth: impl Fn(f64, f64) -> f64) -> f64 {
    got.as_slice()
        .iter()
        .zip(x.iter().zip(y))
        .fold(0.0, |m, (g, (u, v))| m.max((g - truth(*u, *v)).abs()))
}

/// Ratio of each op's error to its bound (Table I order), and the
/// decompression error over the field's range.
struct Checked {
    over_bound: [f64; 12],
    linf_rel: f64,
}

/// Checks one item's outputs against uncompressed truth.
fn check_truth(f: &Field, p: &Field, o: &Out) -> Result<Checked, String> {
    if o.restored != o.compressed {
        return Err("from_bytes(to_bytes(c)) != c".into());
    }
    let a = Operand::of(&o.restored, &f.summary);
    let b = Operand::of(&p.compressed, &p.summary);
    let (x, y) = (f.data.as_slice(), p.data.as_slice());
    let mut over = [0.0; 12];

    let dec_err = max_elem_err(&o.decompressed, x, x, |u, _| u);
    if dec_err > a.linf {
        return Err(format!("decompress error {dec_err:e} > bound {:e}", a.linf));
    }
    let rebin = |c: &C, scale: f64| c.error_bounds().linf + ROUNDING_ELEMS * U * scale;
    let (am, bm) = (a.s.amax, b.s.amax);
    let array_checks: [(f64, f64); 4] = [
        (
            max_elem_err(&o.arrays[0].decompress(), x, y, |u, v| u + v),
            a.linf + b.linf + rebin(&o.arrays[0], am + bm),
        ),
        (
            max_elem_err(&o.arrays[1].decompress(), x, y, |u, v| u - v),
            a.linf + b.linf + rebin(&o.arrays[1], am + bm),
        ),
        (
            max_elem_err(&o.arrays[2].decompress(), x, x, |u, _| u + ADD_SCALAR),
            a.linf + rebin(&o.arrays[2], am + ADD_SCALAR.abs()),
        ),
        (
            max_elem_err(&o.arrays[3].decompress(), x, x, |u, _| u * MUL_SCALAR),
            MUL_SCALAR.abs() * a.linf + ROUNDING_ELEMS * U * MUL_SCALAR.abs() * (am + a.linf),
        ),
    ];
    let scalar_checks = scalar_truth(f, p, &a, &b)
        .into_iter()
        .zip(o.scalars)
        .map(|((truth, bound), got)| ((got - truth).abs(), bound));
    for (k, (err, bound)) in array_checks.into_iter().chain(scalar_checks).enumerate() {
        over[k] = err / bound;
        if err.is_nan() || err > bound {
            return Err(format!("{} error {err:e} exceeds bound {bound:e}", OPS[k]));
        }
    }
    Ok(Checked {
        over_bound: over,
        linf_rel: dec_err / (f.summary.max - f.summary.min),
    })
}

/// Indices the rANS coder escapes to raw storage (0 for fixed-width
/// streams), counted from the public histogram and symbol table.
fn escapes(o: &Out) -> u64 {
    if peek_coder(&o.stream) != Some(Coder::Rans) {
        return 0;
    }
    let hist = Histogram::of(o.restored.indices());
    let table = SymbolTable::optimize(&hist);
    hist.counts
        .iter()
        .filter(|(v, _)| table.vals.binary_search(v).is_err())
        .map(|(_, c)| c)
        .sum()
}

/// Per-item results of one measured phase.
#[derive(Default)]
struct Phase {
    item_s: Vec<f64>,
    /// Summed item time of each round.
    round_s: Vec<f64>,
    rounds: usize,
}

/// Runs whole rounds (every item once) until `budget` has passed, or
/// exactly `rounds` rounds when given; checks every output against the
/// checked round's fingerprints.
fn measure(
    s: &Setup,
    prints: &[Fingerprint],
    budget: Duration,
    rounds: Option<usize>,
    tr: &mut Tracer,
    r: &mut Report,
) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    let mut id = 0u64;
    loop {
        let done = match rounds {
            Some(n) => ph.rounds >= n,
            None => ph.rounds > 0 && start.elapsed() >= budget,
        };
        if done {
            break;
        }
        let mut round_s = 0.0;
        for (k, &(fi, pi)) in s.items.iter().enumerate() {
            let f = &s.fields[fi];
            let (out, secs) = pipeline(f, &s.fields[pi].compressed, tr, id);
            r.attempted += ITEMS_PER_FIELD as u64;
            round_s += secs.iter().sum::<f64>();
            ph.item_s.extend(&secs);
            let outcome = match out {
                Ok(o) if fingerprint(&o) == prints[k] => Ok(()),
                Ok(_) => Err("output differs from the checked round".to_string()),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(()) => {
                    for t in secs {
                        if t > LATENCY_LIMIT.as_secs_f64() {
                            r.late(format!("{} field: an item took {t} s", f.kind));
                        }
                    }
                }
                Err(e) => {
                    for _ in 0..ITEMS_PER_FIELD {
                        r.wrong(format!("items {id}.. ({} field): {e}", f.kind));
                    }
                }
            }
            id += ITEMS_PER_FIELD as u64;
        }
        ph.round_s.push(round_s);
        ph.rounds += 1;
    }
    ph
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::new("field-analysis");
    let (s, setup_times) = repeat_setup(|| setup(args.seed), drop);

    // Checked round: untimed, every answer against uncompressed truth.
    let mut prints = Vec::new();
    let mut over = [0.0f64; 12];
    let mut linf_rel = 0.0f64;
    let mut escaped = 0u64;
    let mut stream_bits = vec![0.0; s.items.len()];
    let mut off = Tracer::new(false, Instant::now());
    for (k, &(fi, pi)) in s.items.iter().enumerate() {
        let (f, p) = (&s.fields[fi], &s.fields[pi]);
        r.attempted += ITEMS_PER_FIELD as u64;
        match pipeline(f, &p.compressed, &mut off, 0)
            .0
            .and_then(|o| Ok((check_truth(f, p, &o)?, o)))
        {
            Ok((c, o)) => {
                for (m, v) in over.iter_mut().zip(c.over_bound) {
                    *m = m.max(v);
                }
                linf_rel = linf_rel.max(c.linf_rel);
                escaped += escapes(&o);
                stream_bits[k] = 8.0 * o.stream.len() as f64;
                prints.push(fingerprint(&o));
            }
            Err(e) => {
                for _ in 0..ITEMS_PER_FIELD {
                    r.wrong(format!("checked round, {} field: {e}", f.kind));
                }
                prints.push(Fingerprint::default());
            }
        }
    }

    let ph = measure(&s, &prints, args.phase(), None, &mut off, &mut r);
    // Rates use the median round, so a slow stretch of the run does not
    // move them.
    let round_s = stats::median(&ph.round_s);
    let elems_per_round: f64 = s
        .items
        .iter()
        .map(|&(fi, _)| s.fields[fi].data.len() as f64)
        .sum();
    let n = ph.item_s.len() as u64;
    put_common(&mut r, &setup_times);
    r.put(
        "throughput_melem_s",
        elems_per_round / round_s / 1e6,
        "Melem/s",
        ph.rounds as u64,
    );
    r.put(
        "bits_per_value",
        stream_bits.iter().sum::<f64>() / elems_per_round,
        "bits",
        s.items.len() as u64,
    );
    r.put("error_linf_rel", linf_rel, "ratio", s.items.len() as u64);
    r.put("latency_p50_ms", 1e3 * stats::median(&ph.item_s), "ms", n);
    r.put(
        "latency_p99_ms",
        1e3 * stats::quantile(&ph.item_s, 0.99),
        "ms",
        n,
    );

    if args.trace {
        traced(args, &s, &prints, &ph, &mut r);
        for (k, op) in OPS.iter().enumerate() {
            r.put(
                format!("ops.{op}.error_over_bound"),
                over[k],
                "ratio",
                s.items.len() as u64,
            );
        }
        let items = s.items.len() as f64;
        r.put(
            "coder.escapes",
            escaped as f64 / items,
            "count/item",
            s.items.len() as u64,
        );
        for (k, &(fi, _)) in s.items.iter().enumerate() {
            let f = &s.fields[fi];
            r.put(
                format!("serialize.bits_per_value.{}", f.kind),
                stream_bits[k] / f.data.len() as f64,
                "bits",
                1,
            );
        }
        // Computed from array sizes (not measured): compress reads the
        // f64 input and writes i16 indices plus one f32 per block;
        // decompress reads those and writes f64.
        let (elems, bytes) = s.items.iter().fold((0.0, 0.0), |(e, b), &(fi, _)| {
            let f = &s.fields[fi];
            let n = f.data.len() as f64;
            let compressed = 2.0 * n + 4.0 * f.compressed.block_count() as f64;
            (e + n, b + 2.0 * (8.0 * n + compressed))
        });
        r.put(
            "codec.bytes_moved_per_elem",
            bytes / elems,
            "B",
            s.items.len() as u64,
        );
    }
    r
}

/// The traced run: the same rounds again with spans and library counters
/// on, then the 1- vs 2-thread comparison of a large compress.
fn traced(args: &Args, s: &Setup, prints: &[Fingerprint], untraced: &Phase, r: &mut Report) {
    use blazr_telemetry as tel;
    let origin = Instant::now();
    let mut tr = Tracer::new(true, origin);
    tel::registry().reset();
    tel::set_mode(tel::Mode::Counters);
    let ph = measure(s, prints, Duration::ZERO, Some(untraced.rounds), &mut tr, r);
    tel::set_mode(tel::Mode::Off);
    let snap = tel::registry().snapshot();
    let items = ph.item_s.len() as u64;
    let per_item = |name: &str| snap.counter(name).unwrap_or(0) as f64 / items as f64;
    for name in [
        "codec.compress.blocks",
        "coder.rans_decodes",
        "coder.table_builds",
        "rayon.parallel_calls",
        "rayon.tasks",
        "rayon.steals",
    ] {
        r.put(name, per_item(name), "count/item", items);
    }
    let spans = tr.spans();
    let field_of =
        |item: u64| &s.fields[s.items[(item as usize / ITEMS_PER_FIELD) % s.items.len()].0];
    for kind in ["smooth", "noise", "clustered", "spiky"] {
        let of_kind = |item: u64| field_of(item).kind == kind;
        let len = s
            .fields
            .iter()
            .find(|f| f.kind == kind)
            .map_or(0, |f| f.data.len()) as f64;
        for (span, metric) in [
            ("codec.compress", "codec.compress_melem_s"),
            ("codec.decompress", "codec.decompress_melem_s"),
            ("serialize.to_bytes", "serialize.to_bytes_melem_s"),
            ("serialize.from_bytes", "serialize.from_bytes_melem_s"),
        ] {
            let (ns, n) = total_ns(spans, span, of_kind);
            r.put(
                format!("{metric}.{kind}"),
                n as f64 * len / ns as f64 * 1e3,
                "Melem/s",
                n,
            );
        }
    }
    for op in OPS {
        let (ns, n) = total_ns(spans, &format!("ops.{op}"), |_| true);
        r.put(format!("ops.{op}_ms"), ns as f64 / n as f64 / 1e6, "ms", n);
    }
    put_breakdown(r, &tr, untraced.item_s.iter().sum(), ph.item_s.iter().sum());
    if let Err(e) =
        tr.write_jsonl(&crate::out_dir().join(format!("spans-field-analysis-{}.jsonl", args.seed)))
    {
        eprintln!("field-analysis: could not write spans: {e}");
    }

    let big = &s.fields[0];
    let speedup = speedup_2t(7, || {
        black_box(compress::<f32, i16>(&big.data, &big.settings).expect("compress"));
    });
    r.put("rayon.speedup_2t.compress_large", speedup, "ratio", 7);
}
