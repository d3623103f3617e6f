//! Criterion micro-benchmarks for the core codec: compression and
//! decompression across array sizes, precisions, and index widths, and
//! the fixed-width vs rANS serialization layouts.

use blazr::{compress, Coder, CompressedArray, Settings};
use blazr_precision::F16;
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn random_2d(n: usize) -> NdArray<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(n as u64);
    NdArray::from_fn(vec![n, n], |_| rng.uniform())
}

fn bench_compress_sizes(c: &mut Criterion) {
    let settings = Settings::new(vec![8, 8]).unwrap();
    let mut g = c.benchmark_group("compress/f32-i16");
    g.sample_size(10);
    for n in [64usize, 256, 1024] {
        let a = random_2d(n);
        g.throughput(Throughput::Elements((n * n) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &a, |b, a| {
            b.iter(|| compress::<f32, i16>(a, &settings).unwrap());
        });
    }
    g.finish();
}

fn bench_decompress_sizes(c: &mut Criterion) {
    let settings = Settings::new(vec![8, 8]).unwrap();
    let mut g = c.benchmark_group("decompress/f32-i16");
    g.sample_size(10);
    for n in [64usize, 256, 1024] {
        let a = random_2d(n);
        let compressed: CompressedArray<f32, i16> = compress(&a, &settings).unwrap();
        g.throughput(Throughput::Elements((n * n) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &compressed, |b, c| {
            b.iter(|| c.decompress());
        });
    }
    g.finish();
}

fn bench_precisions(c: &mut Criterion) {
    let settings = Settings::new(vec![8, 8]).unwrap();
    let a = random_2d(256);
    let mut g = c.benchmark_group("compress/precision");
    g.sample_size(10);
    g.bench_function("f64", |b| {
        b.iter(|| compress::<f64, i16>(&a, &settings).unwrap())
    });
    g.bench_function("f32", |b| {
        b.iter(|| compress::<f32, i16>(&a, &settings).unwrap())
    });
    g.bench_function("f16-software", |b| {
        b.iter(|| compress::<F16, i16>(&a, &settings).unwrap())
    });
    g.finish();
}

fn bench_serialization(c: &mut Criterion) {
    let settings = Settings::new(vec![8, 8]).unwrap();
    let a = random_2d(512);
    let compressed: CompressedArray<f32, i8> = compress(&a, &settings).unwrap();
    let bytes = compressed.to_bytes();
    let mut g = c.benchmark_group("serialize");
    g.sample_size(10);
    g.throughput(Throughput::Elements((512 * 512) as u64));
    g.bench_function("to_bytes", |b| b.iter(|| compressed.to_bytes()));
    g.bench_function("from_bytes", |b| {
        b.iter(|| CompressedArray::<f32, i8>::from_bytes(&bytes).unwrap())
    });
    g.finish();
}

/// A smooth field so the bin histogram is skewed and the rANS coder
/// does real entropy-coding work (random data would degenerate to the
/// fixed-width fallback regime).
fn smooth_2d(n: usize) -> NdArray<f64> {
    NdArray::from_fn(vec![n, n], |ix| {
        (ix[0] as f64 * 0.013).sin() + (ix[1] as f64 * 0.017).cos()
    })
}

fn bench_coders(c: &mut Criterion) {
    let settings = Settings::new(vec![8, 8]).unwrap();
    let n = 1024usize;
    let a = smooth_2d(n);
    let compressed: CompressedArray<f32, i16> = compress(&a, &settings).unwrap();
    let mut g = c.benchmark_group("serialize/coder");
    g.sample_size(10);
    g.throughput(Throughput::Elements((n * n) as u64));
    for coder in Coder::ALL {
        let bytes = compressed.to_bytes_with(coder);
        g.bench_function(BenchmarkId::new("to_bytes", coder), |b| {
            b.iter(|| compressed.to_bytes_with(coder));
        });
        g.bench_function(BenchmarkId::new("from_bytes", coder), |b| {
            b.iter(|| CompressedArray::<f32, i16>::from_bytes(&bytes).unwrap());
        });
    }
    // A frame-sized chunk: at 64² the per-call coder setup (histogram,
    // symbol table, lookup) is a visible share of `to_bytes`, which the
    // 1024² cases above amortize away.
    let small_n = 64usize;
    let small: CompressedArray<f32, i16> = compress(&smooth_2d(small_n), &settings).unwrap();
    g.throughput(Throughput::Elements((small_n * small_n) as u64));
    g.bench_function(BenchmarkId::new("to_bytes/auto", small_n), |b| {
        b.iter(|| small.to_bytes());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_compress_sizes,
    bench_decompress_sizes,
    bench_precisions,
    bench_serialization,
    bench_coders
);
criterion_main!(benches);
