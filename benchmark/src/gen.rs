//! Seeded input generators. The same seed gives the same inputs.
//!
//! The four field distributions follow the ones compression benchmarks
//! commonly sweep (smooth, white noise, clustered, spiky time series);
//! small 3-D frames come from the seedable fission series of
//! `blazr-datasets`.

use blazr_datasets::fission::{density_at, FissionConfig, TIME_STEPS};
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;
use std::f64::consts::TAU;

/// An independent generator for one purpose (`stream`) under `seed`.
pub fn rng(seed: u64, stream: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A smooth 2-D field: a sum of four separable sinusoids with fixed
/// frequencies (1.5 to 5 periods across the field) and amplitudes
/// (1, 1/2, 1/3, 1/4) and seeded phases, so every seed gives a field of
/// the same smoothness.
pub fn smooth(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> NdArray<f64> {
    const PERIODS: [(f64, f64); 4] = [(1.5, 2.0), (2.5, 1.0), (3.5, 4.5), (5.0, 3.0)];
    let mut data = vec![0.0; rows * cols];
    for (k, (fr, fc)) in PERIODS.iter().enumerate() {
        let amp = 1.0 / (k + 1) as f64;
        let (pr, pc) = (rng.uniform_in(0.0, TAU), rng.uniform_in(0.0, TAU));
        let row: Vec<f64> = (0..rows)
            .map(|i| amp * (TAU * fr * i as f64 / rows as f64 + pr).sin())
            .collect();
        let col: Vec<f64> = (0..cols)
            .map(|j| (TAU * fc * j as f64 / cols as f64 + pc).cos())
            .collect();
        for (i, r) in row.iter().enumerate() {
            for (d, c) in data[i * cols..(i + 1) * cols].iter_mut().zip(&col) {
                *d += r * c;
            }
        }
    }
    NdArray::from_vec(vec![rows, cols], data)
}

/// White noise, uniform in [-1, 1].
pub fn white_noise(shape: Vec<usize>, rng: &mut Xoshiro256pp) -> NdArray<f64> {
    let n = shape.iter().product();
    NdArray::from_vec(shape, (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect())
}

/// Clustered values: each 16×16 tile sits near one of four cluster
/// centres (-0.75, -0.25, 0.25, 0.75; seeded choice per tile), with
/// ±0.01 jitter per element.
pub fn clustered(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> NdArray<f64> {
    const TILE: usize = 16;
    let centres = [-0.75, -0.25, 0.25, 0.75];
    let tiles_c = cols.div_ceil(TILE);
    let tile_centre: Vec<f64> = (0..rows.div_ceil(TILE) * tiles_c)
        .map(|_| centres[rng.below(4) as usize])
        .collect();
    let mut data = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            let c = tile_centre[(i / TILE) * tiles_c + j / TILE];
            data.push(c + rng.uniform_in(-0.01, 0.01));
        }
    }
    NdArray::from_vec(vec![rows, cols], data)
}

/// A spiky time series of 2-D frames, shaped `[steps, rows, cols]`: a
/// smooth pattern oscillating in time (period 32 steps) with a slow
/// drift, plus sparse seeded spikes (about one element in 1024,
/// amplitude 2–5, either sign).
pub fn spiky_series(
    steps: usize,
    rows: usize,
    cols: usize,
    rng: &mut Xoshiro256pp,
) -> NdArray<f64> {
    let base = smooth(rows, cols, rng);
    let period = 32.0;
    let mut data = Vec::with_capacity(steps * rows * cols);
    for t in 0..steps {
        let w = (TAU * t as f64 / period).cos();
        let drift = 0.5 * t as f64 / steps as f64;
        for &b in base.as_slice() {
            let mut v = b * w + drift;
            if rng.below(1024) == 0 {
                let amp = rng.uniform_in(2.0, 5.0);
                v += if rng.below(2) == 0 { amp } else { -amp };
            }
            data.push(v);
        }
    }
    NdArray::from_vec(vec![steps, rows, cols], data)
}

/// A small 2-D frame for ingest: side lengths drawn from 64..=96 in
/// steps of 8; even frames are smooth, odd frames add Gaussian noise.
pub fn frame_2d(index: usize, rng: &mut Xoshiro256pp) -> NdArray<f64> {
    let rows = 64 + 8 * rng.below(5) as usize;
    let cols = 64 + 8 * rng.below(5) as usize;
    let mut f = smooth(rows, cols, rng);
    if index % 2 == 1 {
        for v in f.as_mut_slice() {
            *v += 0.2 * rng.normal();
        }
    }
    f
}

/// A small 3-D frame from the fission series: time step
/// `TIME_STEPS[k % 15]`, with the series' noise events seeded by `seed`,
/// cropped from 40×40×66 to 40×40×32 (400 KiB as f64) so that it stays
/// well inside L2 together with its compressed form.
pub fn frame_3d(k: usize, seed: u64) -> NdArray<f64> {
    let cfg = FissionConfig {
        seed: seed ^ k as u64,
        ..FissionConfig::default()
    };
    density_at(&cfg, TIME_STEPS[k % TIME_STEPS.len()]).crop(&[40, 40, 32])
}

/// A served frame (64×64): a smooth pattern plus noise, offset by
/// `0.2 · label` so that values drift with the label and zone maps can
/// prune value-range predicates.
pub fn drift_frame(label: u64, rng: &mut Xoshiro256pp) -> NdArray<f64> {
    let mut f = smooth(64, 64, rng);
    for v in f.as_mut_slice() {
        *v = 0.5 * *v + 0.2 * label as f64 + 0.05 * rng.normal();
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = clustered(40, 40, &mut rng(7, 1));
        let b = clustered(40, 40, &mut rng(7, 1));
        let c = clustered(40, 40, &mut rng(8, 1));
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
    }
}
