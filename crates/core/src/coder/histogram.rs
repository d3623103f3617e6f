//! Deterministic bin-index histograms and their optimization into
//! bounded-size, power-of-two-total symbol tables.
//!
//! Everything here must be bit-deterministic: the table is serialized
//! into the stream, so any nondeterminism (hash-map iteration order, FPU
//! flags) would break the contract that serialized bytes are identical
//! at every thread count. Counting uses reusable per-thread dense
//! scratch for narrow index types and a sort for wide ones; frequency
//! quantization is largest-remainder with explicit tie-breaking; the
//! size estimate that drives automatic coder choice uses fixed-point
//! (not floating-point) logarithms.

use crate::BinIndex;

/// log2 of the quantized frequency total: slot space `M = 2^SCALE_BITS`.
/// 12 bits keeps the whole decode table (slot→symbol plus per-symbol
/// rows) inside L1 while quantization error stays ≪ the per-symbol
/// header cost.
pub const SCALE_BITS: u32 = 12;

/// The quantized frequency total `M` — frequencies always sum to this.
pub const SCALE: u32 = 1 << SCALE_BITS;

/// Upper bound on table symbols (excluding the escape). Rarer values
/// escape to raw fixed-width storage.
pub const MAX_TABLE_SYMS: usize = 256;

/// A bin-index histogram: `(value, count)` pairs in ascending value
/// order, plus the total count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Distinct index values and their occurrence counts, value-ascending.
    pub counts: Vec<(i64, u64)>,
    /// Total number of indices counted.
    pub total: u64,
}

impl Histogram {
    /// Counts `indices` deterministically. Narrow index types (≤ 16 bits)
    /// count into this thread's [`DenseCounts`] scratch, in
    /// O(indices + distinct values) per call; wide types sort a copy and
    /// run-length encode. No hash map (with its nondeterministic
    /// iteration order) is ever involved.
    pub fn of<I: BinIndex>(indices: &[I]) -> Self {
        let total = indices.len() as u64;
        // Dense counts are 32-bit; a longer input takes the sort path,
        // which yields the same histogram.
        let counts = if I::BITS <= 16 && total <= u32::MAX as u64 {
            DenseCounts::with(|dense| dense.count(indices))
        } else {
            let mut sorted: Vec<i64> = indices.iter().map(|v| v.to_i64()).collect();
            sorted.sort_unstable();
            let mut counts: Vec<(i64, u64)> = Vec::new();
            for v in sorted {
                match counts.last_mut() {
                    Some((last, c)) if *last == v => *c += 1,
                    _ => counts.push((v, 1)),
                }
            }
            counts
        };
        Self { counts, total }
    }
}

/// Widest index type the dense counting path serves.
const DENSE_BITS: u32 = 16;

/// Per-thread counting scratch for narrow index types: one count per
/// value of the widest narrow type, plus a bitmap of the slots touched.
/// Reading the counts out walks the bitmap in ascending slot order and
/// zeroes every word and count it reads, so the scratch is all-zero
/// between calls and a call never scans or clears the untouched value
/// space.
struct DenseCounts {
    counts: Vec<u32>,
    touched: Vec<u64>,
}

std::thread_local! {
    static DENSE_COUNTS: std::cell::Cell<Option<DenseCounts>> =
        const { std::cell::Cell::new(None) };
}

impl DenseCounts {
    /// Runs `f` on this thread's scratch, allocating it on first use.
    /// The scratch is taken out of its slot for the call: a nested call
    /// gets a fresh one, and a panic inside `f` drops it rather than
    /// leaving stale counts behind.
    fn with<R>(f: impl FnOnce(&mut Self) -> R) -> R {
        let mut dense = DENSE_COUNTS
            .try_with(|slot| slot.take())
            .ok()
            .flatten()
            .unwrap_or_else(|| Self {
                counts: vec![0; 1 << DENSE_BITS],
                touched: vec![0; (1 << DENSE_BITS) / 64],
            });
        let out = f(&mut dense);
        // During thread teardown the slot may be gone; the scratch is
        // then simply freed (and, above, a fresh one used).
        let _ = DENSE_COUNTS.try_with(|slot| slot.set(Some(dense)));
        out
    }

    /// Value-ascending `(value, count)` pairs of `indices`, leaving the
    /// scratch clean.
    fn count<I: BinIndex>(&mut self, indices: &[I]) -> Vec<(i64, u64)> {
        debug_assert!(I::BITS <= DENSE_BITS);
        // Two's-complement offset: value + 2^(B-1) ∈ [0, 2^B).
        let half = 1i64 << (I::BITS - 1);
        let counts = &mut self.counts[..1 << I::BITS];
        let touched = &mut self.touched[..(1usize << I::BITS).div_ceil(64)];
        for &v in indices {
            let slot = (v.to_i64() + half) as usize;
            let c = &mut counts[slot];
            // Only first sightings touch the bitmap: repeats, most of a
            // skewed chunk, update one array instead of two.
            if *c == 0 {
                touched[slot / 64] |= 1 << (slot % 64);
            }
            *c += 1;
        }
        let mut out = Vec::new();
        for (w, word) in touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push((slot as i64 - half, std::mem::take(&mut counts[slot]) as u64));
            }
        }
        out
    }
}

/// An optimized symbol table: at most [`MAX_TABLE_SYMS`] index values
/// with quantized frequencies summing (with the escape) to [`SCALE`].
/// The slot space `[0, SCALE)` is laid out as the table symbols'
/// cumulative ranges in ascending value order, with the escape range —
/// if any — at the top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolTable {
    /// Table symbol values, strictly ascending.
    pub vals: Vec<i64>,
    /// Quantized frequency of each table symbol (all ≥ 1).
    pub freqs: Vec<u32>,
    /// Cumulative frequency (slot range start) of each table symbol.
    pub cums: Vec<u32>,
    /// Escape frequency; 0 iff every occurring value is in the table.
    pub esc_freq: u32,
    /// Slot range start of the escape symbol (`SCALE - esc_freq`).
    pub esc_cum: u32,
}

impl SymbolTable {
    /// Builds the optimized table for a histogram: keep values frequent
    /// enough to earn a table row (count ≥ max(2, total/SCALE)), cap at
    /// [`MAX_TABLE_SYMS`] keeping the most frequent (ties broken toward
    /// smaller values), route everything else through the escape, and
    /// quantize the kept counts to sum to [`SCALE`] by largest
    /// remainder. Fully deterministic for a given histogram.
    pub fn optimize(hist: &Histogram) -> Self {
        let threshold = (hist.total >> SCALE_BITS).max(2);
        let mut cand: Vec<(i64, u64)> = hist
            .counts
            .iter()
            .copied()
            .filter(|&(_, c)| c >= threshold)
            .collect();
        if cand.len() > MAX_TABLE_SYMS {
            cand.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            cand.truncate(MAX_TABLE_SYMS);
            cand.sort_by_key(|&(v, _)| v);
        }
        let kept_total: u64 = cand.iter().map(|&(_, c)| c).sum();
        let escaped = hist.total - kept_total;
        if cand.is_empty() || hist.total == 0 {
            // Degenerate: no value earns a row (or nothing to code).
            // The whole slot space is escape; forced-Rans streams stay
            // decodable, automatic choice will never pick this.
            return Self {
                vals: Vec::new(),
                freqs: Vec::new(),
                cums: Vec::new(),
                esc_freq: SCALE,
                esc_cum: 0,
            };
        }
        let mut quant_in: Vec<u64> = cand.iter().map(|&(_, c)| c).collect();
        if escaped > 0 {
            quant_in.push(escaped);
        }
        let mut freqs = quantize_freqs(&quant_in, hist.total);
        let esc_freq = if escaped > 0 {
            freqs.pop().expect("escape slot present")
        } else {
            0
        };
        let vals: Vec<i64> = cand.iter().map(|&(v, _)| v).collect();
        let mut cums = Vec::with_capacity(freqs.len());
        let mut acc = 0u32;
        for &f in &freqs {
            cums.push(acc);
            acc += f;
        }
        debug_assert_eq!(acc + esc_freq, SCALE);
        Self {
            vals,
            freqs,
            cums,
            esc_freq,
            esc_cum: acc,
        }
    }

    /// Reassembles a table from deserialized parts, validating every
    /// invariant the decoder relies on (so corrupt streams fail here,
    /// not by out-of-bounds panics later). Values must be strictly
    /// ascending, frequencies ≥ 1, and the grand total exactly [`SCALE`].
    pub fn from_parts(vals: Vec<i64>, freqs: Vec<u32>, esc_freq: u32) -> Result<Self, String> {
        let mut t = Self {
            vals,
            freqs,
            cums: Vec::new(),
            esc_freq: 0,
            esc_cum: 0,
        };
        t.rebuild(esc_freq)?;
        Ok(t)
    }

    /// [`SymbolTable::from_parts`] in place: `vals`/`freqs` have already
    /// been filled (e.g. into a pooled scratch table) and this validates
    /// them and recomputes `cums`/`esc_cum` reusing their capacity — the
    /// steady-state decode loop rebuilds per-chunk tables without
    /// allocating. On error the table must not be used until a later
    /// `rebuild` succeeds.
    pub fn rebuild(&mut self, esc_freq: u32) -> Result<(), String> {
        if self.vals.len() != self.freqs.len() {
            return Err("symbol/frequency count mismatch".into());
        }
        if self.vals.len() > MAX_TABLE_SYMS {
            return Err(format!(
                "{} table symbols exceed {MAX_TABLE_SYMS}",
                self.vals.len()
            ));
        }
        if self.vals.windows(2).any(|w| w[0] >= w[1]) {
            return Err("table values not strictly ascending".into());
        }
        self.cums.clear();
        let mut acc: u64 = 0;
        for &f in &self.freqs {
            if f == 0 {
                return Err("zero table frequency".into());
            }
            self.cums.push(acc as u32);
            acc += f as u64;
        }
        if acc + esc_freq as u64 != SCALE as u64 {
            return Err(format!(
                "frequencies sum to {} (+{esc_freq} escape), expected {SCALE}",
                acc
            ));
        }
        self.esc_freq = esc_freq;
        self.esc_cum = acc as u32;
        Ok(())
    }

    /// Stream bits of the serialized table header for a given index
    /// width: symbol count, escape frequency, then one `(value, freq-1)`
    /// row per symbol.
    pub fn header_bits(&self, index_bits: u32) -> u64 {
        16 + 13 + self.vals.len() as u64 * (index_bits as u64 + SCALE_BITS as u64)
    }

    /// Estimated serialized size in bits of rANS-coding `hist` with this
    /// table, including the table header, per-piece headers and state
    /// flushes, and raw escape payloads. Integer arithmetic only (Q16
    /// fixed-point log2), so the automatic coder choice it drives is
    /// deterministic everywhere.
    pub fn estimated_bits(&self, hist: &Histogram, index_bits: u32, n_pieces: u64) -> u64 {
        const Q: u32 = 16;
        let scale_q = (SCALE_BITS as u128) << Q;
        let mut payload_q: u128 = 0;
        let mut cursor = 0usize;
        let mut escaped: u64 = 0;
        for &(v, c) in &hist.counts {
            // `vals` and `hist.counts` are both value-ascending: advance.
            while cursor < self.vals.len() && self.vals[cursor] < v {
                cursor += 1;
            }
            if cursor < self.vals.len() && self.vals[cursor] == v {
                let f = self.freqs[cursor];
                payload_q += c as u128 * (scale_q - freq_log2_q16(f) as u128);
            } else {
                escaped += c;
            }
        }
        if escaped > 0 {
            let esc_cost_q = scale_q - freq_log2_q16(self.esc_freq.max(1)) as u128;
            payload_q += escaped as u128 * (esc_cost_q + ((index_bits as u128) << Q));
        }
        let payload = (payload_q >> Q) as u64 + 1;
        // Per piece: 32+32-bit header plus the 128-bit two-state flush.
        payload + self.header_bits(index_bits) + n_pieces * (64 + 128)
    }
}

/// Quantizes positive counts (summing to `total`) to frequencies
/// summing exactly to [`SCALE`], each ≥ 1, by the largest-remainder
/// method. Ties break on the lower index; overshoot (from the ≥ 1
/// floor) is shaved off the largest frequencies first. Deterministic.
fn quantize_freqs(counts: &[u64], total: u64) -> Vec<u32> {
    debug_assert!(!counts.is_empty() && counts.len() <= SCALE as usize);
    let m = SCALE as u128;
    let mut freqs: Vec<u32> = Vec::with_capacity(counts.len());
    let mut rems: Vec<(u64, usize)> = Vec::with_capacity(counts.len());
    let mut sum: u64 = 0;
    for (i, &c) in counts.iter().enumerate() {
        let ideal = c as u128 * m;
        let base = (ideal / total as u128) as u64;
        let rem = (ideal % total as u128) as u64;
        let f = base.max(1) as u32;
        freqs.push(f);
        rems.push((rem, i));
        sum += f as u64;
    }
    if sum < SCALE as u64 {
        // Distribute the deficit to the largest remainders (deficit <
        // counts.len(), so one unit each suffices).
        rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut deficit = SCALE as u64 - sum;
        for &(_, i) in &rems {
            if deficit == 0 {
                break;
            }
            freqs[i] += 1;
            deficit -= 1;
        }
    } else {
        while sum > SCALE as u64 {
            // Shave the current maximum (first on ties) — it loses the
            // least relative precision. The ≥ 1 floor caused the
            // overshoot, so a > 1 frequency always exists.
            let (i, _) = freqs
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f > 1)
                .max_by_key(|&(i, &f)| (f, usize::MAX - i))
                .expect("sum exceeds symbol count, so some frequency > 1");
            freqs[i] -= 1;
            sum -= 1;
        }
    }
    debug_assert_eq!(freqs.iter().map(|&f| f as u64).sum::<u64>(), SCALE as u64);
    freqs
}

/// [`log2_q16`] of a quantized frequency `f ∈ [1, SCALE]`, from a table
/// filled once per process: the size estimate needs one per table symbol,
/// and 16 squarings each would rival the rest of the coder setup.
fn freq_log2_q16(f: u32) -> u64 {
    static TABLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..=SCALE as u64)
            .map(|x| log2_q16(x.max(1)) as u32)
            .collect()
    });
    table[f as usize] as u64
}

/// `floor(2^16 · log2(x))` for `x ≥ 1`, by iterated squaring on a
/// 64-bit mantissa — integer-only, so identical on every platform.
fn log2_q16(x: u64) -> u64 {
    debug_assert!(x >= 1);
    let ilog = 63 - x.leading_zeros();
    // Normalize to [2^63, 2^64), representing x / 2^ilog ∈ [1, 2).
    let mut m: u128 = (x as u128) << (63 - ilog);
    let mut frac: u64 = 0;
    for _ in 0..16 {
        m = (m * m) >> 63;
        frac <<= 1;
        if m >= 1 << 64 {
            frac |= 1;
            m >>= 1;
        }
    }
    ((ilog as u64) << 16) | frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_dense_and_sorted_paths_agree() {
        let narrow: Vec<i16> = vec![-3, 5, 5, 0, -3, 5, 7, 0, 0, 0];
        let wide: Vec<i32> = narrow.iter().map(|&v| v as i32).collect();
        let h16 = Histogram::of(&narrow);
        let h32 = Histogram::of(&wide);
        assert_eq!(h16.counts, vec![(-3, 2), (0, 4), (5, 3), (7, 1)]);
        assert_eq!(h16.counts, h32.counts);
        assert_eq!(h16.total, 10);
    }

    /// Sort-and-RLE reference histogram, independent of both paths.
    fn reference<I: BinIndex>(indices: &[I]) -> Histogram {
        let mut sorted: Vec<i64> = indices.iter().map(|v| v.to_i64()).collect();
        sorted.sort();
        let mut counts: Vec<(i64, u64)> = Vec::new();
        for chunk in sorted.chunk_by(|a, b| a == b) {
            counts.push((chunk[0], chunk.len() as u64));
        }
        Histogram {
            counts,
            total: indices.len() as u64,
        }
    }

    /// Narrow-path inputs: empty, one value, both type extremes, every
    /// value of the type, and seeded skewed/uniform mixes.
    fn narrow_cases<I: BinIndex>() -> Vec<Vec<I>> {
        let lo = -(1i64 << (I::BITS - 1));
        let hi = (1i64 << (I::BITS - 1)) - 1;
        let mut rng = blazr_util::rng::Xoshiro256pp::seed_from_u64(I::BITS as u64);
        let skewed: Vec<I> = (0..5000)
            .map(|_| {
                let r = rng.next_u64();
                let mag = (r & 0xFF).trailing_ones() as i64;
                I::from_i64(if r & 0x100 == 0 { mag } else { -mag })
            })
            .chain([I::from_i64(lo), I::from_i64(hi)])
            .collect();
        let uniform: Vec<I> = (0..5000)
            .map(|_| I::from_i64(rng.range(0, (hi - lo + 1) as usize) as i64 + lo))
            .collect();
        vec![
            Vec::new(),
            vec![I::from_i64(3)],
            vec![I::from_i64(-1); 17],
            vec![I::from_i64(lo), I::from_i64(hi), I::from_i64(lo)],
            (lo..=hi).rev().map(I::from_i64).collect(),
            skewed,
            uniform,
        ]
    }

    /// Every narrow case, twice in a row on the calling thread (the
    /// second pass sees whatever the first left in the scratch).
    fn check_narrow<I: BinIndex>() {
        let cases = narrow_cases::<I>();
        for _ in 0..2 {
            for case in &cases {
                assert_eq!(Histogram::of(case), reference(case), "{} bits", I::BITS);
            }
        }
    }

    #[test]
    fn narrow_histogram_matches_sort_reference() {
        check_narrow::<i8>();
        check_narrow::<i16>();
    }

    #[test]
    fn narrow_histogram_matches_reference_inside_rayon_pieces() {
        use rayon::prelude::*;
        for threads in [1, 2, 4, 8] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    (0..16usize).into_par_iter().for_each(|i| {
                        if i % 2 == 0 {
                            check_narrow::<i8>();
                        } else {
                            check_narrow::<i16>();
                        }
                    })
                });
        }
    }

    #[test]
    fn histogram_of_empty_is_empty() {
        let h = Histogram::of::<i16>(&[]);
        assert!(h.counts.is_empty());
        assert_eq!(h.total, 0);
    }

    #[test]
    fn quantized_frequencies_sum_to_scale() {
        for counts in [
            vec![1u64],
            vec![1, 1],
            vec![1_000_000, 3, 2],
            vec![7; 300],
            (1..=257).map(|v| v * v).collect::<Vec<u64>>(),
        ] {
            let total: u64 = counts.iter().sum();
            let freqs = quantize_freqs(&counts, total);
            assert_eq!(freqs.iter().map(|&f| f as u64).sum::<u64>(), SCALE as u64);
            assert!(freqs.iter().all(|&f| f >= 1));
        }
    }

    #[test]
    fn single_symbol_takes_the_whole_scale() {
        let hist = Histogram::of(&vec![0i16; 1000]);
        let t = SymbolTable::optimize(&hist);
        assert_eq!(t.vals, vec![0]);
        assert_eq!(t.freqs, vec![SCALE]);
        assert_eq!(t.esc_freq, 0);
    }

    #[test]
    fn rare_values_escape() {
        // 10_000 zeros and one each of 200 rare values: the rare tail is
        // below the count-2 threshold, so it escapes.
        let mut data: Vec<i16> = vec![0; 10_000];
        data.extend((1..=200).map(|v| v as i16));
        let hist = Histogram::of(&data);
        let t = SymbolTable::optimize(&hist);
        assert_eq!(t.vals, vec![0]);
        assert!(t.esc_freq >= 1);
        assert_eq!(
            t.freqs.iter().sum::<u32>() + t.esc_freq,
            SCALE,
            "slot space covered"
        );
    }

    #[test]
    fn table_caps_at_max_symbols_keeping_most_frequent() {
        // 400 distinct values; value v occurs v+2 times (all ≥ threshold).
        let mut data: Vec<i16> = Vec::new();
        for v in 0..400i64 {
            for _ in 0..v + 2 {
                data.push(v as i16);
            }
        }
        let hist = Histogram::of(&data);
        let t = SymbolTable::optimize(&hist);
        assert_eq!(t.vals.len(), MAX_TABLE_SYMS);
        // The most frequent 256 values are 144..400.
        assert_eq!(t.vals[0], 144);
        assert_eq!(*t.vals.last().unwrap(), 399);
        assert!(t.esc_freq >= 1);
    }

    #[test]
    fn from_parts_validates_invariants() {
        // A valid table round-trips.
        let hist = Histogram::of(&[0i16, 0, 0, 1, 1, 2, 2]);
        let t = SymbolTable::optimize(&hist);
        let back = SymbolTable::from_parts(t.vals.clone(), t.freqs.clone(), t.esc_freq).unwrap();
        assert_eq!(back, t);
        // Broken invariants are rejected.
        assert!(SymbolTable::from_parts(vec![1, 1], vec![SCALE / 2; 2], 0).is_err());
        assert!(SymbolTable::from_parts(vec![2, 1], vec![SCALE / 2; 2], 0).is_err());
        assert!(SymbolTable::from_parts(vec![0], vec![SCALE - 1], 2).is_err());
        assert!(SymbolTable::from_parts(vec![0], vec![0], SCALE).is_err());
        assert!(SymbolTable::from_parts(vec![0], vec![SCALE], 1).is_err());
    }

    #[test]
    fn log2_q16_brackets_true_log() {
        for x in [1u64, 2, 3, 5, 100, 4095, 4096, u32::MAX as u64, u64::MAX] {
            let got = log2_q16(x) as f64 / 65536.0;
            let want = (x as f64).log2();
            assert!((got - want).abs() < 1e-3, "x={x} got={got} want={want}");
        }
        assert_eq!(log2_q16(1), 0);
        assert_eq!(log2_q16(4096), 12 << 16);
        for f in 1..=SCALE {
            assert_eq!(freq_log2_q16(f), log2_q16(f as u64));
        }
    }

    #[test]
    fn skewed_estimate_beats_fixed_width() {
        // 90% zeros: the estimate must be far below 16 bits/symbol.
        let mut data: Vec<i16> = vec![0; 9000];
        data.extend(vec![7i16; 1000]);
        let hist = Histogram::of(&data);
        let t = SymbolTable::optimize(&hist);
        let est = t.estimated_bits(&hist, 16, 1);
        assert!(est < 16 * 10_000 / 4, "estimate {est} not ≪ fixed 160000");
    }
}
