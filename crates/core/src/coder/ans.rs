//! Tabled range-ANS encoding of bin-index pieces.
//!
//! The coder is a 64-bit-state, 32-bit-renormalizing rANS with **two
//! interleaved states**: symbol `j` is coded by state `j & 1`, which
//! breaks the serial dependency chain in the decoder's hot loop.
//! Encoding runs over the piece's symbols in *reverse* order (rANS is a
//! stack), both states emitting into one word list; the list is then
//! reversed so the decoder — which walks symbols forward — consumes
//! renormalization words in exactly the reverse order the encoder
//! produced them. Values absent from the symbol table are coded through
//! the escape slot range and their raw `I::BITS` bits are appended, in
//! forward symbol order, after the word section.
//!
//! Pieces (`BLOCKS_PER_PIECE` blocks each, as in the fixed-width
//! serializer) are encoded independently and spliced in piece order, so
//! serialized bytes are bit-identical at any thread count.

use super::histogram::{SymbolTable, SCALE, SCALE_BITS};
use crate::BinIndex;

/// Lower bound of the normalized state interval `[L, L·2^32)`.
pub(crate) const RANS_L: u64 = 1 << 31;

/// Encoder-side symbol-id marker for "not in the table" (escape).
pub(crate) const ESCAPE: u16 = u16::MAX;

/// Value → symbol-id lookup. Narrow index types index a dense array over
/// the whole value space, borrowed from per-thread scratch; wide ones
/// binary-search the sorted table values.
enum Lookup {
    Dense(DenseIds),
    Sparse(Vec<i64>),
}

/// Widest index type the dense lookup serves. Narrower values, taken
/// modulo 2^16, land on distinct slots too, so one array serves them all.
const DENSE_BITS: u32 = 16;
const DENSE_MASK: u64 = (1 << DENSE_BITS) - 1;

std::thread_local! {
    /// Spare dense id array, all [`ESCAPE`] while it sits here.
    static DENSE_IDS: std::cell::Cell<Option<Vec<u16>>> = const { std::cell::Cell::new(None) };
}

/// A dense value → id array for one table, taken from this thread's
/// spare. Building it sets one entry per table symbol; dropping it resets
/// exactly those entries to [`ESCAPE`] and hands the array back, so a
/// table costs O(symbols), not O(2^16), to build and discard.
struct DenseIds {
    ids: Vec<u16>,
    /// Slots set by this table.
    set: Vec<usize>,
}

impl DenseIds {
    fn new(vals: &[i64]) -> Self {
        let ids = DENSE_IDS
            .try_with(|slot| slot.take())
            .ok()
            .flatten()
            .unwrap_or_else(|| vec![ESCAPE; 1 << DENSE_BITS]);
        let mut dense = Self {
            ids,
            set: Vec::with_capacity(vals.len()),
        };
        for (id, &v) in vals.iter().enumerate() {
            let slot = (v as u64 & DENSE_MASK) as usize;
            dense.set.push(slot);
            dense.ids[slot] = id as u16;
        }
        dense
    }

    #[inline]
    fn get(&self, v: i64) -> u16 {
        self.ids[(v as u64 & DENSE_MASK) as usize]
    }
}

impl Drop for DenseIds {
    fn drop(&mut self) {
        for &slot in &self.set {
            self.ids[slot] = ESCAPE;
        }
        let ids = std::mem::take(&mut self.ids);
        // During thread teardown the slot may be gone; the array is then
        // simply freed.
        let _ = DENSE_IDS.try_with(|slot| slot.set(Some(ids)));
    }
}

/// Encoder view of a [`SymbolTable`]: per-symbol `(freq, cum)` rows plus
/// the value lookup.
pub(crate) struct EncTable {
    freqs: Vec<u32>,
    cums: Vec<u32>,
    esc_freq: u32,
    esc_cum: u32,
    lookup: Lookup,
}

impl EncTable {
    /// Builds the encoder table for index type `I`.
    pub(crate) fn new<I: BinIndex>(t: &SymbolTable) -> Self {
        let lookup = if I::BITS <= DENSE_BITS {
            Lookup::Dense(DenseIds::new(&t.vals))
        } else {
            Lookup::Sparse(t.vals.clone())
        };
        Self {
            freqs: t.freqs.clone(),
            cums: t.cums.clone(),
            esc_freq: t.esc_freq,
            esc_cum: t.esc_cum,
            lookup,
        }
    }

    /// The symbol id of `v`, or [`ESCAPE`].
    #[inline]
    fn sym_id<I: BinIndex>(&self, v: I) -> u16 {
        match &self.lookup {
            Lookup::Dense(ids) => ids.get(v.to_i64()),
            Lookup::Sparse(vals) => match vals.binary_search(&v.to_i64()) {
                Ok(i) => i as u16,
                Err(_) => ESCAPE,
            },
        }
    }
}

/// Encodes one piece. Returns the renormalization words in *decoder*
/// order (state flush first) and the escaped values in forward symbol
/// order.
pub(crate) fn encode_piece<I: BinIndex>(indices: &[I], t: &EncTable) -> (Vec<u32>, Vec<I>) {
    let mut escapes: Vec<I> = Vec::new();
    for &v in indices {
        if t.sym_id(v) == ESCAPE {
            escapes.push(v);
        }
    }
    let mut x = [RANS_L; 2];
    let mut words: Vec<u32> = Vec::with_capacity(indices.len() / 2 + 4);
    for (j, &v) in indices.iter().enumerate().rev() {
        let id = t.sym_id(v);
        let (f, c) = if id == ESCAPE {
            (t.esc_freq as u64, t.esc_cum as u64)
        } else {
            (t.freqs[id as usize] as u64, t.cums[id as usize] as u64)
        };
        debug_assert!(f > 0, "table covers every occurring value");
        let s = &mut x[j & 1];
        // Renormalize down so the post-encode state stays in [L, L·2^32).
        let x_max = ((RANS_L >> SCALE_BITS) << 32) * f;
        while *s >= x_max {
            words.push(*s as u32);
            *s >>= 32;
        }
        *s = (*s / f) * SCALE as u64 + (*s % f) + c;
    }
    // Flush x1 then x0, each low word first: after the global reverse the
    // decoder reads x0-high, x0-low, x1-high, x1-low.
    for s in [x[1], x[0]] {
        words.push(s as u32);
        words.push((s >> 32) as u32);
    }
    words.reverse();
    (words, escapes)
}

#[cfg(test)]
mod tests {
    use super::super::batch_decode::{decode_piece, DecTable};
    use super::super::histogram::Histogram;
    use super::*;
    use blazr_util::rng::Xoshiro256pp;

    fn roundtrip<I: BinIndex>(indices: &[I]) {
        let hist = Histogram::of(indices);
        let table = SymbolTable::optimize(&hist);
        let enc = EncTable::new::<I>(&table);
        let (words, escapes) = encode_piece(indices, &enc);
        let mut w = blazr_util::bits::BitWriter::new();
        for &word in &words {
            w.write_u32(word);
        }
        let emask = if I::BITS == 64 {
            u64::MAX
        } else {
            (1u64 << I::BITS) - 1
        };
        for &v in &escapes {
            w.write_bits(v.to_i64() as u64 & emask, I::BITS);
        }
        let bytes = w.into_bytes();
        let dec = DecTable::<I>::new(&table);
        let got = decode_piece(&bytes, 0, words.len(), escapes.len(), indices.len(), &dec).unwrap();
        assert_eq!(got, indices);
    }

    /// Every value of `I` maps to its table position, or to [`ESCAPE`]
    /// when absent.
    fn check_lookup<I: BinIndex>(enc: &EncTable, vals: &[i64]) {
        let lo = -(1i64 << (I::BITS - 1));
        for v in lo..-lo {
            let want = match vals.binary_search(&v) {
                Ok(i) => i as u16,
                Err(_) => ESCAPE,
            };
            assert_eq!(enc.sym_id(I::from_i64(v)), want, "value {v}");
        }
    }

    fn table_of<I: BinIndex>(vals: &[i64]) -> SymbolTable {
        let data: Vec<I> = vals.iter().flat_map(|&v| [I::from_i64(v); 3]).collect();
        SymbolTable::optimize(&Histogram::of(&data))
    }

    #[test]
    fn dense_lookup_maps_every_value_to_its_symbol_or_escape() {
        // Tables built one after another on one thread reuse the scratch;
        // a value of an earlier table must read as ESCAPE in a later one.
        let first = [-128i64, -3, 0, 5, 127];
        let second = [-2i64, 1, 4, 126];
        for vals in [&first[..], &second[..], &[][..]] {
            let t = table_of::<i8>(vals);
            assert_eq!(t.vals, vals);
            check_lookup::<i8>(&EncTable::new::<i8>(&t), vals);
        }
        let wide = [-32768i64, -300, -1, 0, 2, 255, 256, 32767];
        let t16 = table_of::<i16>(&wide);
        // Two live tables on one thread stay independent.
        let a = EncTable::new::<i16>(&t16);
        let b = EncTable::new::<i16>(&table_of::<i16>(&second));
        check_lookup::<i16>(&a, &wide);
        check_lookup::<i16>(&b, &second);
        drop((a, b));
        check_lookup::<i16>(&EncTable::new::<i16>(&table_of::<i16>(&first)), &first);
    }

    #[test]
    fn skewed_stream_roundtrips() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let data: Vec<i16> = (0..10_000)
            .map(|_| {
                // Two-sided geometric-ish: mostly near zero.
                let r = rng.next_u64();
                let mag = (r & 0xFF).trailing_ones() as i64 * 3;
                if r & 0x100 == 0 {
                    mag as i16
                } else {
                    -mag as i16
                }
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn single_symbol_stream_emits_only_the_flush() {
        let data = vec![5i8; 4096];
        let hist = Histogram::of(&data);
        let table = SymbolTable::optimize(&hist);
        let enc = EncTable::new::<i8>(&table);
        let (words, escapes) = encode_piece(&data, &enc);
        assert_eq!(words.len(), 4, "f == SCALE never renormalizes");
        assert!(escapes.is_empty());
        roundtrip(&data);
    }

    #[test]
    fn escape_heavy_stream_roundtrips() {
        // Every value distinct: everything escapes.
        let data: Vec<i32> = (0..3000).map(|v| v * 7 - 10_000).collect();
        roundtrip(&data);
        // Mixed: a dominant value plus a unique tail.
        let mut mixed: Vec<i16> = vec![-2; 5000];
        mixed.extend((0..500).map(|v| (v * 13 % 30_000) as i16));
        roundtrip(&mixed);
    }

    #[test]
    fn wide_types_use_the_sparse_lookup() {
        let mut data: Vec<i64> = Vec::new();
        for v in [-1i64 << 40, -5, 0, 3, 1 << 50] {
            data.extend(vec![v; 100 + (v & 0xF) as usize]);
        }
        roundtrip(&data);
    }

    #[test]
    fn empty_piece_is_just_the_flush() {
        let data: Vec<i16> = Vec::new();
        let hist = Histogram::of(&data);
        let table = SymbolTable::optimize(&hist);
        let enc = EncTable::new::<i16>(&table);
        let (words, escapes) = encode_piece(&data, &enc);
        assert_eq!(words.len(), 4);
        assert!(escapes.is_empty());
    }

    #[test]
    fn negative_values_roundtrip_across_widths() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let d8: Vec<i8> = (0..2000)
            .map(|_| (rng.range(0, 21) as i64 - 10) as i8)
            .collect();
        roundtrip(&d8);
        let d64: Vec<i64> = (0..2000)
            .map(|_| (rng.range(0, 5) as i64 - 2) * (1 << 33))
            .collect();
        roundtrip(&d64);
    }
}
