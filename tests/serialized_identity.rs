//! Serialized bytes are pinned: `to_bytes` (automatic coder choice) and
//! `to_bytes_with(Coder::Rans)` must reproduce, byte for byte, the
//! streams recorded when these digests were taken. The cases cover every
//! narrow and one wide index type (i8/i16/i32), a smooth field (skewed
//! histogram: rANS wins) and white noise (near-uniform: fixed width
//! wins), in 2-D (two rANS pieces) and 3-D.
//!
//! The thread-count suites only prove that bytes agree with each other;
//! this one proves they agree with a previous build, so any change to
//! the coder's setup (histogram, symbol table, lookup tables) that
//! alters a single output bit fails here. Inputs avoid transcendental
//! functions so they are bit-exact on every platform.
//!
//! On a mismatch the test prints every case's actual line, in the
//! `PINNED` format, before failing.

use blazr::{compress, BinIndex, Coder, CompressedArray, Settings};
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;

/// FNV-1a, 64-bit: a fixed, dependency-free digest of a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A smooth polynomial field in `[-1, 1]`-ish (exact IEEE arithmetic).
fn smooth(shape: &[usize]) -> NdArray<f64> {
    NdArray::from_fn(shape.to_vec(), |ix| {
        ix.iter()
            .zip(shape)
            .enumerate()
            .map(|(d, (&i, &n))| {
                let t = i as f64 / n as f64 - 0.5;
                (d + 1) as f64 * t * t - 0.3 * t
            })
            .product::<f64>()
            + 0.1
    })
}

/// Seeded white noise in `[-1, 1)`.
fn noise(shape: &[usize], seed: u64) -> NdArray<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    NdArray::from_fn(shape.to_vec(), |_| rng.uniform_in(-1.0, 1.0))
}

/// One case's observed line: name, automatic coder, then length and
/// FNV-1a digest of the automatic and of the forced-rANS stream.
fn observe<I: BinIndex>(name: &str, a: &NdArray<f64>, block: &[usize]) -> String {
    let settings = Settings::new(block.to_vec()).unwrap();
    let c: CompressedArray<f32, I> = compress(a, &settings).unwrap();
    let auto = c.to_bytes();
    let rans = c.to_bytes_with(Coder::Rans);
    format!(
        "{name} {} {} {:016x} {} {:016x}",
        c.choose_coder(),
        auto.len(),
        fnv1a(&auto),
        rans.len(),
        fnv1a(&rans)
    )
}

/// Expected lines, recorded from the serializer before its per-chunk
/// coder setup was reworked. A change that alters one changes the
/// stream format.
const PINNED: &[&str] = &[
    "i8/smooth/2d rans 3491 970bc13162036177 3491 970bc13162036177",
    "i8/smooth/3d rans 1103 284a4c0c92f922b8 1103 284a4c0c92f922b8",
    "i8/noise/2d fixed 11544 1ec90182e7cf5682 11838 dc5d87b6bf847871",
    "i8/noise/3d fixed 6866 b76878924067c632 7196 050e77cc1cf27fa0",
    "i16/smooth/2d rans 9512 5c125bdcf3e587b6 9512 5c125bdcf3e587b6",
    "i16/smooth/3d rans 5722 745707b24bc24aee 5722 745707b24bc24aee",
    "i16/noise/2d fixed 20744 5b639f966387b74c 20812 b10e3d1d0cd39380",
    "i16/noise/3d fixed 13266 e0cb963defc96fd8 13896 a57654186b1eaeb2",
    "i32/smooth/2d rans 36728 e900dde7970c2f02 36728 e900dde7970c2f02",
    "i32/smooth/3d rans 25829 56fe4002d3066c2c 25829 56fe4002d3066c2c",
    "i32/noise/2d rans 37359 795cf918c4d921b2 37359 795cf918c4d921b2",
    "i32/noise/3d rans 25805 d1360e0670d4da63 25805 d1360e0670d4da63",
];

fn observed() -> Vec<String> {
    let (s2, s3) = ([100usize, 90], [20usize, 18, 16]);
    let (b2, b3) = ([4usize, 4], [4usize, 4, 4]);
    let (smooth2, smooth3) = (smooth(&s2), smooth(&s3));
    let (noise2, noise3) = (noise(&s2, 5), noise(&s3, 6));
    vec![
        observe::<i8>("i8/smooth/2d", &smooth2, &b2),
        observe::<i8>("i8/smooth/3d", &smooth3, &b3),
        observe::<i8>("i8/noise/2d", &noise2, &b2),
        observe::<i8>("i8/noise/3d", &noise3, &b3),
        observe::<i16>("i16/smooth/2d", &smooth2, &b2),
        observe::<i16>("i16/smooth/3d", &smooth3, &b3),
        observe::<i16>("i16/noise/2d", &noise2, &b2),
        observe::<i16>("i16/noise/3d", &noise3, &b3),
        observe::<i32>("i32/smooth/2d", &smooth2, &b2),
        observe::<i32>("i32/smooth/3d", &smooth3, &b3),
        observe::<i32>("i32/noise/2d", &noise2, &b2),
        observe::<i32>("i32/noise/3d", &noise3, &b3),
    ]
}

/// Runs `op` under an explicitly sized thread pool.
fn with_threads<R>(n: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
        .install(op)
}

#[test]
fn serialized_bytes_match_pinned_digests() {
    for threads in [1, 2, 4] {
        check(&with_threads(threads, observed), threads);
    }
}

fn check(got: &[String], threads: usize) {
    if got != PINNED {
        for line in got {
            println!("    {line:?},");
        }
    }
    assert_eq!(
        got, PINNED,
        "serialized bytes differ from the pinned digests at {threads} threads"
    );
}

#[test]
fn pinned_cases_cover_both_coder_choices() {
    for coder in [Coder::Rans, Coder::FixedWidth] {
        let tag = format!(" {coder} ");
        assert!(PINNED.iter().any(|p| p.contains(&tag)), "no {coder} case");
    }
}
