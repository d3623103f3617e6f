//! Telemetry contract tests: counters are **exact** (not sampled) at any
//! thread count, and instrumentation is **observation-only** — serialized
//! bytes are bit-identical whether telemetry is off, counting, or timing
//! spans, at 1/2/4/8 threads.
//!
//! The telemetry mode and registry are process-global, so every test
//! serializes on one mutex and leaves the mode at `Off` on exit.

use std::sync::{Mutex, MutexGuard};

use blazr::{compress, CompressedArray, Settings};
use blazr_store::{Aggregate, Predicate, Query, Store, StoreWriter};
use blazr_telemetry as tel;
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

static TEST_MUTEX: Mutex<()> = Mutex::new(());

/// Serialize tests sharing the global registry/mode; reset both on entry.
fn exclusive() -> MutexGuard<'static, ()> {
    let guard = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
    tel::set_mode(tel::Mode::Off);
    tel::registry().reset();
    guard
}

fn with_threads<R>(n: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
        .install(op)
}

fn random_array(shape: &[usize], seed: u64) -> NdArray<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    NdArray::from_fn(shape.to_vec(), |_| rng.uniform_in(-1.0, 1.0))
}

/// `codec.compress.blocks` / `codec.decompress.blocks` count every block
/// exactly once, no matter how the work was split across threads.
#[test]
fn counters_exact_at_every_thread_count() {
    let _guard = exclusive();

    // Smooth field: compresses well, so serialization takes the rANS
    // path and the coder counters fire too. 256 blocks of 4x4.
    let a = NdArray::from_fn(vec![64, 64], |ix| {
        (ix[0] as f64 * 0.013).sin() + (ix[1] as f64 * 0.017).cos()
    });
    let settings = Settings::new(vec![4, 4]).unwrap();
    const BLOCKS: u64 = 256;

    for &threads in &THREAD_COUNTS {
        tel::registry().reset();
        tel::set_mode(tel::Mode::Counters);
        let c = with_threads(threads, || {
            let c = compress::<f32, i16>(&a, &settings).unwrap();
            std::hint::black_box(c.decompress());
            c
        });
        let bytes = c.to_bytes();
        tel::set_mode(tel::Mode::Off);

        let snap = tel::registry().snapshot();
        assert_eq!(
            snap.counter("codec.compress.blocks"),
            Some(BLOCKS),
            "compress block count drifted at {threads} threads"
        );
        assert_eq!(
            snap.counter("codec.decompress.blocks"),
            Some(BLOCKS),
            "decompress block count drifted at {threads} threads"
        );
        // The serializer counts every bin index it feeds the entropy
        // coder: one per kept coefficient per block.
        let symbols = snap.counter("coder.symbols").unwrap_or(0);
        assert_eq!(
            symbols % BLOCKS,
            0,
            "coder.symbols not a whole number of blocks at {threads} threads"
        );
        assert!(symbols > 0, "serializer recorded no symbols");
        drop(bytes);
    }
}

/// `to_bytes` builds the histogram and symbol table once, whether the
/// coder choice lands on rANS (the table is reused by the writer) or on
/// fixed width; forcing rANS builds exactly one too.
#[test]
fn one_table_build_per_to_bytes() {
    let _guard = exclusive();

    let smooth = NdArray::from_fn(vec![64, 64], |ix| {
        (ix[0] as f64 * 0.013).sin() + (ix[1] as f64 * 0.017).cos()
    });
    let settings = Settings::new(vec![4, 4]).unwrap();
    let rans = compress::<f32, i16>(&smooth, &settings).unwrap();
    let fixed = compress::<f32, i16>(&random_array(&[64, 64], 44), &settings).unwrap();
    assert_eq!(rans.choose_coder(), blazr::Coder::Rans);
    assert_eq!(fixed.choose_coder(), blazr::Coder::FixedWidth);

    let builds = |op: &dyn Fn()| {
        tel::registry().reset();
        tel::set_mode(tel::Mode::Counters);
        op();
        tel::set_mode(tel::Mode::Off);
        tel::registry()
            .snapshot()
            .counter("coder.table_builds")
            .unwrap_or(0)
    };
    for calls in [1u64, 3] {
        let each = || (0..calls).for_each(|_| drop(rans.to_bytes()));
        assert_eq!(builds(&each), calls, "rANS-chosen to_bytes");
        let each = || (0..calls).for_each(|_| drop(fixed.to_bytes()));
        assert_eq!(builds(&each), calls, "fixed-chosen to_bytes");
        let each = || (0..calls).for_each(|_| drop(rans.to_bytes_with(blazr::Coder::Rans)));
        assert_eq!(builds(&each), calls, "forced-rANS to_bytes_with");
    }
}

/// Multi-thread teams route through the shim engine and record pool
/// activity; a single-thread team never touches it.
#[test]
fn rayon_counters_track_pool_activity() {
    let _guard = exclusive();

    let a = random_array(&[64, 64], 43);
    let settings = Settings::new(vec![4, 4]).unwrap();

    tel::set_mode(tel::Mode::Counters);
    with_threads(4, || {
        std::hint::black_box(compress::<f32, i16>(&a, &settings).unwrap());
    });
    tel::set_mode(tel::Mode::Off);
    let snap = tel::registry().snapshot();
    let calls = snap.counter("rayon.parallel_calls").unwrap_or(0);
    let tasks = snap.counter("rayon.tasks").unwrap_or(0);
    assert!(calls >= 1, "4-thread compress never hit the pool engine");
    assert!(
        tasks >= calls,
        "every parallel call splits into at least one piece"
    );

    tel::registry().reset();
    tel::set_mode(tel::Mode::Counters);
    with_threads(1, || {
        std::hint::black_box(compress::<f32, i16>(&a, &settings).unwrap());
    });
    tel::set_mode(tel::Mode::Off);
    let snap = tel::registry().snapshot();
    assert_eq!(
        snap.counter("rayon.parallel_calls").unwrap_or(0),
        0,
        "single-thread team must take the sequential path"
    );
}

/// The determinism contract extended to telemetry: with spans, with
/// counters, or with everything off, the serialized bytes are identical
/// at every thread count. Instrumentation observes; it never steers.
#[test]
fn serialized_bytes_identical_with_telemetry_on_or_off() {
    let _guard = exclusive();

    let a = random_array(&[37, 41], 47); // padded tails in both dims
    let settings = Settings::new(vec![4, 4]).unwrap();

    tel::set_mode(tel::Mode::Off);
    let reference = with_threads(1, || {
        compress::<f32, i16>(&a, &settings).unwrap().to_bytes()
    });

    for &threads in &THREAD_COUNTS {
        for mode in [tel::Mode::Off, tel::Mode::Counters, tel::Mode::Spans] {
            tel::set_mode(mode);
            let bytes = with_threads(threads, || {
                compress::<f32, i16>(&a, &settings).unwrap().to_bytes()
            });
            tel::set_mode(tel::Mode::Off);
            assert_eq!(
                bytes,
                reference,
                "bytes diverged at {threads} threads with telemetry {}",
                mode.name()
            );
            // And the bytes decode back identically too.
            let c = CompressedArray::<f32, i16>::from_bytes(&bytes).unwrap();
            assert_eq!(c.to_bytes(), reference);
        }
    }
}

/// Store counters reconcile exactly with the query result's own pruning
/// stats, and the result itself is unchanged by telemetry.
#[test]
fn store_counters_match_query_results() {
    let _guard = exclusive();

    let path =
        std::env::temp_dir().join(format!("blazr-telemetry-test-{}.blzs", std::process::id()));
    let mut w = StoreWriter::create(
        &path,
        Settings::new(vec![4, 4]).unwrap(),
        blazr::ScalarType::F32,
        blazr::IndexType::I16,
    )
    .unwrap();
    // Chunk t has values in [t, t+2): a value predicate prunes most.
    for t in 0..8u64 {
        let frame = NdArray::from_fn(vec![8, 8], |i| t as f64 + (i[0] + i[1]) as f64 / 14.0 * 2.0);
        w.append(t, &frame).unwrap();
    }
    w.finish().unwrap();

    let q = Query {
        from_label: 0,
        to_label: 7,
        predicate: Some(Predicate::ValueInRange { lo: 2.5, hi: 4.5 }),
        aggregate: Aggregate::Sum,
    };

    tel::set_mode(tel::Mode::Off);
    let store = Store::open(&path).unwrap();
    let quiet = store.query(&q).unwrap();
    drop(store);

    tel::registry().reset();
    tel::set_mode(tel::Mode::Counters);
    let store = Store::open(&path).unwrap();
    let loud = store.query(&q).unwrap();
    tel::set_mode(tel::Mode::Off);

    assert_eq!(loud, quiet, "telemetry changed a query result");
    assert!(loud.chunks_pruned > 0, "predicate should prune some chunks");
    assert_eq!(
        loud.chunks_pruned + loud.chunks_scanned,
        loud.chunks_in_range
    );

    let snap = tel::registry().snapshot();
    assert_eq!(snap.counter("store.queries"), Some(1));
    assert_eq!(
        snap.counter("store.chunks_pruned"),
        Some(loud.chunks_pruned as u64)
    );
    assert_eq!(
        snap.counter("store.chunks_scanned"),
        Some(loud.chunks_scanned as u64)
    );
    assert_eq!(
        snap.counter("store.query.payload_bytes"),
        Some(loud.payload_bytes_read)
    );
    // Lazy checksums: only scanned chunks get verified, each at most once.
    let verified = snap.counter("store.checksum.verified").unwrap_or(0);
    assert!(verified <= loud.chunks_scanned as u64);
    assert_eq!(snap.counter("store.checksum.failed").unwrap_or(0), 0);

    std::fs::remove_file(&path).ok();
}

/// Snapshot export round-trips the recorded names into both formats.
#[test]
fn snapshot_exports_contain_recorded_metrics() {
    let _guard = exclusive();

    let a = random_array(&[16, 16], 53);
    let settings = Settings::new(vec![4, 4]).unwrap();
    tel::set_mode(tel::Mode::Spans);
    std::hint::black_box(compress::<f32, i16>(&a, &settings).unwrap());
    tel::set_mode(tel::Mode::Off);

    let snap = tel::registry().snapshot();
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    assert!(json.contains("\"codec.compress.blocks\""));
    assert!(json.contains("\"codec.compress\""));
    assert!(prom.contains("blazr_codec_compress_blocks_total"));
    assert!(prom.contains("quantile=\"0.99\""));
}
