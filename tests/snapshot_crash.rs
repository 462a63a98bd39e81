//! Crash-safety suite for snapshot I/O: a save killed at **any**
//! injection point (`snapshot.write`, `snapshot.rename`) must leave the
//! directory loadable, and [`GraphHdModel::load_latest`] must always
//! recover exactly the last *successful* save. The byte-level half
//! proves the loader rejects every possible truncation with
//! [`SnapshotError::Truncated`] and every extension with
//! [`SnapshotError::TrailingBytes`] — no length is trusted before it is
//! bounds-checked.
//!
//! Fault plans are seeded and deterministic: each kill-loop scenario
//! sweeps seeds {1..5} (or the single seed CI's chaos matrix pins via
//! `GRAPHHD_FAULTS`).

use graphcore::Graph;
use graphhd::{Error, GraphHdConfig, GraphHdModel, SnapshotError};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Serializes every test in this file. A fault plan armed by one test
/// is process-wide, so without this another test's set-up (a clean
/// save, a model fit) or verification could run under it.
/// Poison-tolerant: one failed test must not fail the rest.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "graphhd-crash-{tag}-{}-{unique}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Two small models with provably different class vectors, so a load
/// can be attributed to exactly one save.
fn two_models() -> (GraphHdModel, GraphHdModel) {
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    let mut rng = prng::Xoshiro256PlusPlus::seed_from_u64(9);
    for i in 0..10 {
        let base = graphcore::generate::erdos_renyi(12, 0.25, &mut rng).expect("valid p");
        labels.push(u32::from(i % 2 == 0));
        graphs.push(if i % 2 == 0 {
            base
        } else {
            graphcore::generate::with_planted_triangles(&base, 3, &mut rng).expect("n >= 3")
        });
    }
    let refs: Vec<&Graph> = graphs.iter().collect();
    let fit = |seed: u64| {
        let config = GraphHdConfig::builder()
            .dim(256)
            .seed(seed)
            .build()
            .expect("valid dimension");
        GraphHdModel::fit(config, &refs, &labels, 2).expect("consistent inputs")
    };
    let (a, b) = (fit(1), fit(2));
    assert_ne!(
        a.class_vectors(),
        b.class_vectors(),
        "different seeds must produce distinguishable models"
    );
    (a, b)
}

fn seeds() -> Vec<u64> {
    match faultpoint::env_seed() {
        Some(seed) => vec![seed],
        None => (1..=5).collect(),
    }
}

fn leftover_temps(dir: &PathBuf) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("dir readable")
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp-"))
        .collect()
}

#[test]
fn a_save_killed_before_rename_preserves_the_previous_model() {
    let _serial = serial();
    let (model_a, model_b) = two_models();
    for point in ["snapshot.write", "snapshot.rename"] {
        let dir = temp_dir("kill-error");
        let v1 = model_a.save_version(&dir, 0).expect("clean save");
        assert_eq!(v1, 1);

        let guard = faultpoint::configure(&format!("seed=1;{point}=error")).expect("valid spec");
        let err = model_b.save_version(&dir, 0).expect_err("fault must fire");
        assert!(
            matches!(err, Error::Io { .. }),
            "injected error at {point}: {err:?}"
        );
        drop(guard);

        // The failed save changed nothing visible and cleaned its temp.
        let (loaded, version) = GraphHdModel::load_latest(&dir).expect("old model intact");
        assert_eq!(version, 1, "kill at {point}");
        assert_eq!(
            loaded.class_vectors(),
            model_a.class_vectors(),
            "kill at {point}"
        );
        assert_eq!(
            leftover_temps(&dir),
            Vec::<String>::new(),
            "kill at {point}"
        );

        // With faults gone the next save lands as v2 and wins.
        assert_eq!(model_b.save_version(&dir, 0).expect("clean save"), 2);
        let (loaded, version) = GraphHdModel::load_latest(&dir).expect("new model visible");
        assert_eq!(version, 2);
        assert_eq!(loaded.class_vectors(), model_b.class_vectors());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn a_save_killed_by_panic_preserves_the_previous_model() {
    let _serial = serial();
    let (model_a, model_b) = two_models();
    for point in ["snapshot.write", "snapshot.rename"] {
        let dir = temp_dir("kill-panic");
        model_a.save_version(&dir, 0).expect("clean save");

        let guard = faultpoint::configure(&format!("seed=1;{point}=panic")).expect("valid spec");
        let outcome = catch_unwind(AssertUnwindSafe(|| model_b.save_version(&dir, 0)));
        assert!(outcome.is_err(), "panic must escape the save at {point}");
        drop(guard);

        // A panic skips the error-path cleanup (a real crash would too);
        // recovery must succeed regardless of stray temp files.
        let (loaded, version) = GraphHdModel::load_latest(&dir).expect("old model intact");
        assert_eq!(version, 1, "kill at {point}");
        assert_eq!(
            loaded.class_vectors(),
            model_a.class_vectors(),
            "kill at {point}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn a_kill_loop_always_recovers_the_last_successful_save() {
    let _serial = serial();
    let (model_a, model_b) = two_models();
    for seed in seeds() {
        let dir = temp_dir("kill-loop");
        // Seed the directory before arming faults so there is always a
        // recoverable version.
        model_a.save_version(&dir, 3).expect("clean save");
        let mut latest = model_a.class_vectors().to_vec();

        let spec = format!("seed={seed};snapshot.write=40%error;snapshot.rename=30%panic");
        let guard = faultpoint::configure(&spec).expect("valid spec");
        for attempt in 0..12 {
            let model = if attempt % 2 == 0 { &model_b } else { &model_a };
            let outcome = catch_unwind(AssertUnwindSafe(|| model.save_version(&dir, 3)));
            if matches!(outcome, Ok(Ok(_))) {
                latest = model.class_vectors().to_vec();
            }
            // The invariant under fire: whatever just happened, the
            // directory loads, and it loads the last completed save.
            let (loaded, _) = GraphHdModel::load_latest(&dir)
                .expect("directory must stay loadable mid-crash-loop");
            assert_eq!(
                loaded.class_vectors(),
                &latest[..],
                "seed {seed}, attempt {attempt}"
            );
        }
        drop(guard);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Canonical snapshot bytes shared by the byte-surgery tests below.
fn canonical_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (model, _) = two_models();
        let mut bytes = Vec::new();
        model.save_to(&mut bytes).expect("vec write");
        bytes
    })
}

#[test]
fn truncation_at_every_byte_offset_reports_truncated() {
    let _serial = serial();
    let bytes = canonical_bytes();
    assert!(bytes.len() > 100, "snapshot large enough to be interesting");
    for cut in 0..bytes.len() {
        let err = GraphHdModel::load_from(&mut &bytes[..cut])
            .expect_err("a strict prefix can never be a whole snapshot");
        assert_eq!(
            err,
            Error::Snapshot(SnapshotError::Truncated),
            "cut at byte {cut} of {}",
            bytes.len()
        );
    }
}

#[test]
fn extension_by_any_suffix_reports_trailing_bytes() {
    let _serial = serial();
    let bytes = canonical_bytes();
    for extra in 1..=8usize {
        let mut extended = bytes.to_vec();
        extended.extend(std::iter::repeat_n(0xAB, extra));
        let err = GraphHdModel::load_from(&mut &extended[..])
            .expect_err("trailing bytes must be rejected");
        assert_eq!(
            err,
            Error::Snapshot(SnapshotError::TrailingBytes),
            "{extra} trailing bytes"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random re-checks of the exhaustive loops above, with arbitrary
    // junk contents rather than a fixed fill: the loader's verdict must
    // depend only on length, never on what the junk decodes as.
    #[test]
    fn random_truncations_and_junk_extensions_never_load(
        offset in any::<u16>(),
        junk in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let _serial = serial();
        let bytes = canonical_bytes();
        let cut = offset as usize % bytes.len();
        let err = GraphHdModel::load_from(&mut &bytes[..cut]).expect_err("prefix");
        prop_assert_eq!(err, Error::Snapshot(SnapshotError::Truncated));

        let mut extended = bytes.to_vec();
        extended.extend_from_slice(&junk);
        let err = GraphHdModel::load_from(&mut &extended[..]).expect_err("suffix");
        prop_assert_eq!(err, Error::Snapshot(SnapshotError::TrailingBytes));
    }
}
