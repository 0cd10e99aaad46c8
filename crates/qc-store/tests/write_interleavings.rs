//! Write-path interleaving suite: random interleavings of `update_many`,
//! `update_at`, `remove`, and `cool_down` (demotion), run over **all
//! three store engines**, on an unwindowed and on a windowed store.
//!
//! The invariants, checked against a shadow model:
//!
//! 1. **Exact weight conservation** — after every op, each key's
//!    resident weight (every window, sealed or active) equals exactly the
//!    weight written to it since its last removal, whatever mix of
//!    shared-path and exclusive-path writes delivered it and however many
//!    tier migrations and window rolls happened in between.
//! 2. **Removal isolation** — a removed key's successor holds only the
//!    weight written after the removal.
//! 3. **Counter exactness** — once the store is idle,
//!    `StoreStats::updates` equals the weight ever handed to the store
//!    (removal discards resident weight, not counter history; batches
//!    dropped beyond the lateness bound count nowhere), every batch is
//!    attributed to exactly one of `shared_writes`/`fallback_writes`, and
//!    `stream_len` equals the model's resident total.

use std::time::Duration;

use proptest::prelude::*;
use qc_common::Summary;
use qc_store::{
    ConcurrentEngine, SequentialEngine, SketchStore, StoreConfig, StoreEngine, TieredEngine,
    WindowConfig,
};

const KEYS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Level-0 window width: window id == whole seconds of event time.
const WIDTH_MS: u64 = 1000;
/// Lateness bound, in windows.
const LATENESS: u64 = 4;
/// Window ids drawn by `update_at`; all stay inside the retention horizon
/// (64 windows), so no sealed window is ever evicted.
const WIDS: u64 = 48;

/// One step of the interleaving.
#[derive(Clone, Debug)]
enum Op {
    /// `update_many`: the key's active window.
    Update { key: usize, n: u64 },
    /// `update_at` with an event time in window `wid`: rolls the key
    /// forward, hits its active window, merges late, or is dropped.
    UpdateAt { key: usize, wid: u64, n: u64 },
    /// Remove the key; its weight is discarded.
    Remove { key: usize },
    /// A housekeeping sweep: closes epochs, demotes idle hot keys, drops
    /// idle pool handles, downsamples sealed windows.
    CoolDown,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weight the mix toward writes by decoding a discriminant range (the
    // vendored proptest's `prop_oneof!` is unweighted): 0-3 `update_many`,
    // 4-7 `update_at`, 8 remove, 9-10 cool-down.
    (0u8..11, 0usize..KEYS.len(), 0u64..WIDS, 1u64..200).prop_map(
        |(kind, key, wid, n)| match kind {
            0..=3 => Op::Update { key, n },
            4..=7 => Op::UpdateAt { key, wid, n },
            8 => Op::Remove { key },
            _ => Op::CoolDown,
        },
    )
}

fn cfg(seed: u64, windowed: bool) -> StoreConfig {
    // A low promotion threshold so random interleavings cross tiers both
    // ways many times; 2 stripes so keys collide.
    let cfg = StoreConfig::default()
        .stripes(2)
        .k(64)
        .b(4)
        .seed(seed)
        .promotion_threshold(64)
        .writer_pool(4);
    if !windowed {
        return cfg;
    }
    cfg.window(
        WindowConfig::default()
            .width(Duration::from_millis(WIDTH_MS))
            .downsample_levels(2)
            .retention(Duration::from_secs(64))
            .lateness(Duration::from_secs(LATENESS)),
    )
}

/// A key's resident weight across every window it holds.
fn weight_of<E: StoreEngine<f64>>(store: &SketchStore<f64, E>, key: &str) -> u64 {
    match store.window_snapshot(key) {
        Some(snapshot) => snapshot.total_weight(),
        None => store.summary_of(key).map_or(0, |s| s.stream_len()),
    }
}

/// The model's view of one key: resident weight and, on a windowed
/// store, the active window id. `None` while the key is absent.
type KeyModel = Option<(u64, u64)>;

/// Run one op sequence over one engine type, checking the shadow model
/// after every step.
fn run_ops<E: StoreEngine<f64>>(
    ops: &[Op],
    seed: u64,
    windowed: bool,
) -> Result<(), TestCaseError> {
    let store = SketchStore::<f64, E>::with_engine(cfg(seed, windowed));
    let engine = std::any::type_name::<E>();
    let mut model: [KeyModel; KEYS.len()] = [None; KEYS.len()];
    let (mut written, mut batches, mut late_drops) = (0u64, 0u64, 0u64);
    let mut x = 0.0f64;
    let mut batch = |n: u64| -> Vec<f64> {
        (0..n)
            .map(|_| {
                x += 1.0;
                x
            })
            .collect()
    };

    for op in ops {
        match *op {
            Op::Update { key, n } => {
                store.update_many(KEYS[key], &batch(n));
                let (weight, active) = model[key].unwrap_or((0, 0));
                model[key] = Some((weight + n, active));
                written += n;
                batches += 1;
            }
            Op::UpdateAt { key, wid, n } => {
                store.update_at(KEYS[key], wid * WIDTH_MS + 1, &batch(n));
                let wid = if windowed { wid } else { 0 };
                let (weight, active) = model[key].unwrap_or((0, wid));
                if wid + LATENESS < active {
                    // Beyond the lateness bound: dropped, never written.
                    late_drops += 1;
                } else {
                    model[key] = Some((weight + n, active.max(wid)));
                    written += n;
                    batches += 1;
                }
            }
            Op::Remove { key } => {
                prop_assert_eq!(store.remove(KEYS[key]), model[key].is_some());
                model[key] = None;
            }
            Op::CoolDown => {
                store.cool_down();
            }
        }

        // Invariant 1 (and 2): per-key weight exact after every op.
        for (i, key) in KEYS.iter().enumerate() {
            let (weight, active) = model[i].unwrap_or((0, 0));
            prop_assert_eq!(
                weight_of(&store, key),
                weight,
                "key {} diverged after {:?} (engine {}, windowed {})",
                key,
                op,
                engine,
                windowed
            );
            if let (true, Some(snapshot)) = (model[i].is_some(), store.window_snapshot(key)) {
                prop_assert_eq!(snapshot.active_id, active, "key {} active window", key);
            }
        }
    }

    // Invariant 3: counters exact once the store is idle.
    let stats = store.stats();
    prop_assert_eq!(stats.updates, written, "updates must count every element once");
    prop_assert_eq!(stats.shared_writes + stats.fallback_writes, batches);
    prop_assert_eq!(stats.window_late_drops, late_drops);
    prop_assert_eq!(stats.stream_len, model.iter().flatten().map(|(w, _)| w).sum::<u64>());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleavings_conserve_weight_across_all_engines(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in 1u64..1000,
    ) {
        for windowed in [false, true] {
            run_ops::<SequentialEngine>(&ops, seed, windowed)?;
            run_ops::<ConcurrentEngine>(&ops, seed, windowed)?;
            run_ops::<TieredEngine>(&ops, seed, windowed)?;
        }
    }
}

/// The deterministic core of invariant 2: a hot key written through the
/// shared path is removed and re-created; the successor holds exactly the
/// post-removal weight and none of the old values.
#[test]
fn removed_key_successor_holds_only_new_weight() {
    let store = SketchStore::new(cfg(42, false));
    store.update_many("k", &(0..100).map(f64::from).collect::<Vec<_>>());
    store.update_many("k", &[999.0; 50]);
    assert!(store.stats().shared_writes >= 1, "the hot key took the shared path");

    assert!(store.remove("k"));
    store.update_many("k", &(0..100).map(f64::from).collect::<Vec<_>>());
    store.update_many("k", &(100..200).map(f64::from).collect::<Vec<_>>());
    assert_eq!(store.summary_of("k").unwrap().stream_len(), 200);
    assert_eq!(store.rank("k", 500.0), Some(1.0), "no 999.0 survived into the successor");
    let stats = store.stats();
    assert_eq!(stats.updates, 350);
    assert_eq!(stats.stream_len, 200);
}

/// Demotion counterpart: cool-down demotes a hot key written through the
/// shared path; the weight stays exact, and the key keeps serving through
/// both paths afterwards.
#[test]
fn demotion_conserves_weight_and_keeps_serving() {
    let store = SketchStore::new(cfg(43, false));
    store.update_many("k", &(0..100).map(f64::from).collect::<Vec<_>>());
    store.update_many("k", &(100..150).map(f64::from).collect::<Vec<_>>());
    assert_eq!(store.stats().shared_writes, 1);

    // First sweep closes the busy epoch, second demotes.
    assert_eq!(store.cool_down(), 0);
    assert_eq!(store.cool_down(), 1);
    assert_eq!(store.stats().hot_keys, 0);
    assert_eq!(store.summary_of("k").unwrap().stream_len(), 150);

    store.update_many("k", &(150..250).map(f64::from).collect::<Vec<_>>());
    store.update_many("k", &(250..300).map(f64::from).collect::<Vec<_>>());
    assert_eq!(store.summary_of("k").unwrap().stream_len(), 300);
    let stats = store.stats();
    assert_eq!(stats.updates, 300);
    assert_eq!(stats.stream_len, 300);
    assert_eq!(stats.shared_writes, 2, "re-promoted key takes the shared path again");
}
