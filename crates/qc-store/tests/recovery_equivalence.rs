//! The recovery-equivalence property: for ANY op sequence and ANY crash
//! point, recovering the durable prefix yields a store *byte-identical*
//! to one that simply executed that prefix and never crashed.
//!
//! This is the strongest statement the log can make — not "close", not
//! "same quantiles", but the same summary frames bit for bit. It holds
//! because the store is deterministic for a single-threaded op sequence
//! (per-key sketch seeds derive from the config seed) and every op is
//! exactly one log record, so truncating the log at a frame boundary is
//! the same thing as truncating the op sequence.
//!
//! The windowed case pins replay by logged window id: timestamped batches
//! that roll a key forward, hit its active window, or merge late must
//! land in the same windows on replay, and batches dropped beyond the
//! lateness bound write no record at all.

use std::collections::HashMap;
use std::time::Duration;

use proptest::prelude::*;
use qc_store::persist::{parse_segment, FILE_HEADER_LEN};
use qc_store::{encode_summary, SketchStore, StoreConfig, WindowConfig};
use qc_workloads::tempdir::TempDir;

const KEYS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Windowed config: level-0 window width and lateness bound (windows).
const WIDTH_MS: u64 = 1000;
const LATENESS: u64 = 2;

#[derive(Clone, Debug)]
enum Op {
    UpdateMany {
        key: usize,
        values: Vec<f64>,
    },
    /// `update_at` with an event time inside window `wid`.
    UpdateAt {
        key: usize,
        wid: u64,
        values: Vec<f64>,
    },
    Remove {
        key: usize,
    },
}

fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1000i32..1000, 1..12)
        .prop_map(|raw| raw.into_iter().map(f64::from).collect())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..KEYS.len(), values_strategy())
            .prop_map(|(key, values)| Op::UpdateMany { key, values }),
        (0usize..KEYS.len()).prop_map(|key| Op::Remove { key }),
    ]
}

/// Plain and timestamped writes plus removals; window ids span a few
/// lateness bounds, so rolls, active hits, late merges and drops all
/// occur.
fn windowed_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..KEYS.len(), values_strategy())
            .prop_map(|(key, values)| Op::UpdateMany { key, values }),
        (0usize..KEYS.len(), 0u64..12, values_strategy())
            .prop_map(|(key, wid, values)| Op::UpdateAt { key, wid, values }),
        (0usize..KEYS.len()).prop_map(|key| Op::Remove { key }),
    ]
}

fn base_cfg() -> StoreConfig {
    StoreConfig::default().stripes(2).k(32).b(4).seed(11)
}

fn windowed_cfg() -> StoreConfig {
    base_cfg().window(
        WindowConfig::default()
            .width(Duration::from_millis(WIDTH_MS))
            .downsample_levels(1)
            .lateness(Duration::from_millis(LATENESS * WIDTH_MS)),
    )
}

fn apply(store: &SketchStore<f64>, op: &Op) {
    match op {
        Op::UpdateMany { key, values } => store.update_many(KEYS[*key], values),
        Op::UpdateAt { key, wid, values } => store.update_at(KEYS[*key], wid * WIDTH_MS, values),
        Op::Remove { key } => {
            store.remove(KEYS[*key]);
        }
    }
}

/// The ops that hit the log, in order: every update except a timestamped
/// batch dropped beyond the lateness bound, and a remove only when the
/// key was resident. Replaying the record prefix therefore equals
/// executing this *recorded* op prefix.
fn recorded(ops: &[Op]) -> Vec<&Op> {
    // Active window id per resident key (`update_many` creates at 0).
    let mut live: HashMap<usize, u64> = HashMap::new();
    ops.iter()
        .filter(|op| match op {
            Op::UpdateMany { key, .. } => {
                live.entry(*key).or_insert(0);
                true
            }
            Op::UpdateAt { key, wid, .. } => {
                let active = live.entry(*key).or_insert(*wid);
                if *wid + LATENESS < *active {
                    return false;
                }
                *active = (*active).max(*wid);
                true
            }
            Op::Remove { key } => live.remove(key).is_some(),
        })
        .collect()
}

/// Sorted `(key, summary frame)` pairs — the store's entire observable
/// per-key state, in wire form.
fn state_of(store: &SketchStore<f64>) -> Vec<(String, Vec<u8>)> {
    let mut keys = store.keys();
    keys.sort();
    keys.into_iter()
        .map(|k| {
            let frame = store.snapshot_bytes(&k).unwrap();
            (k, frame)
        })
        .collect()
}

/// One key's window bookkeeping in wire form: key, active id,
/// watermark, active summary frame, and every sealed window as
/// `(start id, level, summary frame)`.
type KeyWindows = (String, u64, u64, Vec<u8>, Vec<(u64, u8, Vec<u8>)>);

/// Every key's [`KeyWindows`], in key order.
fn windows_of(store: &SketchStore<f64>) -> Vec<KeyWindows> {
    let mut keys = store.keys();
    keys.sort();
    keys.into_iter()
        .map(|k| {
            let snap = store.window_snapshot(&k).expect("windowed key");
            let sealed = snap
                .sealed
                .iter()
                .map(|(start, level, summary)| (*start, *level, encode_summary(summary)))
                .collect();
            (k, snap.active_id, snap.watermark, encode_summary(&snap.active), sealed)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The windowed counterpart of the arbitrary-cut property: replay by
    /// logged window id rebuilds every key's windows exactly — active
    /// id, watermark, active summary and every sealed window — as a
    /// reference that executed the durable prefix, whose late-dropped
    /// batches were never logged.
    #[test]
    fn windowed_recovery_equals_executing_the_durable_prefix(
        ops in prop::collection::vec(windowed_op_strategy(), 1..40),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = TempDir::new("recover-windowed");
        let (durable, _) =
            SketchStore::<f64>::recover(windowed_cfg().data_dir(dir.path())).unwrap();
        for op in &ops {
            apply(&durable, op);
        }
        drop(durable);
        let recorded = recorded(&ops);

        let segment = {
            let mut logs: Vec<_> = std::fs::read_dir(dir.path())
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "log"))
                .collect();
            prop_assert_eq!(logs.len(), 1, "no rotation without checkpoints");
            logs.pop().unwrap()
        };
        let bytes = std::fs::read(&segment).unwrap();
        let scan = parse_segment(&bytes);
        prop_assert!(scan.error.is_none());
        prop_assert_eq!(scan.records.len(), recorded.len(), "late drops write no record");

        let span = bytes.len() - FILE_HEADER_LEN;
        let cut = FILE_HEADER_LEN + (span as f64 * cut_frac) as usize;
        std::fs::write(&segment, &bytes[..cut]).unwrap();
        let survivors = scan.records.iter().filter(|r| r.end <= cut).count();

        let (recovered, report) =
            SketchStore::<f64>::recover(windowed_cfg().data_dir(dir.path())).unwrap();
        prop_assert_eq!(report.records_applied, survivors as u64);

        let reference = SketchStore::<f64>::new(windowed_cfg());
        for op in &recorded[..survivors] {
            apply(&reference, op);
        }
        prop_assert_eq!(state_of(&recovered), state_of(&reference));
        prop_assert_eq!(
            windows_of(&recovered),
            windows_of(&reference),
            "recovered windows must be byte-identical to executing the {survivors}-op prefix"
        );
        prop_assert_eq!(recovered.stats().stream_len, reference.stats().stream_len);
    }

    /// Crash at an arbitrary byte of the log: the recovered store equals
    /// a reference store that executed exactly the durable whole-frame
    /// prefix of the op sequence.
    #[test]
    fn recovery_equals_executing_the_durable_prefix(
        ops in prop::collection::vec(op_strategy(), 1..32),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = TempDir::new("recover-equiv");
        let (durable, _) =
            SketchStore::<f64>::recover(base_cfg().data_dir(dir.path())).unwrap();
        for op in &ops {
            apply(&durable, op);
        }
        drop(durable);

        let recorded = recorded(&ops);

        // One op = one record, appended in program order; no checkpoint
        // ran, so the whole history is in the single active segment.
        let segment = {
            let mut logs: Vec<_> = std::fs::read_dir(dir.path())
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "log"))
                .collect();
            prop_assert_eq!(logs.len(), 1, "no rotation without checkpoints");
            logs.pop().unwrap()
        };
        let bytes = std::fs::read(&segment).unwrap();
        let scan = parse_segment(&bytes);
        prop_assert!(scan.error.is_none());
        prop_assert_eq!(scan.records.len(), recorded.len());

        // Crash: everything past `cut` was never written. Whole frames
        // before the cut are the durable prefix.
        let span = bytes.len() - FILE_HEADER_LEN;
        let cut = FILE_HEADER_LEN + (span as f64 * cut_frac) as usize;
        std::fs::write(&segment, &bytes[..cut]).unwrap();
        let survivors = scan.records.iter().filter(|r| r.end <= cut).count();

        let (recovered, report) =
            SketchStore::<f64>::recover(base_cfg().data_dir(dir.path())).unwrap();
        prop_assert_eq!(report.records_applied, survivors as u64);
        // Corruption is reported iff the cut left partial-frame bytes
        // behind; a cut landing exactly on a frame boundary is clean.
        let boundary = survivors
            .checked_sub(1)
            .map_or(FILE_HEADER_LEN, |i| scan.records[i].end);
        prop_assert_eq!(report.corruption.is_some(), cut > boundary);

        // The reference never saw a log or a crash: it just runs the
        // durable prefix in memory with the same config.
        let reference = SketchStore::<f64>::new(base_cfg());
        for op in &recorded[..survivors] {
            apply(&reference, op);
        }

        let got = state_of(&recovered);
        let want = state_of(&reference);
        prop_assert_eq!(
            got, want,
            "recovered state must be byte-identical to executing the {survivors}-op prefix"
        );
    }

    /// Group-commit boundary model: a leader fsync covers every append
    /// up to some LSN, so after a crash the durable prefix always ends at
    /// the last record of a completed commit *group*, never inside one.
    /// Partition the recorded ops into arbitrary groups, keep a whole
    /// number of them, and recovery must equal executing exactly the ops
    /// of the completed groups — the uncovered tail vanishes atomically.
    #[test]
    fn recovery_at_a_group_commit_boundary_equals_the_covered_groups(
        ops in prop::collection::vec(op_strategy(), 1..32),
        group_sizes in prop::collection::vec(1usize..5, 1..16),
        keep_frac in 0.0f64..=1.0,
    ) {
        let dir = TempDir::new("recover-group");
        let (durable, _) =
            SketchStore::<f64>::recover(base_cfg().data_dir(dir.path())).unwrap();
        for op in &ops {
            apply(&durable, op);
        }
        drop(durable);

        let recorded = recorded(&ops);

        let segment: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        let path = &segment[0];
        let bytes = std::fs::read(path).unwrap();
        let scan = parse_segment(&bytes);
        prop_assert_eq!(scan.records.len(), recorded.len());

        // Partition the records into commit groups of the drawn sizes
        // (cycling if the sizes run short), then keep a whole number of
        // leading groups — the watermark a leader fsync would have left.
        let mut boundaries = Vec::new(); // record count at each group end
        let mut covered = 0usize;
        let mut sizes = group_sizes.iter().cycle();
        while covered < recorded.len() {
            covered = (covered + sizes.next().unwrap()).min(recorded.len());
            boundaries.push(covered);
        }
        let keep_groups = (boundaries.len() as f64 * keep_frac) as usize;
        let survivors = keep_groups.checked_sub(1).map_or(0, |i| boundaries[i]);
        let cut = survivors
            .checked_sub(1)
            .map_or(FILE_HEADER_LEN, |i| scan.records[i].end);
        std::fs::write(path, &bytes[..cut]).unwrap();

        // A group boundary is a frame boundary: recovery is clean, no
        // torn tail, and applies exactly the covered groups' records.
        let (recovered, report) =
            SketchStore::<f64>::recover(base_cfg().data_dir(dir.path())).unwrap();
        prop_assert!(report.corruption.is_none(), "group boundaries are frame boundaries");
        prop_assert_eq!(report.records_applied, survivors as u64);

        let reference = SketchStore::<f64>::new(base_cfg());
        for op in &recorded[..survivors] {
            apply(&reference, op);
        }
        prop_assert_eq!(
            state_of(&recovered),
            state_of(&reference),
            "recovery must equal executing the {keep_groups} covered commit groups"
        );
    }

    /// Repair is idempotent and deterministic: recovering the same
    /// damaged directory twice (the first pass truncates the torn tail)
    /// lands on the same state both times.
    #[test]
    fn double_recovery_is_stable(
        ops in prop::collection::vec(op_strategy(), 1..16),
        chop in 1usize..40,
    ) {
        let dir = TempDir::new("recover-stable");
        let (durable, _) =
            SketchStore::<f64>::recover(base_cfg().data_dir(dir.path())).unwrap();
        for op in &ops {
            apply(&durable, op);
        }
        drop(durable);

        let segment: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        let path = &segment[0];
        let bytes = std::fs::read(path).unwrap();
        let cut = bytes.len().saturating_sub(chop).max(FILE_HEADER_LEN);
        std::fs::write(path, &bytes[..cut]).unwrap();

        let (first, report_a) =
            SketchStore::<f64>::recover(base_cfg().data_dir(dir.path())).unwrap();
        let state_a = state_of(&first);
        drop(first);
        let (second, report_b) =
            SketchStore::<f64>::recover(base_cfg().data_dir(dir.path())).unwrap();
        prop_assert!(report_b.corruption.is_none(), "first pass must have repaired the tail");
        prop_assert_eq!(report_b.records_applied, report_a.records_applied);
        prop_assert_eq!(state_of(&second), state_a);
    }
}
