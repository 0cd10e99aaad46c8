//! In-process replay of a sample of the workload's own requests through
//! the same public layers the server uses, one span per layer:
//! `Request::decode` → the `SketchStore` call on a memory store and on a
//! durable store → `Response::encode`. Gives each layer's self time and
//! the residual between the client-observed round trip and the sum of
//! the layer times. The durable store then takes a burst of writes from
//! two threads, which gives the WAL's group-commit figures.

use std::time::Instant;

use qc_common::summary::Summary;
use qc_ingest::datagram::encode_datagram_seq;
use qc_ingest::{decode_datagram, Record};
use qc_server::{Request, Response};
use qc_store::{SketchStore, StoreConfig};

use crate::hist::Hist;
use crate::host::remove_dir;
use crate::report::Report;
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, Op};

fn apply(store: &SketchStore, req: &Request) -> Response {
    match req {
        Request::UpdateMany { key, values } => {
            store.update_many(key, values);
            Response::Ok
        }
        Request::Query { key, phi } => Response::MaybeValue(store.query(key, *phi)),
        Request::MergedQuery { keys, phi } => Response::MaybeValue(store.merged_query(keys, *phi)),
        other => unreachable!("the benchmark replays no {other:?}"),
    }
}

fn names(req: &Request) -> (&'static str, &'static str) {
    match req {
        Request::UpdateMany { .. } => ("store.mem.update_many", "store.durable.update_many"),
        Request::Query { .. } => ("store.mem.query", "store.durable.query"),
        _ => ("store.mem.merged_query", "store.durable.merged_query"),
    }
}

/// Durable `update_many` calls per writer thread in each part of the WAL
/// burst; a checkpoint follows every part.
const WAL_BURST: usize = 128;
const WAL_BURST_PARTS: usize = 3;
/// Keys each burst writer cycles through, disjoint between the writers.
const WAL_BURST_KEYS: usize = 16;

/// Replay `ops` and set the replay-derived per-layer metrics, the
/// `wal.*` ones included.
pub fn run(
    ctx: &Ctx,
    ops: &[Op],
    rtt_update: &Hist,
    rtt_query: &Hist,
    r: &mut Report,
) -> Result<(), String> {
    let dir = ctx.scratch_dir.join("replay-data");
    remove_dir(&dir);
    let result = run_in(ctx, ops, rtt_update, rtt_query, &dir, r);
    remove_dir(&dir);
    result
}

fn run_in(
    ctx: &Ctx,
    ops: &[Op],
    rtt_update: &Hist,
    rtt_query: &Hist,
    dir: &std::path::Path,
    r: &mut Report,
) -> Result<(), String> {
    let cfg = StoreConfig::default().seed(ctx.seed);
    let mem = SketchStore::new(cfg.clone());
    let (durable, _) = SketchStore::recover(cfg.clone().data_dir(dir))
        .map_err(|e| format!("replay store: {e}"))?;

    let mut tr = Tracer::new(Instant::now(), true, 1 << 20);
    let mut commit_wait = Hist::default();
    let mut roundtrip_mismatch = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let req = op.to_request();
        let body = req.encode();
        let (mem_name, dur_name) = names(&req);
        let root = tr.open(ROOT, i as u64, "replay.request");
        let s = tr.open(root, i as u64, "proto.decode");
        let decoded = Request::decode(&body);
        tr.close(s);
        let decoded = decoded.map_err(|e| format!("decode: {e}"))?;
        roundtrip_mismatch += u64::from(decoded != req);
        let s = tr.open(root, i as u64, mem_name);
        let t0 = Instant::now();
        let resp = apply(&mem, &decoded);
        let t_mem = t0.elapsed();
        tr.close(s);
        let s = tr.open(root, i as u64, dur_name);
        let t0 = Instant::now();
        apply(&durable, &decoded);
        let t_dur = t0.elapsed();
        tr.close(s);
        let s = tr.open(root, i as u64, "proto.encode");
        std::hint::black_box(resp.encode());
        tr.close(s);
        tr.close(root);
        if let Request::UpdateMany { .. } = &decoded {
            commit_wait.record_duration(t_dur.saturating_sub(t_mem));
        }
    }
    r.check("replay.proto_roundtrip", roundtrip_mismatch == 0, "decode(encode(req)) != req");

    let st = tr.self_times();
    let p50 = |name: &str| st.get(name).map_or(0.0, |h| h.quantile(0.5));
    let union = |prefix: &str| {
        let mut h = Hist::default();
        for (n, x) in &st {
            if n.starts_with(prefix) {
                h.merge(x);
            }
        }
        h
    };
    r.set("qc-server.proto_decode_ns", p50("proto.decode"), "ns");
    r.set("qc-server.proto_encode_ns", p50("proto.encode"), "ns");
    let um = st.get("store.mem.update_many").cloned().unwrap_or_default();
    r.set("qc-store.update_many_us_p50", um.quantile(0.5) / 1e3, "us");
    r.set("qc-store.update_many_us_p99", um.quantile(0.99) / 1e3, "us");
    r.set("qc-store.query_us_p50", p50("store.mem.query") / 1e3, "us");
    r.set("qc-store.merged_query_us_p50", p50("store.mem.merged_query") / 1e3, "us");
    r.set("wal.commit_wait_us_p50", commit_wait.quantile(0.5) / 1e3, "us");
    r.set("trace.self_us_p50.proto_decode", p50("proto.decode") / 1e3, "us");
    r.set("trace.self_us_p50.proto_encode", p50("proto.encode") / 1e3, "us");
    r.set("trace.self_us_p50.store_mem", union("store.mem.").quantile(0.5) / 1e3, "us");
    r.set("trace.self_us_p50.store_durable", union("store.durable.").quantile(0.5) / 1e3, "us");
    r.set("trace.self_us_p50.replay_root", p50("replay.request") / 1e3, "us");
    let layers = |store: &str| p50("proto.decode") + p50(store) + p50("proto.encode");
    r.set(
        "trace.residual_us_p50.update_many",
        (rtt_update.quantile(0.5) - layers("store.mem.update_many")) / 1e3,
        "us",
    );
    r.set(
        "trace.residual_us_p50.query",
        (rtt_query.quantile(0.5) - layers("store.mem.query")) / 1e3,
        "us",
    );

    // The ingest decoder on the same values, packed as the UDP front end
    // would receive them.
    let mut decode = Hist::default();
    let mut records = Vec::new();
    let mut bad_decodes = 0u64;
    let mut seq = 0u64;
    for op in ops {
        if let Op::UpdateMany { key, values } = op {
            for chunk in values.chunks(32) {
                records.push(Record { key: key.clone(), values: chunk.to_vec() });
                if records.len() == 4 {
                    let frame = encode_datagram_seq(&records, seq);
                    seq += 1;
                    let t0 = Instant::now();
                    let got = decode_datagram(&frame);
                    decode.record_duration(t0.elapsed());
                    bad_decodes += u64::from(got.as_deref() != Ok(&records[..]));
                    records.clear();
                }
            }
        }
    }
    r.check(
        "replay.datagram_roundtrip",
        bad_decodes == 0,
        "decode_datagram(encode(records)) != records",
    );
    r.set("qc-ingest.decode_us_p50", decode.quantile(0.5) / 1e3, "us");

    let batches: Vec<&[f64]> = ops
        .iter()
        .filter_map(|o| match o {
            Op::UpdateMany { values, .. } => Some(&values[..]),
            _ => None,
        })
        .collect();
    if batches.is_empty() {
        return Err("the replayed sample holds no writes".into());
    }
    // A checkpoint with nothing logged since the last one returns at
    // once, so each one follows a part of the burst.
    let mut wal = [0.0; 5];
    let mut checkpoint = Vec::new();
    for part in 0..WAL_BURST_PARTS {
        for (sum, x) in wal.iter_mut().zip(wal_burst(&durable, &batches, part)) {
            *sum += x;
        }
        let t0 = Instant::now();
        durable.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        checkpoint.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let [fsyncs, appends, groups, bytes, values] = wal;
    let acks = (2 * WAL_BURST * WAL_BURST_PARTS) as f64;
    r.set("wal.fsyncs_per_ack", fsyncs / acks, "ratio");
    r.set("wal.group_size_mean", appends / groups.max(1.0), "count");
    r.set("wal.bytes_per_value", bytes / values.max(1.0), "B");
    r.set("wal.checkpoint_ms_p50", crate::median(&mut checkpoint), "ms");
    drop(durable);
    let t0 = Instant::now();
    let (recovered, _): (SketchStore, _) =
        SketchStore::recover(cfg.data_dir(dir)).map_err(|e| format!("replay recovery: {e}"))?;
    r.set("wal.recovery_s", t0.elapsed().as_secs_f64(), "s");
    let recovered_values: u64 = (0..2)
        .flat_map(|w| (0..WAL_BURST_KEYS).map(move |k| burst_key(w, k)))
        .map(|key| recovered.summary_of(&key).map_or(0, |s| s.stream_len()))
        .sum();
    r.check(
        "replay.wal_recovery",
        recovered_values == values as u64,
        format!("recovered {recovered_values} of the {values} values the WAL burst acked"),
    );
    drop(recovered);
    ctx.write_spans(&[("replay", &tr)])?;
    Ok(())
}

fn burst_key(writer: usize, i: usize) -> String {
    format!("wal-{writer}-{i}")
}

/// Two threads write the sample's batches to the durable store at once,
/// each on keys of its own, so commit groups can form. Returns the
/// burst's physical fsyncs, log appends, commit groups, log bytes and
/// values written.
fn wal_burst(store: &SketchStore, batches: &[&[f64]], part: usize) -> [f64; 5] {
    const COUNTERS: [&str; 4] = ["wal_fsyncs", "wal_appends", "wal_group_commits", "wal_bytes"];
    let read = || {
        let m = store.telemetry_snapshot();
        COUNTERS.map(|n| m.counter(n).unwrap_or(0) as f64)
    };
    let before = read();
    let values: usize = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2)
            .map(|w| {
                s.spawn(move || {
                    let mut n = 0;
                    for i in 0..WAL_BURST {
                        let batch = batches[((part * WAL_BURST + i) * 2 + w) % batches.len()];
                        store.update_many(&burst_key(w, i % WAL_BURST_KEYS), batch);
                        n += batch.len();
                    }
                    n
                })
            })
            .collect();
        writers.into_iter().map(|h| h.join().expect("WAL burst writer")).sum()
    });
    let after = read();
    [
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
        after[3] - before[3],
        values as f64,
    ]
}
