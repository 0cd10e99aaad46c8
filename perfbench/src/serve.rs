//! `serve_mixed`: an in-memory server with UDP ingest, in its own
//! process. One sender thread offers open-loop datagrams (4 records × 32
//! values, Zipf-skewed keys) at a fixed rate; one client thread
//! closed-loops a TCP connection (85% `query`, 5% `merged_query` over 16
//! keys, 10% `update_many` of 64 values). Every 5 ms the sender also sends
//! a one-value probe datagram and polls the probe key's weight, over a
//! connection of its own, until the probe is counted.
//!
//! The client's rates are service rates, sampled per block of
//! consecutive calls of one kind ([`crate::BlockRate`]): acked values per
//! second spent in `update_many` calls, and single-key answers per second
//! spent in `query` calls. A merged read costs tens of single-key reads,
//! so counted in with them it would set the query figures; its round trip
//! is reported on its own, with the per-layer metrics.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use qc_common::rng::Xoshiro256;
use qc_common::summary::Summary;
use qc_ingest::datagram::encode_datagram_seq;
use qc_ingest::{encode_datagram, Record};
use qc_server::{Client, MetricsSnapshot};

use crate::hist::Hist;
use crate::host::HostProc;
use crate::report::Report;
use crate::trace::{Tracer, ROOT};
use crate::{median, Ctx, Op, PhaseMetrics};

pub const KEYS: usize = 4096;
const ZIPF_S: f64 = 1.1;
const RECORDS: usize = 4;
const VALUES_PER_RECORD: usize = 32;
const BATCH: usize = 64;
const MERGED_KEYS: usize = 16;
const PROBE_EVERY: Duration = Duration::from_millis(5);
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);
const PHIS: [f64; 3] = [0.5, 0.99, 0.999];
/// Values are uniform in `[0, VALUE_MAX)`; every answer must lie there.
const VALUE_MAX: f64 = 1000.0;
/// Ops kept per thread for the in-process replay.
const SAMPLE: usize = 2048;

/// Set-ups timed before and after the measured phase; `setup_s` is their
/// median. Taking some after the phase samples the machine at two
/// moments half a minute apart, which steadies the median when the
/// machine's speed drifts.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

/// Offered datagram rate: below the knee on a 2-CPU machine, so no
/// datagram is lost in the kernel or shed by the daemon. It is also low
/// next to the client's read rate. Reads and writes share one key
/// distribution, so the store's summary-cache hit ratio is about
/// reads / (reads + record writes) on every key. At 4000 datagrams/s that
/// was about 0.4, and the query p50 sat between the hit (~15 µs) and miss
/// (~100–200 µs) latencies, where a small change in the client's speed
/// moved it by a third. At this rate most reads hit, and misses show in
/// the tail.
pub const RATE: f64 = 500.0;

pub fn key(i: usize) -> String {
    format!("k{i}")
}

/// Zipf(s) over `n` ranks by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Xoshiro256) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn uniform(rng: &mut Xoshiro256) -> f64 {
    rng.next_f64() * VALUE_MAX
}

/// Spawn the host, connect and prefill every key with one batch.
pub fn setup(seed: u64) -> Result<(HostProc, Client), String> {
    let host = HostProc::spawn(seed)?;
    let mut client = Client::connect(host.tcp).map_err(|e| format!("connect: {e}"))?;
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5e7e);
    for i in 0..KEYS {
        let values: Vec<f64> = (0..BATCH).map(|_| uniform(&mut rng)).collect();
        client.update_many(&key(i), &values).map_err(|e| format!("prefill: {e}"))?;
    }
    Ok((host, client))
}

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name).unwrap_or(0)
}

/// Everything one served session measured.
pub struct ServeOutcome {
    pub e2e: PhaseMetrics,
    pub rtt_update_many: Hist,
    pub rtt_query: Hist,
    pub rtt_merged: Hist,
    pub late: Hist,
    pub queue_depth_max: i64,
    pub sent: u64,
    pub probes: u64,
    pub kernel_drops: u64,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub sample: Vec<Op>,
    pub spans: Vec<Tracer>,
}

struct SenderOut {
    m: PhaseMetrics,
    sent: u64,
    errors: u64,
    probes: u64,
    probe_timeouts: u64,
    late: Hist,
    sample: Vec<Op>,
}

struct ClientOut {
    m: PhaseMetrics,
    client: Client,
    ops: u64,
    errors: u64,
    bad: u64,
    acked_values: u64,
    update_many: Hist,
    query: Hist,
    merged: Hist,
    queue_depth_max: i64,
    sample: Vec<Op>,
}

/// Run one session of `dur` against `host`, then settle the daemon and
/// check conservation. `rate` is the offered datagram rate.
pub fn session(
    host: &HostProc,
    mut client: Client,
    seed: u64,
    rate: f64,
    dur: Duration,
    traced: bool,
    r: &mut Report,
) -> Result<ServeOutcome, String> {
    let udp = host.udp.ok_or("host has no ingest address")?;
    let tcp = host.tcp;
    let before = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let zipf = Zipf::new(KEYS, ZIPF_S);
    let epoch = Instant::now();
    let end = epoch + dur;
    let mut tr_s = Tracer::new(epoch, traced, 100_000);
    let mut tr_c = Tracer::new(epoch, traced, 200_000);
    let (snd, cli) = std::thread::scope(|s| {
        let zipf = &zipf;
        let tr_s = &mut tr_s;
        let sender = s.spawn(move || -> Result<SenderOut, String> {
            let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            sock.connect(udp).map_err(|e| e.to_string())?;
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xda7a);
            let interval = Duration::from_secs_f64(1.0 / rate);
            // The probes ride on the open-loop sender, with a connection of
            // their own, so their schedule does not wait on the client's
            // requests.
            let probe_sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            probe_sock.connect(udp).map_err(|e| e.to_string())?;
            let mut poller = Client::connect(tcp).map_err(|e| format!("connect: {e}"))?;
            let mut probe_key = String::new();
            let mut probe_weight = 0;
            let mut next_probe = epoch + PROBE_EVERY;
            let mut out = SenderOut {
                m: PhaseMetrics::new(epoch, dur),
                sent: 0,
                errors: 0,
                probes: 0,
                probe_timeouts: 0,
                late: Hist::default(),
                sample: Vec::new(),
            };
            let mut due = epoch;
            while due < end {
                if next_probe <= due {
                    let now = Instant::now();
                    if next_probe > now {
                        std::thread::sleep(next_probe - now);
                    }
                    let probe_due = next_probe;
                    next_probe += PROBE_EVERY;
                    if out.probes.is_multiple_of(PROBES_PER_KEY) {
                        probe_key = probe_key_for(out.probes);
                        probe_weight = weight(&mut poller, &probe_key)?;
                    }
                    out.probes += 1;
                    let frame = encode_datagram(&[Record {
                        key: probe_key.clone(),
                        values: vec![out.probes as f64],
                    }]);
                    let span = tr_s.open(ROOT, out.probes, "probe");
                    let _ = probe_sock.send(&frame);
                    let deadline = Instant::now() + PROBE_TIMEOUT;
                    loop {
                        let w = weight(&mut poller, &probe_key).unwrap_or_else(|_| {
                            out.errors += 1;
                            0
                        });
                        if w > probe_weight {
                            out.m.at(probe_due).visible.record_duration(probe_due.elapsed());
                            probe_weight = w;
                            break;
                        }
                        if Instant::now() > deadline {
                            out.probe_timeouts += 1;
                            break;
                        }
                    }
                    tr_s.close(span);
                    continue;
                }
                let records: Vec<Record> = (0..RECORDS)
                    .map(|_| Record {
                        key: key(zipf.sample(&mut rng)),
                        values: (0..VALUES_PER_RECORD).map(|_| uniform(&mut rng)).collect(),
                    })
                    .collect();
                let frame = encode_datagram_seq(&records, out.sent);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                // Lateness counts from the scheduled instant, so a stalled
                // generator shows here instead of passing for a fast system.
                out.late.record_duration(Instant::now().saturating_duration_since(due));
                let span = if out.sent.is_multiple_of(16) {
                    tr_s.open(ROOT, out.sent, "udp.send")
                } else {
                    ROOT
                };
                if sock.send(&frame).is_err() {
                    out.errors += 1;
                }
                tr_s.close(span);
                out.sent += 1;
                if out.sample.len() < SAMPLE {
                    for rec in records {
                        out.sample.push(Op::UpdateMany { key: rec.key, values: rec.values });
                    }
                }
                due += interval;
            }
            Ok(out)
        });
        let tr_c = &mut tr_c;
        let cli = s.spawn(move || -> Result<ClientOut, String> {
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xc11e);
            let mut out = ClientOut {
                m: PhaseMetrics::new(epoch, dur),
                client,
                ops: 0,
                errors: 0,
                bad: 0,
                acked_values: 0,
                update_many: Hist::default(),
                query: Hist::default(),
                merged: Hist::default(),
                queue_depth_max: 0,
                sample: Vec::new(),
            };
            let mut next_poll = epoch;
            loop {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                if traced && now >= next_poll {
                    next_poll = now + Duration::from_millis(250);
                    if let Ok(m) = out.client.metrics() {
                        out.queue_depth_max =
                            out.queue_depth_max.max(m.gauge("ingest_queue_depth").unwrap_or(0));
                    }
                }
                let pick = rng.next_f64();
                let op = if pick < 0.85 {
                    Op::Query { key: key(zipf.sample(&mut rng)), phi: PHIS[(out.ops % 3) as usize] }
                } else if pick < 0.90 {
                    let keys = (0..MERGED_KEYS).map(|_| key(zipf.sample(&mut rng))).collect();
                    Op::Merged { keys, phi: PHIS[(out.ops % 3) as usize] }
                } else {
                    let values = (0..BATCH).map(|_| uniform(&mut rng)).collect();
                    Op::UpdateMany { key: key(zipf.sample(&mut rng)), values }
                };
                out.ops += 1;
                let span = tr_c.open(ROOT, out.ops, op.client_span());
                let t0 = Instant::now();
                let res = op.call(&mut out.client);
                let t1 = Instant::now();
                let rtt = t1 - t0;
                tr_c.close(span);
                let w = out.m.at(t1);
                match (&op, res) {
                    (_, Err(_)) => out.errors += 1,
                    (Op::UpdateMany { values, .. }, Ok(_)) => {
                        out.acked_values += values.len() as u64;
                        out.update_many.record_duration(rtt);
                        w.write_ack.record_duration(rtt);
                        out.m.write_blocks.add(values.len() as u64, rtt.as_secs_f64());
                    }
                    (Op::Query { .. }, Ok(ans)) => {
                        out.query.record_duration(rtt);
                        out.bad += u64::from(!answer_ok(ans));
                        w.query.record_duration(rtt);
                        out.m.query_blocks.add(1, rtt.as_secs_f64());
                    }
                    (Op::Merged { .. }, Ok(ans)) => {
                        out.merged.record_duration(rtt);
                        out.bad += u64::from(!answer_ok(ans));
                    }
                }
                if out.sample.len() < SAMPLE {
                    out.sample.push(op);
                }
            }
            Ok(out)
        });
        (sender.join().expect("sender thread"), cli.join().expect("client thread"))
    });
    let snd = snd?;
    let mut cli = cli?;

    let after = settle(&mut cli.client)?;
    let d = |name: &str| counter(&after, name).saturating_sub(counter(&before, name));
    // The probe datagrams arrive on the same socket, so they count in
    // `ingest_datagrams` as well as in what was sent.
    let received = d("ingest_datagrams");
    let kernel_drops = (snd.sent + snd.probes).saturating_sub(received);
    let applied_values = d("ingest_applied_values");
    let daemon_drops =
        d("ingest_dropped_queue") + d("ingest_dropped_decode") + d("ingest_dropped_oversized");
    let identity = counter(&after, "ingest_datagrams")
        == counter(&after, "ingest_applied_datagrams")
            + counter(&after, "ingest_dropped_queue")
            + counter(&after, "ingest_dropped_decode")
            + counter(&after, "ingest_dropped_oversized");
    r.check("serve.daemon_conservation", identity, "ingest_datagrams != applied + dropped");
    let store_updates = d("store_updates") + u64::from(r.corrupt);
    let expected = applied_values + cli.acked_values;
    r.check(
        "serve.store_updates",
        store_updates == expected,
        format!("store_updates {store_updates} != applied datagram values + acked TCP values {expected}"),
    );
    r.check(
        "serve.answers",
        cli.bad == 0,
        format!("{} queries answered None or out of range", cli.bad),
    );
    r.attempted += snd.sent + cli.ops + snd.probes;
    r.failed +=
        kernel_drops + daemon_drops + snd.errors + cli.errors + cli.bad + snd.probe_timeouts;

    // Write throughput counts the client's acked TCP values only: the
    // datagram rate is fixed by the sender, so datagrams enter the figures
    // through visibility, lateness and the failed count instead.
    let mut e2e = cli.m;
    e2e.merge(&snd.m);
    let mut sample = Vec::new();
    let (mut a, mut b) = (snd.sample.into_iter(), cli.sample.into_iter());
    loop {
        match (a.next(), b.next()) {
            (None, None) => break,
            (x, y) => sample.extend(x.into_iter().chain(y)),
        }
    }
    Ok(ServeOutcome {
        e2e,
        rtt_update_many: cli.update_many,
        rtt_query: cli.query,
        rtt_merged: cli.merged,
        late: snd.late,
        queue_depth_max: cli.queue_depth_max,
        sent: snd.sent,
        probes: snd.probes,
        kernel_drops,
        before,
        after,
        sample,
        spans: vec![tr_s, tr_c],
    })
}

/// Probes per probe key. It stays far below the store's promotion
/// threshold (4096 values). A promoted key's newest values wait in
/// Gather&Sort buffers until a batch fills, and at one probe per 5 ms that
/// wait (seconds) would swamp the ingest path the probe measures.
pub const PROBES_PER_KEY: u64 = 1024;

pub fn probe_key_for(probes: u64) -> String {
    format!("probe-{}", probes / PROBES_PER_KEY)
}

/// Stream weight of `key` (0 when absent).
pub fn weight(client: &mut Client, key: &str) -> Result<u64, String> {
    Ok(client
        .snapshot_summary(key)
        .map_err(|e| format!("snapshot: {e}"))?
        .map_or(0, |s| s.stream_len()))
}

fn answer_ok(ans: Option<f64>) -> bool {
    matches!(ans, Some(v) if (0.0..VALUE_MAX).contains(&v))
}

/// Poll the `Metrics` frame until the ingest daemon is quiescent: queue
/// empty and the received count stable across two polls.
fn settle(client: &mut Client) -> Result<MetricsSnapshot, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let m = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        let quiet = m.gauge("ingest_queue_depth").unwrap_or(0) == 0
            && counter(&m, "ingest_datagrams") == counter(&last, "ingest_datagrams")
            && counter(&m, "ingest_applied_values") == counter(&last, "ingest_applied_values");
        if quiet || Instant::now() > deadline {
            return Ok(m);
        }
        last = m;
    }
}

impl ServeOutcome {
    /// Per-layer metrics this session measured from the server's own
    /// counters: the store's read/write split, server request times, the
    /// ingest daemon and the generator.
    pub fn layer(&self, r: &mut Report) {
        let d = |name: &str| {
            counter(&self.after, name).saturating_sub(counter(&self.before, name)) as f64
        };
        let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
        r.set(
            "qc-store.cache_hit_ratio",
            ratio(d("store_cache_hits"), d("store_cache_misses")),
            "ratio",
        );
        r.set(
            "qc-store.shared_write_ratio",
            ratio(d("store_shared_writes"), d("store_fallback_writes")),
            "ratio",
        );
        r.set("qc-store.promotions", d("store_promotions"), "count");
        request_layer("update_many", &self.after, &self.rtt_update_many, r);
        request_layer("query", &self.after, &self.rtt_query, r);
        r.set("qc-server.rtt_us_p50.merged_query", self.rtt_merged.quantile(0.5) / 1e3, "us");
        let q = |phi| self.after.quantile("ingest_batch_seconds", phi).unwrap_or(0.0) * 1e6;
        r.set("qc-ingest.batch_us_p50", q(0.5), "us");
        r.set("qc-ingest.batch_us_p99", q(0.99), "us");
        r.set("qc-ingest.queue_depth_max", self.queue_depth_max as f64, "count");
        r.set(
            "qc-ingest.kernel_drop_frac",
            self.kernel_drops as f64 / (self.sent + self.probes).max(1) as f64,
            "ratio",
        );
        r.set("qc-ingest.shed", d("ingest_shed"), "count");
        r.set("qc-ingest.dropped_queue", d("ingest_dropped_queue"), "count");
        r.set("gen.late_ms_p99", self.late.quantile(0.99) / 1e6, "ms");
    }
}

/// `qc-server.request_us_p50.<op>` from the server's own latency sketch,
/// and `qc-server.wire_us_p50.<op>`: client round trip minus server time.
pub fn request_layer(op: &str, m: &MetricsSnapshot, rtt: &Hist, r: &mut Report) {
    let server_us = m.quantile(&format!("server_request_seconds_{op}"), 0.5).unwrap_or(0.0) * 1e6;
    r.set(format!("qc-server.request_us_p50.{op}"), server_us, "us");
    r.set(format!("qc-server.wire_us_p50.{op}"), rtt.quantile(0.5) / 1e3 - server_us, "us");
}

/// The whole `serve_mixed` workload.
pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some((host, _)) = live.take() {
            HostProc::shutdown(host)?;
        }
        let t = Instant::now();
        live = Some(setup(ctx.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (host, client) = live.expect("set up at least once");
    let dur = ctx.phase_duration();
    let untraced = session(&host, client, ctx.seed, RATE, dur, false, r)?;
    untraced.e2e.report(r);
    r.set("peak_rss_mb", host.peak_rss_mb(), "MB");
    host.shutdown()?;
    for _ in 0..SETUPS_AFTER {
        let t = Instant::now();
        let (host, _) = setup(ctx.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        host.shutdown()?;
    }
    r.set("setup_s", median(&mut setups), "s");
    if ctx.traced {
        // Same seed, fresh host: the traced session starts from the state
        // the untraced one did, so their ratio is the tracing overhead.
        let (host, client) = setup(ctx.seed)?;
        let traced = session(&host, client, ctx.seed, RATE, dur, true, r)?;
        host.shutdown()?;
        traced.e2e.overhead(&untraced.e2e, r);
        traced.layer(r);
        let n: usize = traced.spans.iter().map(Tracer::len).sum();
        ctx.write_spans(&[("sender", &traced.spans[0]), ("client", &traced.spans[1])])?;
        r.set("trace.spans", n as f64, "count");
        crate::replay::run(ctx, &traced.sample, &traced.rtt_update_many, &traced.rtt_query, r)?;
        crate::sketch::probe_layer(ctx, r)?;
        crate::sketch::fig6a_point(ctx.seed, ctx.probe_duration(), r);
    }
    Ok(())
}

/// A short served session on a fresh host, for workloads that bypass the
/// server, store read path or ingest layers: every traced run reports
/// those layers' metrics.
pub fn probe_layer(ctx: &Ctx, r: &mut Report) -> Result<ServeOutcome, String> {
    let (host, client) = setup(ctx.seed)?;
    let mut scratch = Report::default();
    let out = session(&host, client, ctx.seed, RATE, ctx.probe_duration(), true, &mut scratch)?;
    r.absorb(&scratch);
    out.layer(r);
    host.shutdown()?;
    Ok(out)
}
