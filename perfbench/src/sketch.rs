//! `sketch_mixed`: one in-process `Quancurrent<f64>` (k = 4096, b = 16,
//! one Gather&Sort unit sized for 2 threads, ρ = 1.05). The phase is a
//! series of rounds of fixed work: each builds a fresh sketch, prefills
//! it, and then one updater feeds a fixed count of seeded uniform values
//! in chunks of 64 while one querier issues `QueryHandle::query` over a
//! φ sweep, paced open-loop, until the updater stops. No store, server,
//! WAL or ingest is involved.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qc_common::error::{relaxed_epsilon, sequential_epsilon};
use qc_common::rng::Xoshiro256;
use qc_common::summary::Summary;
use quancurrent::{Quancurrent, QueryHandle, SketchStats, Updater};

use crate::hist::Hist;
use crate::report::Report;
use crate::trace::{Tracer, ROOT};
use crate::{median, Ctx, PhaseMetrics, Window};

pub const K: usize = 4096;
pub const B: usize = 16;
pub const RHO: f64 = 1.05;
/// Values are integers in `[0, DOMAIN)`, so a counting table is an exact
/// rank oracle for any stream length.
const DOMAIN: usize = 1 << 20;
const CHUNK: u64 = 64;
const PREFILL: u64 = 1 << 20;
/// Values a round feeds after its prefill, in runs of at least 10 s
/// (shorter runs scale it down). A round's work is fixed, so the sketch's
/// size, and with it the process's peak RSS, does not depend on how fast
/// the updater runs.
const ROUND_VALUES: u64 = 1 << 25;
const PHIS: [f64; 8] = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999];

/// Offered query rate of the open-loop querier. A closed-loop querier
/// (queries back to back) slowed the updater by 20–60%, by a different
/// amount in each run (contention on the cache lines the two threads share
/// is the suspected path). That left update throughput varying 2× between
/// runs on a 2-CPU VM. At this rate the updater varies by about ±10%.
/// Since the rate is fixed, `query_per_s` counts queries per second spent
/// inside `QueryHandle::query`, the querier's service rate.
pub const QUERY_RATE: f64 = 200_000.0;

/// The updater publishes its fed count, and the querier reads it, once
/// every this many chunks or queries. Touching the shared line on every
/// call would make the benchmark's own bookkeeping a cross-core
/// bottleneck whose cost depends on where the host places the two CPUs.
const PUBLISH_EVERY: u64 = 16;

/// Keeps a shared flag on a cache line of its own.
#[repr(align(128))]
struct Padded<T>(T);

/// The seeded value stream; regenerating it with the same seed replays
/// exactly the values the sketch was fed.
pub struct Values(Xoshiro256);

impl Values {
    pub fn new(seed: u64) -> Self {
        Values(Xoshiro256::seed_from_u64(seed ^ 0x5eed_u64))
    }

    #[inline]
    pub fn next(&mut self) -> f64 {
        (self.0.next_u64() >> 44) as f64
    }
}

pub fn build(seed: u64) -> Quancurrent<f64> {
    Quancurrent::<f64>::builder()
        .k(K)
        .b(B)
        .numa_nodes(1)
        .threads_per_node(2)
        .rho(RHO)
        .seed(seed)
        .build()
}

/// Values per round for a run of `seconds`, a whole number of chunks.
pub fn round_values(seconds: f64) -> u64 {
    let n = (ROUND_VALUES as f64 * (seconds / 10.0).min(1.0)) as u64;
    (n / CHUNK).max(1) * CHUNK
}

/// What one round of updater + querier produced.
pub struct Round {
    /// The round's end-to-end samples: writes over the updater's time,
    /// queries over the querier's time inside its calls.
    pub e2e: Window,
    pub bad_answers: u64,
    pub update_ns: Hist,
    pub miss: Hist,
    pub stale_ppm: Hist,
    pub hits: u64,
    pub misses: u64,
}

/// The sketch with its two registered handles and the value stream.
pub struct Rig {
    pub sketch: Quancurrent<f64>,
    pub updater: Updater<f64>,
    pub query: QueryHandle<f64>,
    pub values: Values,
    pub fed: u64,
}

impl Rig {
    /// Build the sketch, register both handles and prefill it.
    pub fn setup(seed: u64) -> Rig {
        let sketch = build(seed);
        let mut updater = sketch.updater();
        let query = sketch.query_handle();
        let mut values = Values::new(seed);
        for _ in 0..PREFILL {
            updater.update(values.next());
        }
        Rig { sketch, updater, query, values, fed: PREFILL }
    }

    /// Feed `n` values (a whole number of chunks) with the querier
    /// running beside the updater.
    pub fn round(&mut self, n: u64, tr_u: &mut Tracer, tr_q: &mut Tracer) -> Round {
        let traced = tr_u.enabled();
        let fed_pub = Padded(AtomicU64::new(self.fed));
        let done = Padded(AtomicBool::new(false));
        let epoch = Instant::now();
        let Rig { updater, query, values, fed, .. } = self;
        let end = *fed + n;
        let (upd, qry) = std::thread::scope(|s| {
            let (fed_pub, done) = (&fed_pub.0, &done.0);
            let u = s.spawn(move || {
                let mut write_ack = Hist::default();
                let mut update_ns = Hist::default();
                // One feed-log entry per millisecond, so the log's size does
                // not depend on the update rate.
                let mut log: Vec<(Instant, u64)> = Vec::with_capacity(1 << 12);
                let mut next_log = epoch;
                let mut n = *fed;
                let mut chunk = 0u64;
                while n < end {
                    let span = if traced && chunk.is_multiple_of(64) {
                        tr_u.open(ROOT, chunk, "quancurrent.update_chunk")
                    } else {
                        ROOT
                    };
                    let t0 = Instant::now();
                    if traced {
                        for _ in 0..CHUNK {
                            let v = values.next();
                            let a = Instant::now();
                            updater.update(v);
                            update_ns.record_duration(a.elapsed());
                        }
                    } else {
                        for _ in 0..CHUNK {
                            updater.update(values.next());
                        }
                    }
                    let t1 = Instant::now();
                    tr_u.close(span);
                    write_ack.record_duration(t1 - t0);
                    n += CHUNK;
                    if chunk.is_multiple_of(PUBLISH_EVERY) {
                        fed_pub.store(n, Ordering::Release);
                    }
                    if t1 >= next_log {
                        log.push((t1, n));
                        next_log = t1 + Duration::from_millis(1);
                    }
                    chunk += 1;
                }
                let secs = epoch.elapsed().as_secs_f64();
                done.store(true, Ordering::Release);
                (write_ack, update_ns, log, secs)
            });
            let q = s.spawn(move || {
                let mut latency = Hist::default();
                let mut miss = Hist::default();
                let mut stale = Hist::default();
                let mut rebuilds: Vec<(Instant, u64)> = Vec::new();
                let (h0, m0) = query.cache_stats();
                let mut bad = 0u64;
                let mut i = 0u64;
                let mut busy = Duration::ZERO;
                let mut fed_before = 0;
                let gap = Duration::from_secs_f64(1.0 / QUERY_RATE);
                let mut due = Instant::now();
                while !done.load(Ordering::Acquire) {
                    if i.is_multiple_of(PUBLISH_EVERY) {
                        fed_before = fed_pub.load(Ordering::Acquire);
                    }
                    let (_, before) = query.cache_stats();
                    // Spin rather than sleep: the gap is a few microseconds.
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let span = if traced && i.is_multiple_of(64) {
                        tr_q.open(ROOT, i, "quancurrent.query")
                    } else {
                        ROOT
                    };
                    let t0 = Instant::now();
                    let ans = query.query(PHIS[(i % PHIS.len() as u64) as usize]);
                    let t1 = Instant::now();
                    tr_q.close(span);
                    busy += t1 - t0;
                    // Open loop: a query's latency runs from when it was due.
                    latency.record_duration(t1 - due);
                    due += gap;
                    let covered = query.cached_stream_len();
                    if query.cache_stats().1 > before {
                        miss.record_duration(t1 - t0);
                        rebuilds.push((t1, covered));
                    }
                    let lag = fed_before.saturating_sub(covered) as f64 / fed_before.max(1) as f64;
                    stale.record((lag * 1e6) as u64);
                    if !matches!(ans, Some(v) if (0.0..DOMAIN as f64).contains(&v)) {
                        bad += 1;
                    }
                    i += 1;
                }
                let (h1, m1) = query.cache_stats();
                (latency, busy, miss, stale, rebuilds, bad, i, h1 - h0, m1 - m0)
            });
            (u.join().expect("updater thread"), q.join().expect("querier thread"))
        });
        let (write_ack, update_ns, log, secs) = upd;
        let (query, busy, miss, stale_ppm, rebuilds, bad_answers, queries, hits, misses) = qry;
        let mut visible = Hist::default();
        visibility(&log, &rebuilds, &mut visible);
        self.fed = end;
        Round {
            e2e: Window {
                secs,
                query_secs: busy.as_secs_f64(),
                writes: n,
                write_ack,
                queries,
                query,
                visible,
            },
            bad_answers,
            update_ns,
            miss,
            stale_ppm,
            hits,
            misses,
        }
    }
}

/// Time from a value being fed until the querier's snapshot first covers
/// it: for each logged `(fed at time t, count c)`, the first rebuild whose
/// stream length reaches `c`, recorded in `h`. Values never
/// covered before the round ends are not counted.
fn visibility(fed_log: &[(Instant, u64)], rebuilds: &[(Instant, u64)], h: &mut Hist) {
    let mut j = 0;
    for &(t, c) in fed_log {
        while j < rebuilds.len() && (rebuilds[j].1 < c || rebuilds[j].0 < t) {
            j += 1;
        }
        match rebuilds.get(j) {
            Some(&(tr, _)) => h.record_duration(tr - t),
            None => break,
        }
    }
}

/// The rounds of one measured phase.
pub struct Phase {
    pub e2e: PhaseMetrics,
    /// Seconds each round's set-up (build + prefill) took.
    pub setups: Vec<f64>,
    pub spans: usize,
    update_ns: Hist,
    miss: Hist,
    stale_ppm: Hist,
    hits: u64,
    misses: u64,
    /// `stats()` of every round's sketch, summed.
    stats: SketchStats,
    rounds: u64,
}

/// Run rounds of `n` values each, every one on a fresh sketch and gated,
/// until the updater's time reaches `dur` (at least one round).
pub fn phase(
    ctx: &Ctx,
    n: u64,
    dur: Duration,
    traced: bool,
    r: &mut Report,
) -> Result<Phase, String> {
    let mut p = Phase {
        e2e: PhaseMetrics::from_windows(Vec::new()),
        setups: Vec::new(),
        spans: 0,
        update_ns: Hist::default(),
        miss: Hist::default(),
        stale_ppm: Hist::default(),
        hits: 0,
        misses: 0,
        stats: SketchStats::default(),
        rounds: 0,
    };
    let mut measured = 0.0;
    let mut bad_answers = 0;
    while p.rounds == 0 || measured < dur.as_secs_f64() {
        let t = Instant::now();
        let mut rig = Rig::setup(ctx.seed);
        p.setups.push(t.elapsed().as_secs_f64());
        let epoch = Instant::now();
        let mut tr_u = Tracer::new(epoch, traced, 20_000);
        let mut tr_q = Tracer::new(epoch, traced, 20_000);
        let round = rig.round(n, &mut tr_u, &mut tr_q);
        measured += round.e2e.secs;
        r.attempted += n / CHUNK + round.e2e.queries;
        r.failed += round.bad_answers;
        bad_answers += round.bad_answers;
        check(&mut rig, ctx.seed, ctx.corrupt, r);
        if traced {
            ctx.write_spans(&[("updater", &tr_u), ("querier", &tr_q)])?;
            p.spans += tr_u.len() + tr_q.len();
        }
        let st = rig.sketch.stats();
        let sum = &mut p.stats;
        sum.batches += st.batches;
        sum.dcas_retries += st.dcas_retries;
        sum.level_waits += st.level_waits;
        sum.gs_full_spins += st.gs_full_spins;
        sum.holes += st.holes;
        sum.snapshot_retries += st.snapshot_retries;
        p.update_ns.merge(&round.update_ns);
        p.miss.merge(&round.miss);
        p.stale_ppm.merge(&round.stale_ppm);
        p.hits += round.hits;
        p.misses += round.misses;
        p.e2e.windows.push(round.e2e);
        p.rounds += 1;
    }
    r.check(
        "sketch.answers",
        bad_answers == 0,
        format!("{bad_answers} queries answered None or out of range"),
    );
    Ok(p)
}

impl Phase {
    /// The `quancurrent.*` per-layer metrics of this phase; the
    /// `stats()` counts are per round.
    pub fn layer(&self, r: &mut Report) {
        let per_round = |x: u64| x as f64 / self.rounds.max(1) as f64;
        let st = &self.stats;
        r.set("quancurrent.update_ns_p50", self.update_ns.quantile(0.5), "ns");
        r.set("quancurrent.update_ns_p999", self.update_ns.quantile(0.999), "ns");
        r.set("quancurrent.batches", per_round(st.batches), "count");
        r.set("quancurrent.dcas_retries", per_round(st.dcas_retries), "count");
        r.set("quancurrent.level_waits", per_round(st.level_waits), "count");
        r.set("quancurrent.gs_full_spins", per_round(st.gs_full_spins), "count");
        r.set("quancurrent.holes_per_batch", st.holes_per_batch(), "count");
        r.set("quancurrent.snapshot_retries", per_round(st.snapshot_retries), "count");
        let total = (self.hits + self.misses).max(1) as f64;
        r.set("quancurrent.query_hit_ratio", self.hits as f64 / total, "ratio");
        r.set("quancurrent.query_miss_us_p50", self.miss.quantile(0.5) / 1e3, "us");
        r.set("quancurrent.stale_frac_p50", self.stale_ppm.quantile(0.5) / 1e6, "ratio");
    }
}

/// Gate: quiescent weight equals the values fed, the relaxation bound
/// holds, and a fresh snapshot's rank error over a φ sweep is within
/// ε_r = ε(k) + (r/n)(1 − ε(k)), checked against an exact counting oracle
/// rebuilt from the seed.
pub fn check(rig: &mut Rig, seed: u64, corrupt: bool, r: &mut Report) {
    let fed = rig.fed;
    let weight = rig.sketch.quiescent_summary().stream_len()
        + rig.updater.pending_len() as u64
        + u64::from(corrupt);
    r.check("sketch.weight", weight == fed, format!("quiescent weight {weight} != fed {fed}"));
    let relax = rig.sketch.relaxation_bound(2);
    let missing = fed - rig.sketch.stream_len().min(fed);
    r.check("sketch.relaxation", missing <= relax, format!("{missing} unpropagated > r = {relax}"));

    let mut counts = vec![0u32; DOMAIN];
    let mut values = Values::new(seed);
    for _ in 0..fed {
        counts[values.next() as usize] += 1;
    }
    let mut below = vec![0u64; DOMAIN + 1];
    for (i, &c) in counts.iter().enumerate() {
        below[i + 1] = below[i] + c as u64;
    }
    rig.query.refresh();
    let eps = relaxed_epsilon(sequential_epsilon(K), relax, fed);
    let mut worst = 0.0f64;
    for i in 1..40 {
        let phi = i as f64 / 40.0;
        let Some(v) = rig.query.query(phi) else {
            r.check("sketch.rank_error", false, format!("no answer at phi {phi}"));
            return;
        };
        let v = (v as usize).min(DOMAIN - 1);
        let target = (phi * fed as f64).floor();
        let (lo, hi) = (below[v] as f64, below[v + 1] as f64);
        let dist = if target < lo {
            lo - target
        } else if target > hi {
            target - hi
        } else {
            0.0
        };
        worst = worst.max(dist / fed as f64);
    }
    r.check("sketch.rank_error", worst <= eps, format!("rank error {worst:.6} > bound {eps:.6}"));
}

/// The whole `sketch_mixed` workload.
pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let n = round_values(ctx.seconds);
    let dur = ctx.phase_duration();
    let mut untraced = phase(ctx, n, dur, false, r)?;
    untraced.e2e.report(r);
    r.set("peak_rss_mb", crate::self_peak_rss_mb(), "MB");
    r.set("setup_s", median(&mut untraced.setups), "s");

    if ctx.traced {
        // The same rounds again, with spans and per-call timing on: their
        // ratio to the untraced figures is the tracing overhead.
        let traced = phase(ctx, n, dur, true, r)?;
        traced.e2e.overhead(&untraced.e2e, r);
        traced.layer(r);
        r.set("trace.spans", traced.spans as f64, "count");
        // Layers this workload bypasses come from a short served session,
        // whose own requests the replay then re-issues in-process.
        let served = crate::serve::probe_layer(ctx, r)?;
        crate::replay::run(ctx, &served.sample, &served.rtt_update_many, &served.rtt_query, r)?;
        fig6a_point(ctx.seed, ctx.probe_duration(), r);
    }
    Ok(())
}

/// One short traced round, for workloads that bypass the `quancurrent`
/// layer: every traced run reports that layer's metrics.
pub fn probe_layer(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let mut scratch = Report::default();
    let n = round_values(ctx.seconds / 10.0);
    let p = phase(ctx, n, Duration::ZERO, true, &mut scratch)?;
    r.absorb(&scratch);
    p.layer(r);
    Ok(())
}

/// The paper's Fig. 6a point on the machine running it: single-thread sequential
/// sketch against Quancurrent with 2 updaters and no queries.
pub fn fig6a_point(seed: u64, dur: Duration, r: &mut Report) {
    let mut seq = qc_sequential::Sketch::<f64>::with_seed(K, seed);
    let mut values = Values::new(seed);
    let t = Instant::now();
    let mut n = 0u64;
    while t.elapsed() < dur {
        for _ in 0..CHUNK {
            seq.update(values.next());
        }
        n += CHUNK;
    }
    let seq_rate = n as f64 / t.elapsed().as_secs_f64();
    std::hint::black_box(seq.n());

    let sketch = build(seed);
    let t = Instant::now();
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                let mut up = sketch.updater();
                let mut values = Values::new(seed.wrapping_add(i + 1));
                s.spawn(move || {
                    let mut n = 0u64;
                    while t.elapsed() < dur {
                        for _ in 0..CHUNK {
                            up.update(values.next());
                        }
                        n += CHUNK;
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("updater thread")).sum()
    });
    let qc_rate = total as f64 / t.elapsed().as_secs_f64();
    r.set("qc-sequential.update_per_s", seq_rate, "1/s");
    r.set("quancurrent.update_only_per_s", qc_rate, "1/s");
    r.set("quancurrent.speedup_vs_sequential", qc_rate / seq_rate, "ratio");
}
