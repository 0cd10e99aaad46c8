//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sketch_mixed|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of stdout: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! when a correctness check fails. Spans of traced runs are written to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.
//!
//! `perfbench host ...` is the served program's own process (see
//! [`host`]).

mod hist;
mod host;
mod replay;
mod report;
mod serve;
mod sketch;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use qc_server::{Client, ClientError, Request};

use hist::Hist;
use report::Report;
use trace::Tracer;

pub const WORKLOADS: [&str; 2] = ["sketch_mixed", "serve_mixed"];

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "write_values_per_s",
    "write_ack_p50_us",
    "query_per_s",
    "query_p50_us",
    "visible_p50_ms",
];

/// Figures of the untraced phase that are reported with the per-layer
/// metrics, without a bound: their run-to-run spread exceeded what any
/// bound the benchmark may set could hold (the open-loop query backlog
/// behind a snapshot rebuild, the ρ sawtooth's tail, server stalls
/// behind merged reads).
const TAIL: [(&str, &str); 3] =
    [("write_ack_p99_us", "us"), ("query_p99_us", "us"), ("visible_p99_ms", "ms")];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [&str; 61] = [
    "tail.write_ack_p99_us",
    "tail.query_p99_us",
    "tail.visible_p99_ms",
    "quancurrent.update_ns_p50",
    "quancurrent.update_ns_p999",
    "quancurrent.batches",
    "quancurrent.dcas_retries",
    "quancurrent.level_waits",
    "quancurrent.gs_full_spins",
    "quancurrent.holes_per_batch",
    "quancurrent.snapshot_retries",
    "quancurrent.query_hit_ratio",
    "quancurrent.query_miss_us_p50",
    "quancurrent.stale_frac_p50",
    "qc-sequential.update_per_s",
    "quancurrent.update_only_per_s",
    "quancurrent.speedup_vs_sequential",
    "qc-store.query_us_p50",
    "qc-store.merged_query_us_p50",
    "qc-store.cache_hit_ratio",
    "qc-store.update_many_us_p50",
    "qc-store.update_many_us_p99",
    "qc-store.shared_write_ratio",
    "qc-store.promotions",
    "wal.fsyncs_per_ack",
    "wal.group_size_mean",
    "wal.bytes_per_value",
    "wal.commit_wait_us_p50",
    "wal.checkpoint_ms_p50",
    "wal.recovery_s",
    "qc-server.request_us_p50.update_many",
    "qc-server.request_us_p50.query",
    "qc-server.wire_us_p50.update_many",
    "qc-server.wire_us_p50.query",
    "qc-server.rtt_us_p50.merged_query",
    "qc-server.proto_decode_ns",
    "qc-server.proto_encode_ns",
    "qc-ingest.decode_us_p50",
    "qc-ingest.batch_us_p50",
    "qc-ingest.batch_us_p99",
    "qc-ingest.queue_depth_max",
    "qc-ingest.kernel_drop_frac",
    "qc-ingest.shed",
    "qc-ingest.dropped_queue",
    "gen.late_ms_p99",
    "trace.self_us_p50.proto_decode",
    "trace.self_us_p50.store_mem",
    "trace.self_us_p50.store_durable",
    "trace.self_us_p50.proto_encode",
    "trace.self_us_p50.replay_root",
    "trace.residual_us_p50.update_many",
    "trace.residual_us_p50.query",
    "trace.spans",
    "trace.overhead.write_values_per_s",
    "trace.overhead.write_ack_p50_us",
    "trace.overhead.write_ack_p99_us",
    "trace.overhead.query_per_s",
    "trace.overhead.query_p50_us",
    "trace.overhead.query_p99_us",
    "trace.overhead.visible_p50_ms",
    "trace.overhead.visible_p99_ms",
];

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Falsify one observed output, to show the gate fails.
    pub corrupt: bool,
    pub out_dir: PathBuf,
    /// Data directories of this process's stores, removed when the run
    /// ends (per process, so concurrent runs never share one).
    pub scratch_dir: PathBuf,
}

impl Ctx {
    pub fn phase_duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Length of the short stand-alone layer probes of traced runs.
    pub fn probe_duration(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 10.0).clamp(0.2, 1.0))
    }

    fn trace_path(&self) -> PathBuf {
        self.out_dir.join(format!("trace-{}-{}.jsonl", self.workload, self.seed))
    }

    /// Append the spans of each named tracer to this run's trace file.
    pub fn write_spans(&self, tracers: &[(&str, &Tracer)]) -> Result<(), String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.trace_path())
            .map_err(|e| format!("trace file: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        for (name, t) in tracers {
            t.write_jsonl(&mut w, name).map_err(|e| format!("trace file: {e}"))?;
        }
        w.flush().map_err(|e| format!("trace file: {e}"))
    }
}

/// One request of a workload, as the client issues it and as the
/// in-process replay re-issues it.
#[derive(Clone, Debug)]
pub enum Op {
    UpdateMany { key: String, values: Vec<f64> },
    Query { key: String, phi: f64 },
    Merged { keys: Vec<String>, phi: f64 },
}

impl Op {
    pub fn to_request(&self) -> Request {
        match self {
            Op::UpdateMany { key, values } => {
                Request::UpdateMany { key: key.clone(), values: values.clone() }
            }
            Op::Query { key, phi } => Request::Query { key: key.clone(), phi: *phi },
            Op::Merged { keys, phi } => Request::MergedQuery { keys: keys.clone(), phi: *phi },
        }
    }

    /// Issue over TCP; reads return their answer, writes `None`.
    pub fn call(&self, c: &mut Client) -> Result<Option<f64>, ClientError> {
        match self {
            Op::UpdateMany { key, values } => c.update_many(key, values).map(|()| None),
            Op::Query { key, phi } => c.query(key, *phi),
            Op::Merged { keys, phi } => c.merged_query(keys, *phi),
        }
    }

    pub fn client_span(&self) -> &'static str {
        match self {
            Op::UpdateMany { .. } => "client.update_many",
            Op::Query { .. } => "client.query",
            Op::Merged { .. } => "client.merged_query",
        }
    }
}

/// Number of equal windows a timed phase is split into. Each end-to-end
/// figure is computed per window and reported as the mean over the
/// windows without the highest and the lowest: on a shared 2-CPU machine
/// one CPU can run markedly slower for seconds at a time, and that mean
/// moves smoothly with the share of time spent so, where a median would
/// jump between the fast and the slow figure.
pub const WINDOWS: usize = 10;

/// The end-to-end samples of one window of a measured phase.
#[derive(Clone, Default)]
pub struct Window {
    /// Seconds spent inside the window's write calls: the base of the
    /// write rate.
    pub secs: f64,
    /// Seconds spent inside the window's query calls: the base of the
    /// query rate.
    pub query_secs: f64,
    /// Values acknowledged in this window.
    pub writes: u64,
    /// Latency of one acknowledged write of 64 values.
    pub write_ack: Hist,
    pub queries: u64,
    pub query: Hist,
    /// Time from a write being issued until a read counts it.
    pub visible: Hist,
}

/// Calls of one kind in each block of a [`BlockRate`].
pub const BLOCK: u64 = 16;

/// A rate sampled per block of [`BLOCK`] consecutive calls of one kind:
/// the units the block's calls completed (values written, answers) over
/// the seconds spent inside them. The median over the blocks of a phase
/// leaves out the blocks a rare stall of the machine lands in, which a
/// mean over the phase would spread over the whole run.
#[derive(Clone, Default)]
pub struct BlockRate {
    calls: u64,
    units: u64,
    secs: f64,
    pub rates: Vec<f64>,
}

impl BlockRate {
    pub fn add(&mut self, units: u64, secs: f64) {
        self.calls += 1;
        self.units += units;
        self.secs += secs;
        if self.calls == BLOCK {
            self.rates.push(self.units as f64 / self.secs);
            (self.calls, self.units, self.secs) = (0, 0, 0.0);
        }
    }

    fn median(&self) -> Option<f64> {
        (!self.rates.is_empty()).then(|| median(&mut self.rates.clone()))
    }
}

/// The windows of a measured phase: equal slices of a timed phase, where
/// samples land in the window of the instant they are taken at, or the
/// rounds of a phase made of fixed amounts of work.
pub struct PhaseMetrics {
    epoch: Instant,
    len: Duration,
    pub windows: Vec<Window>,
    /// Block rates of the phase's writes and queries, where it takes
    /// them: they then give the write and query rates, in place of the
    /// windows.
    pub write_blocks: BlockRate,
    pub query_blocks: BlockRate,
}

impl PhaseMetrics {
    pub fn new(epoch: Instant, dur: Duration) -> Self {
        PhaseMetrics {
            epoch,
            len: dur / WINDOWS as u32,
            windows: vec![Window::default(); WINDOWS],
            write_blocks: BlockRate::default(),
            query_blocks: BlockRate::default(),
        }
    }

    /// A phase of whole windows, each with its own length.
    pub fn from_windows(windows: Vec<Window>) -> Self {
        PhaseMetrics {
            epoch: Instant::now(),
            len: Duration::ZERO,
            windows,
            write_blocks: BlockRate::default(),
            query_blocks: BlockRate::default(),
        }
    }

    pub fn at(&mut self, t: Instant) -> &mut Window {
        let i = (t.saturating_duration_since(self.epoch).as_nanos() / self.len.as_nanos().max(1))
            as usize;
        let last = self.windows.len() - 1;
        &mut self.windows[i.min(last)]
    }

    pub fn merge(&mut self, other: &PhaseMetrics) {
        self.write_blocks.rates.extend(&other.write_blocks.rates);
        self.query_blocks.rates.extend(&other.query_blocks.rates);
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            a.writes += b.writes;
            a.write_ack.merge(&b.write_ack);
            a.queries += b.queries;
            a.query.merge(&b.query);
            a.visible.merge(&b.visible);
        }
    }

    /// Mean over windows of `f` without its highest and lowest value,
    /// skipping windows where it is undefined.
    fn over_windows(&self, f: impl Fn(&Window) -> Option<f64>) -> f64 {
        let mut xs: Vec<f64> = self.windows.iter().filter_map(f).collect();
        xs.sort_by(f64::total_cmp);
        let kept = if xs.len() >= 5 { &xs[1..xs.len() - 1] } else { &xs[..] };
        kept.iter().sum::<f64>() / kept.len().max(1) as f64
    }

    fn values(&self) -> [(&'static str, f64, &'static str); 8] {
        let q = |h: &Hist, phi: f64, scale: f64| (h.count() > 0).then(|| h.quantile(phi) / scale);
        let rate = |n: u64, secs: f64| (secs > 0.0).then(|| n as f64 / secs);
        // Visibility is taken over the whole phase: under ρ caching it is a
        // sawtooth that equal windows would cut at arbitrary phases.
        let mut visible = Hist::default();
        for w in &self.windows {
            visible.merge(&w.visible);
        }
        [
            (
                "write_values_per_s",
                self.write_blocks
                    .median()
                    .unwrap_or_else(|| self.over_windows(|w| rate(w.writes, w.secs))),
                "1/s",
            ),
            ("write_ack_p50_us", self.over_windows(|w| q(&w.write_ack, 0.5, 1e3)), "us"),
            ("write_ack_p99_us", self.over_windows(|w| q(&w.write_ack, 0.99, 1e3)), "us"),
            (
                "query_per_s",
                self.query_blocks
                    .median()
                    .unwrap_or_else(|| self.over_windows(|w| rate(w.queries, w.query_secs))),
                "1/s",
            ),
            ("query_p50_us", self.over_windows(|w| q(&w.query, 0.5, 1e3)), "us"),
            ("query_p99_us", self.over_windows(|w| q(&w.query, 0.99, 1e3)), "us"),
            ("visible_p50_ms", visible.quantile(0.5) / 1e6, "ms"),
            ("visible_p99_ms", visible.quantile(0.99) / 1e6, "ms"),
        ]
    }

    pub fn report(&self, r: &mut Report) {
        for (n, v, u) in self.values() {
            r.set(n, v, u);
        }
    }

    /// `trace.overhead.<metric>`: this (traced) phase over `base`.
    pub fn overhead(&self, base: &PhaseMetrics, r: &mut Report) {
        for ((n, v, _), (_, b, _)) in self.values().into_iter().zip(base.values()) {
            r.set(format!("trace.overhead.{n}"), if b > 0.0 { v / b } else { 0.0 }, "ratio");
        }
    }
}

pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

pub fn self_peak_rss_mb() -> f64 {
    host::proc_status_kb("/proc/self/status", "VmHWM:") / 1024.0
}

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        corrupt: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        scratch_dir: PathBuf::new(),
    };
    ctx.scratch_dir = ctx.out_dir.join(format!("run-{}", std::process::id()));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => ctx.workload = value()?.clone(),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => ctx.traced = value()? == "1",
            "--corrupt" => ctx.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(ctx.seconds > 0.0 && ctx.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(ctx)
}

fn run(ctx: &Ctx) -> Result<Report, String> {
    std::fs::create_dir_all(&ctx.scratch_dir).map_err(|e| format!("out dir: {e}"))?;
    let result = run_workload(ctx);
    host::remove_dir(&ctx.scratch_dir);
    result
}

fn run_workload(ctx: &Ctx) -> Result<Report, String> {
    let _ = std::fs::remove_file(ctx.trace_path());
    let mut r = Report::default();
    r.corrupt = ctx.corrupt;
    match ctx.workload.as_str() {
        "sketch_mixed" => sketch::run(ctx, &mut r)?,
        _ => serve::run(ctx, &mut r)?,
    }
    if ctx.traced {
        for (n, unit) in TAIL {
            let v = r.get(n).ok_or_else(|| format!("{n} was not measured"))?;
            r.set(format!("tail.{n}"), v, unit);
        }
    }
    let names: Vec<String> = if ctx.traced { PER_LAYER.iter() } else { END_TO_END.iter() }
        .map(|s| s.to_string())
        .collect();
    let mut out = r.select(&names)?;
    if ctx.traced {
        // Report the end-to-end figures of the traced run's untraced phase
        // too (stderr only), so both sides of the overhead ratio are seen.
        eprintln!("end-to-end (untraced phase):");
        for n in END_TO_END {
            if let Some(v) = r.get(n) {
                eprintln!("  {n:<44} {v:>16.4}");
            }
        }
    }
    out.corrupt = ctx.corrupt;
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("host") {
        if let Err(e) = host::host_main(&args[1..]) {
            eprintln!("perfbench host: {e}");
            std::process::exit(2);
        }
        return;
    }
    let ctx = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&ctx) {
        Ok(r) => {
            eprintln!(
                "{} seed {} ({}):",
                ctx.workload,
                ctx.seed,
                if ctx.traced { "traced" } else { "untraced" }
            );
            eprint!("{}", r.describe());
            println!("{}", r.to_json());
            if !r.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
