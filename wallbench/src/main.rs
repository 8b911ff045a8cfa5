//! Timed end-to-end benchmark of the Query Decomposition engine.
//!
//! ```text
//! qd-wallbench --workload <ingest|feedback-closed|serve-update> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, its load generated from a single thread. The
//! run sets up its inputs from scratch several times (the median is
//! `setup_s`), warms up, then measures whole rounds of ops for `--seconds`
//! and checks every output against the brute-force [`oracle`] or against
//! properties the method must have. Times are CPU times of the process
//! (wall-clock figures go to the `#` line); memory is the live-heap peak
//! kept by the [`heap`] allocator. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced run
//! measures half its time untraced and half traced, which gives the tracing
//! overhead, and writes its spans to `out/` beside this package's manifest.
//! See README.md for the workloads and the meaning of every metric.

mod feedback;
mod heap;
mod ingest;
mod oracle;
mod serve;
mod stats;
mod trace;

use stats::{mean, median, percentile, Phase, Timer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Seed of every workload's corpus (and shard partition). The data set is
/// the same in every run; `--seed` draws the load: queries, users, waves,
/// update targets, and probe points.
pub const CORPUS_SEED: u64 = 2006;

/// Command-line options.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// State shared by a run: the correctness ledger, per-layer samples that
/// do not come from spans, and the run's scratch directory.
#[derive(Debug, Default)]
pub struct Ctx {
    /// Correctness violations (the run reports `correct: false` if any).
    pub errors: Vec<String>,
    /// Per-layer samples recorded during traced phases, averaged at the end.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer figures set directly (counts).
    pub figures: BTreeMap<&'static str, f64>,
    /// Extra figures printed on the info line (not part of the JSON).
    pub info: BTreeMap<&'static str, f64>,
    /// Scratch directory for persisted files, removed when the run ends.
    pub tmp: PathBuf,
}

impl Ctx {
    /// Records a correctness violation.
    pub fn fail(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.errors.push(msg);
    }

    /// Records a check: a violation when `ok` is false.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Records one per-layer sample, only while tracing.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if trace::enabled() {
            self.samples.entry(name).or_default().push(value);
        }
    }
}

/// One workload: a set-up that builds its inputs, a warm-up, and rounds
/// of ops. Every round attempts the same ops, so the share of failed ops
/// is the same in every run.
pub trait Workload: Sized {
    /// Builds the workload's inputs from scratch.
    fn setup(opts: &Opts, ctx: &mut Ctx) -> Self;
    /// Runs ops that are neither timed nor counted.
    fn warm_up(&mut self, ctx: &mut Ctx);
    /// Runs one round of ops, recording each into `phase`.
    fn round(&mut self, phase: &mut Phase, ctx: &mut Ctx);
}

/// Per-layer metrics, in output order, with their units.
const LAYERS: &[(&str, &str)] = &[
    ("corpus.build_s", "s"),
    ("imagery.render_us.p50", "us"),
    ("features.extract_us.p50", "us"),
    ("index.insert_us.p50", "us"),
    ("index.insert_us.p99", "us"),
    ("index.height", "count"),
    ("index.nodes", "count"),
    ("index.global_knn_us.p50", "us"),
    ("rfs.reps_ms", "ms"),
    ("rfs.refresh_us.p50", "us"),
    ("persist.qdr_save_ms", "ms"),
    ("persist.qdr_load_ms", "ms"),
    ("persist.qds_save_ms", "ms"),
    ("persist.qds_load_ms", "ms"),
    ("session.round_us.p50", "us"),
    ("session.round_us.p99", "us"),
    ("session.final_us.p50", "us"),
    ("session.final_us.p99", "us"),
    ("session.assemble_us.p50", "us"),
    ("knn.distances.mean", "count"),
    ("knn.nodes.mean", "count"),
    ("session.subqueries.mean", "count"),
    ("session.displays.mean", "count"),
    ("runtime.final_nproc_us.p50", "us"),
    ("runtime.fanout_us.p50", "us"),
    ("serve.wave_nproc_us.p50", "us"),
    ("serve.ticks_per_wave.mean", "count"),
    ("serve.tick_us.mean", "us"),
    ("serve.update_us.p50", "us"),
    ("shard.insert_us.p50", "us"),
    ("shard.remove_us.p50", "us"),
    ("shard.publish_us.p50", "us"),
    ("shard.knn_us.p50", "us"),
    ("host.calib_us", "us"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics read from span durations: `(metric, span, statistic)`.
const SPAN_METRICS: &[(&str, &str, Stat)] = &[
    ("corpus.build_s", "corpus.build", Stat::MedianS),
    ("imagery.render_us.p50", "imagery.render", Stat::P50),
    ("features.extract_us.p50", "features.extract", Stat::P50),
    ("index.insert_us.p50", "index.insert", Stat::P50),
    ("index.insert_us.p99", "index.insert", Stat::P99),
    ("index.global_knn_us.p50", "index.global_knn", Stat::P50),
    ("rfs.reps_ms", "rfs.build_on", Stat::MedianMs),
    ("rfs.refresh_us.p50", "rfs.refresh", Stat::P50),
    ("persist.qdr_save_ms", "persist.qdr_save", Stat::MedianMs),
    ("persist.qdr_load_ms", "persist.qdr_load", Stat::MedianMs),
    ("persist.qds_save_ms", "persist.qds_save", Stat::MedianMs),
    ("persist.qds_load_ms", "persist.qds_load", Stat::MedianMs),
    ("session.round_us.p50", "session.round", Stat::P50),
    ("session.round_us.p99", "session.round", Stat::P99),
    ("session.final_us.p50", "session.final", Stat::P50),
    ("session.final_us.p99", "session.final", Stat::P99),
    ("session.assemble_us.p50", "session.assemble", Stat::P50),
    (
        "runtime.final_nproc_us.p50",
        "runtime.final_nproc",
        Stat::P50,
    ),
    ("serve.wave_nproc_us.p50", "serve.wave_nproc", Stat::P50),
    ("serve.update_us.p50", "serve.update", Stat::P50),
    ("shard.insert_us.p50", "shard.insert", Stat::P50),
    ("shard.remove_us.p50", "shard.remove", Stat::P50),
    ("shard.publish_us.p50", "shard.publish", Stat::P50),
    ("shard.knn_us.p50", "shard.knn", Stat::P50),
];

#[derive(Clone, Copy)]
enum Stat {
    P50,
    P99,
    MedianMs,
    MedianS,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A fixed integer loop that calls no engine code, in microseconds: a slow
/// host shows here, a slow program does not.
fn calibrate() -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..2_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            stats::us(start.elapsed())
        })
        .collect();
    median(&runs)
}

/// Bytes in a megabyte, as the `MB` metrics count them.
const MB: f64 = 1024.0 * 1024.0;

/// A `kB` field of `/proc/self/status` (`VmHWM`, `RssAnon`, …), in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `round` until `seconds` of wall time have passed; the round in
/// progress always finishes.
fn measure<W: Workload>(w: &mut W, seconds: f64, ctx: &mut Ctx) -> Phase {
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    loop {
        w.round(&mut phase, ctx);
        if start.elapsed() >= limit {
            return phase;
        }
    }
}

struct Run {
    /// CPU time of each set-up, in seconds.
    setup_s: Vec<f64>,
    /// Wall-clock time of each set-up, in seconds.
    setup_wall_s: Vec<f64>,
    phases: Vec<Phase>,
    spans: Vec<trace::Span>,
    steal_pct: f64,
}

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Workers the engine uses by default (`QD_THREADS` unset): one per CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn drive<W: Workload>(opts: &Opts, ctx: &mut Ctx) -> Run {
    if opts.trace {
        trace::enable();
    }
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut w: Option<W> = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let timer = Timer::start();
        w = Some(W::setup(opts, ctx));
        let took = timer.stop();
        setup_s.push(took.cpu.as_secs_f64());
        setup_wall_s.push(took.wall.as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    trace::pause();
    w.warm_up(ctx);
    let (steal0, total0) = cpu_ticks();
    let phases = if opts.trace {
        let untraced = measure(&mut w, opts.seconds / 2.0, ctx);
        trace::enable();
        let traced = measure(&mut w, opts.seconds / 2.0, ctx);
        trace::pause();
        vec![untraced, traced]
    } else {
        vec![measure(&mut w, opts.seconds, ctx)]
    };
    let (steal1, total1) = cpu_ticks();
    Run {
        setup_s,
        setup_wall_s,
        phases,
        spans: trace::take(),
        steal_pct: 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
    }
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn layer_metrics(run: &Run, ctx: &Ctx, calib_us: f64) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&(n, _)| (n, 0.0)).collect();
    let by = trace::durations_us(&run.spans);
    for &(metric, span, stat) in SPAN_METRICS {
        if let Some(v) = by.get(span) {
            m.insert(
                metric,
                match stat {
                    Stat::P50 => percentile(v, 0.5),
                    Stat::P99 => percentile(v, 0.99),
                    Stat::MedianMs => median(v) / 1e3,
                    Stat::MedianS => median(v) / 1e6,
                },
            );
        }
    }
    if by.contains_key("runtime.final_nproc") {
        m.insert(
            "runtime.fanout_us.p50",
            m["runtime.final_nproc_us.p50"] - m["session.final_us.p50"],
        );
    }
    for (name, v) in &ctx.samples {
        m.insert(name, mean(v));
    }
    for (name, v) in &ctx.figures {
        m.insert(name, *v);
    }
    m.insert("host.calib_us", calib_us);
    m.insert("host.steal_pct", run.steal_pct);
    let (untraced, traced) = (run.phases[0].mean_rate(), run.phases[1].mean_rate());
    m.insert("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
    m
}

/// Prints every throughput sample of a phase with the p50 and p99 of the
/// ops it covers, so a run's numbers can be explained without rerunning it.
fn print_blocks(p: &Phase) {
    let mut from = 0;
    let blocks: Vec<String> = p
        .rates
        .iter()
        .zip(&p.sample_ends)
        .map(|(r, &to)| {
            let lat = &p.op_us[from..to];
            from = to;
            format!(
                "[{r:.1},{:.1},{:.1}]",
                percentile(lat, 0.5),
                percentile(lat, 0.99)
            )
        })
        .collect();
    eprintln!("BLOCKS [{}]", blocks.join(","));
}

/// Self-time profile of the traced run, one line per span name.
fn print_profile(spans: &[trace::Span]) {
    let own = trace::self_ns(spans);
    let mut by: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, o) in spans.iter().zip(&own) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += o;
    }
    eprintln!(
        "{:<22} {:>9} {:>12} {:>12}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, (calls, total, own)) in by {
        eprintln!(
            "{name:<22} {calls:>9} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: qd-wallbench --workload <ingest|feedback-closed|serve-update> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    let _tmp_guard = TmpDir(tmp.clone());
    let mut ctx = Ctx {
        tmp,
        ..Ctx::default()
    };

    let calib_start = calibrate();
    // The engine runs on one thread: on a host whose CPUs are shared, a
    // fan-out waits for every worker, so its time follows the neighbours'
    // load (README, "Steadiness"). Traced runs time the same calls at
    // `nproc()` workers for comparison.
    let run = qd_runtime::with_threads(1, || match opts.workload.as_str() {
        "ingest" => drive::<ingest::Ingest>(&opts, &mut ctx),
        "feedback-closed" => drive::<feedback::Feedback>(&opts, &mut ctx),
        "serve-update" => drive::<serve::Serve>(&opts, &mut ctx),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    });
    let calib_end = calibrate();
    let calib_us = median(&[calib_start, calib_end]);

    let attempted: u64 = run.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = run.phases.iter().map(|p| p.failed).sum();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        let layers = layer_metrics(&run, &ctx, calib_us);
        for &(name, unit) in LAYERS {
            metrics.push((name, layers[name], unit));
        }
        let path = out_dir().join(format!("spans-{}-seed{}.tsv", opts.workload, opts.seed));
        match trace::write_tsv(&run.spans, &path) {
            Ok(()) => eprintln!("{} spans written to {}", run.spans.len(), path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
        print_profile(&run.spans);
    } else {
        let p = &run.phases[0];
        metrics.push(("setup_s", median(&run.setup_s), "s"));
        metrics.push(("ops_per_s", p.ops_per_s(), "1/s"));
        metrics.push(("op_p50_us", percentile(&p.op_us, 0.5), "us"));
        metrics.push(("op_p99_us", percentile(&p.op_us, 0.99), "us"));
        metrics.push(("peak_heap_mb", p.peak_bytes as f64 / MB, "MB"));
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            ctx.fail(format!("metric {name} is not finite"));
        }
    }

    let mut info = format!(
        "# workload={} seed={} seconds={} trace={} setups_cpu_s={:?} setups_wall_s={:?} ops={} blocks={} host.calib_us start={calib_start:.1} end={calib_end:.1} host.steal_pct={:.2} vm_hwm_mb={:.2}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        run.setup_s,
        run.setup_wall_s,
        run.phases.iter().map(|p| p.op_us.len()).sum::<usize>(),
        run.phases.iter().map(|p| p.rates.len()).sum::<usize>(),
        run.steal_pct,
        status_mb("VmHWM"),
    );
    for (i, p) in run.phases.iter().enumerate() {
        info.push_str(&format!(
            " phase{i}.ops={} phase{i}.ops_per_s={:.1} phase{i}.wall_p50_us={:.1} phase{i}.wall_p99_us={:.1}",
            p.op_us.len(),
            p.ops_per_s(),
            percentile(&p.op_wall_us, 0.5),
            percentile(&p.op_wall_us, 0.99)
        ));
    }
    for p in &run.phases {
        print_blocks(p);
    }
    for (k, v) in &ctx.info {
        info.push_str(&format!(" {k}={v:.1}"));
    }
    println!("{info}");

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        ctx.errors.is_empty(),
        body.join(", ")
    );
}

/// SplitMix64: every seeded choice of the benchmark hashes through this.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from a hash.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}
