//! End-to-end and per-layer benchmark of the xtwig serving and ingest
//! paths. See `README.md` beside this package for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! xtwig-perfbench --workload <serve-hot|serve-cold|maintain> --seed <n>
//!                 --seconds <s> --trace <0|1> [--size <full|toy>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics when
//! `--trace 0`, the per-layer metrics when `--trace 1`. A human-readable
//! table goes to standard error. The exit code is 0 only when every
//! operation succeeded and passed its correctness check.

mod maintain;
mod report;
mod serve;
mod trace;
mod vfs;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use xtwig_core::{CatalogStats, EstimateOptions, EstimateReport, SnapshotCatalog};
use xtwig_query::{parse_twig, TwigQuery};
use xtwig_workload::{generate_workload, WorkloadKind, WorkloadSpec};

use report::{mean, median, quantile, ratio, Declared, Metrics, ProcStats, Timing};
use trace::Span;
use vfs::{CountingVfs, IoSnapshot};

/// At most this many root operations are traced per run (a stride
/// samples the rest), bounding span memory on `serve-hot`.
const TRACED_ROOTS: usize = 40_000;

/// The end-to-end metrics, in output order.
const E2E_METRICS: &Declared = &[
    ("setup_s", "s"),
    ("throughput_qps", "estimates/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("success_rate", "share"),
    ("rel_error", "share"),
    ("peak_rss_mb", "MB"),
    ("stored_bytes", "B"),
];

/// The per-layer metrics of the traced run, in output order. Every
/// workload reports all of them; a layer a workload does not exercise
/// reads 0.
const LAYER_METRICS: &Declared = &[
    ("query.parse_us_p50", "us"),
    ("catalog.serve_hit_us_p50", "us"),
    ("catalog.fault_in_us_p50", "us"),
    ("catalog.fault_in_us_p99", "us"),
    ("catalog.cold_loads", "count"),
    ("catalog.cold_load_share", "share"),
    ("catalog.evictions", "count"),
    ("catalog.warm_hits", "count"),
    ("catalog.publish_ms_p50", "ms"),
    ("cache.hit_rate", "share"),
    ("cache.misses", "count"),
    ("estimate.expand_us_p50", "us"),
    ("estimate.expand_us_p99", "us"),
    ("estimate.eval_us_p50", "us"),
    ("estimate.eval_us_p99", "us"),
    ("estimate.embeddings_per_query", "count"),
    ("estimate.buckets_per_query", "count"),
    ("estimate.work_per_query", "count"),
    ("estimate.memo_hit_rate", "share"),
    ("io.read_us_p50", "us"),
    ("io.read_bytes_per_fault_in", "B"),
    ("io.fsync_us_p50", "us"),
    ("io.fsync_us_p99", "us"),
    ("io.fsyncs", "count"),
    ("io.bytes_written", "B"),
    ("io.renames", "count"),
    ("io.v3_encode_ms", "ms"),
    ("construct.parse_s", "s"),
    ("construct.coarse_s", "s"),
    ("construct.xbuild_s", "s"),
    ("construct.xbuild_rounds", "count"),
    ("compiled.compile_ms", "ms"),
    ("xmldoc.apply_delta_us_p50", "us"),
    ("ingest.dps", "deltas/s"),
    ("ingest.p50_us", "us"),
    ("ingest.p99_us", "us"),
    ("ingest.delta_us_p50", "us"),
    ("ingest.checkpoint_coarse_ms_p50", "ms"),
    ("ingest.checkpoint_refined_ms_p50", "ms"),
    ("ingest.checkpoints", "count"),
    ("ingest.refinements", "count"),
    ("ingest.full_rebuilds", "count"),
    ("ingest.recovery_replayed", "count"),
    ("ingest.recovery_ms_p50", "ms"),
    ("ingest.write_bytes_per_delta", "B"),
    ("ingest.fsyncs_per_delta", "count"),
    ("self.query_us", "us"),
    ("self.catalog_us", "us"),
    ("self.estimate_us", "us"),
    ("self.io_us", "us"),
    ("self.ingest_us", "us"),
    ("trace.coverage", "share"),
    ("traced.throughput_qps", "estimates/s"),
    ("traced.latency_p50_us", "us"),
    ("traced.latency_p99_us", "us"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minor_faults", "count"),
];

/// Input sizes: `full` for measurement, `toy` for the determinism test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// Tiny documents and few operations.
    Toy,
}

/// A per-document query pool: P+V twig queries (half carry value
/// predicates) with their exact counts, as text and parsed.
pub struct Pool {
    /// Query text, as clients send it.
    pub texts: Vec<String>,
    /// The parsed text (what the server sees).
    pub queries: Vec<TwigQuery>,
    /// Exact binding-tuple counts on the original document.
    pub truths: Vec<f64>,
}

/// Generates the pool of `n` queries for `doc`. The pool is fixed by
/// the document (its seed is a constant); `--seed` varies only the
/// request stream, so accuracy stays comparable across seeds.
pub fn pool_for(doc: &xtwig_xml::Document, n: usize) -> Pool {
    let w = generate_workload(
        doc,
        &WorkloadSpec {
            queries: n,
            kind: WorkloadKind::BranchingValues,
            seed: 0x9001,
            ..Default::default()
        },
    );
    let texts: Vec<String> = w.queries.iter().map(ToString::to_string).collect();
    let queries: Vec<TwigQuery> = texts
        .iter()
        .map(|t| parse_twig(t).expect("rendered queries parse"))
        .collect();
    assert!(
        queries == w.queries,
        "query text must round-trip through parse_twig"
    );
    Pool {
        texts,
        queries,
        truths: w.truths.iter().map(|&t| t as f64).collect(),
    }
}

/// `warm()` calls the traced run adds before each `serve()`. Each makes
/// the key resident, so the `serve()` after it counts one catalog warm
/// hit that an untraced request would not.
static HARNESS_WARMS: AtomicU64 = AtomicU64::new(0);

/// The `warm()` calls made by [`read`] so far.
pub fn harness_warms() -> u64 {
    HARNESS_WARMS.load(Ordering::Relaxed)
}

/// One read request from query text to reports: parse, (traced run:
/// warm, timed as a fault-in when it read the snapshot), serve.
pub fn read(
    catalog: &SnapshotCatalog,
    vfs: &CountingVfs,
    tenant: &str,
    document: &str,
    texts: &[&str],
    opts: &EstimateOptions,
) -> Result<Vec<EstimateReport>, String> {
    let queries = {
        let _s = trace::span("query.parse");
        texts
            .iter()
            .map(|t| parse_twig(t))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?
    };
    if trace::enabled() {
        HARNESS_WARMS.fetch_add(1, Ordering::Relaxed);
        let g = trace::span("catalog.warm");
        let reads = vfs.snapshot().reads;
        catalog.warm(tenant, document).map_err(|e| e.to_string())?;
        if vfs.snapshot().reads > reads {
            g.rename("catalog.fault_in");
        }
    }
    let _s = trace::span("catalog.serve");
    let reports = catalog
        .serve(tenant, document, &queries, opts)
        .map_err(|e| e.to_string())?;
    if trace::enabled() {
        for rep in reports.iter().filter(|rep| !rep.provenance.cached) {
            trace::derived(&[
                ("estimate.expand", rep.telemetry.expand_ns),
                ("estimate.eval", rep.telemetry.eval_ns),
            ]);
        }
    }
    drop(queries);
    Ok(reports)
}

/// A CPU set as the Linux affinity calls take it: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// The CPUs this process may run on, read before the first pin.
fn start_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024).filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1).collect()
    })
}

/// Pins the calling thread to one of the CPUs the process started
/// with, taking them in turn by `pass`; returns that CPU. Does nothing
/// (and returns 0) where the affinity calls fail.
pub fn pin_for_pass(pass: usize) -> usize {
    let cpus = start_cpus();
    let Some(&cpu) = cpus.get(pass % cpus.len().max(1)) else {
        return 0;
    };
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed. A failed call
    // leaves the affinity as it was, which only costs steadiness.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask);
    }
    cpu
}

/// FNV-1a over the request stream, so a test can tell two streams
/// apart without comparing timings.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes in bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in an integer.
    pub fn int(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// End-to-end metrics (untraced meaning; the traced run reports
    /// them again as `traced.*`).
    pub e2e: Metrics,
    /// What the timings among them came from.
    pub timing: Timing,
    /// Per-layer metrics.
    pub layer: Metrics,
    /// Write-side figures, printed to stderr in every run (and also
    /// part of `layer`).
    pub extra: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or did not pass their correctness check.
    pub failed: u64,
    /// Recorded spans (traced run).
    pub spans: Vec<Span>,
    /// Fingerprint of the request (and delta) stream.
    pub stream: Fingerprint,
}

/// What the read path of a run produced, for its per-layer metrics.
pub struct ReadSide<'a> {
    /// The run's spans.
    pub spans: &'a [Span],
    /// Measured reports that were not served from the cache (traced run).
    pub uncached: &'a [EstimateReport],
    /// Measured estimates served from the cache.
    pub cached: u64,
    /// Measured estimates.
    pub estimates: u64,
    /// Measured read requests.
    pub requests: u64,
    /// Catalog counters before and after the measured phase.
    pub catalog: (&'a CatalogStats, &'a CatalogStats),
    /// [`harness_warms`] before and after the measured phase.
    pub harness_warms: (u64, u64),
}

/// Per-layer metrics of the read path; returns the measured cold loads.
fn put_read_layers(layer: &mut Metrics, r: &ReadSide<'_>) -> u64 {
    let (spans, uncached, cached, estimates) = (r.spans, r.uncached, r.cached, r.estimates);
    let us = |name| trace::durations_us(spans, name);
    layer.put("query.parse_us_p50", median(&us("query.parse")));
    layer.put(
        "catalog.serve_hit_us_p50",
        median(&us("catalog.serve")));
    let fault_in = us("catalog.fault_in");
    layer.put("catalog.fault_in_us_p50", median(&fault_in));
    layer.put("catalog.fault_in_us_p99", quantile(&fault_in, 0.99));
    layer.put(
        "cache.hit_rate",
        ratio(cached as f64, estimates as f64));
    layer.put("cache.misses", (estimates - cached) as f64);
    let tel = |f: fn(&EstimateReport) -> f64| uncached.iter().map(f).collect::<Vec<f64>>();
    let expand = tel(|r| r.telemetry.expand_ns as f64 / 1e3);
    let eval = tel(|r| r.telemetry.eval_ns as f64 / 1e3);
    layer.put("estimate.expand_us_p50", median(&expand));
    layer.put("estimate.expand_us_p99", quantile(&expand, 0.99));
    layer.put("estimate.eval_us_p50", median(&eval));
    layer.put("estimate.eval_us_p99", quantile(&eval, 0.99));
    let embeddings = tel(|r| r.provenance.embeddings as f64);
    layer.put("estimate.embeddings_per_query", mean(&embeddings));
    let buckets = tel(|r| r.telemetry.buckets_visited as f64);
    layer.put("estimate.buckets_per_query", mean(&buckets));
    let work = tel(|r| r.provenance.work as f64);
    layer.put("estimate.work_per_query", mean(&work));
    let memo = tel(|r| f64::from(u8::from(r.provenance.memo_hit == Some(true))));
    layer.put("estimate.memo_hit_rate", mean(&memo));
    let (before, after) = r.catalog;
    let cold_loads = after.cold_loads - before.cold_loads;
    layer.put("catalog.cold_loads", cold_loads as f64);
    let share = ratio(cold_loads as f64, r.requests as f64);
    layer.put("catalog.cold_load_share", share);
    let evictions = after.evictions - before.evictions;
    layer.put("catalog.evictions", evictions as f64);
    // Less the hits the traced run's own `warm()` calls cause, so the
    // count is what an untraced run of the same stream would see.
    let warms = r.harness_warms.1 - r.harness_warms.0;
    let warm_hits = (after.warm_hits - before.warm_hits).saturating_sub(warms);
    layer.put("catalog.warm_hits", warm_hits as f64);
    cold_loads
}

/// Per-layer metrics of the storage layer. `fault_in_bytes` counts
/// the bytes read by catalog fault-ins only.
fn put_io_layers(
    layer: &mut Metrics,
    spans: &[Span],
    io: &IoSnapshot,
    fault_in_bytes: u64,
    cold_loads: u64,
) {
    let us = |name| trace::durations_us(spans, name);
    layer.put("io.read_us_p50", median(&us("io.read")));
    layer.put(
        "io.read_bytes_per_fault_in",
        ratio(fault_in_bytes as f64, cold_loads as f64));
    let fsync = us("io.fsync");
    layer.put("io.fsync_us_p50", median(&fsync));
    layer.put("io.fsync_us_p99", quantile(&fsync, 0.99));
    layer.put("io.fsyncs", io.fsyncs as f64);
    layer.put("io.bytes_written", io.bytes_written as f64);
    layer.put("io.renames", io.renames as f64);
}

/// Self times by layer, coverage, the traced run's own end-to-end
/// figures, and process counters.
fn put_trace_layers(layer: &mut Metrics, spans: &[Span], e2e: &Metrics, proc: &ProcStats) {
    let b = trace::breakdown(spans);
    for name in ["query", "catalog", "estimate", "io", "ingest"] {
        let v = b.self_us.get(name).copied().unwrap_or(0.0);
        layer.put(&format!("self.{name}_us"), v);
    }
    layer.put("trace.coverage", b.coverage);
    for name in ["throughput_qps", "latency_p50_us", "latency_p99_us"] {
        layer.put(&format!("traced.{name}"), e2e.get(name).unwrap_or(0.0));
    }
    layer.put("proc.user_s", proc.user_s);
    layer.put("proc.sys_s", proc.sys_s);
    layer.put("proc.minor_faults", proc.minor_faults);
}

/// Which share of a run's timed passes a process runs.
#[derive(Debug, Clone, Copy)]
pub struct Share {
    /// This process's index, from 0.
    pub part: usize,
    /// Processes in the run.
    pub parts: usize,
}

impl Share {
    /// One process runs every pass.
    const WHOLE: Share = Share { part: 0, parts: 1 };

    /// This process's share of `passes` timed passes.
    pub fn of(self, passes: usize) -> usize {
        passes / self.parts + usize::from(self.part < passes % self.parts)
    }
}

/// Processes an untraced run is split into. On the 2-vCPU host about
/// one process in five ran every pass up to 1.6x slower than the
/// processes before and after it, on either CPU. Each process sets up
/// afresh and runs a share of the passes, and every position keeps its
/// best time over all of them, so a single slow process does not move the
/// run.
const PARTS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    /// Set in a process the run started: its share and where to write
    /// its timings and metrics.
    part: Option<(Share, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut part = None;
    let mut parts = None;
    let mut part_file = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = num()? != 0,
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "toy" => Size::Toy,
                    _ => return Err(format!("--size {value}: expected full or toy")),
                }
            }
            "--part" => part = Some(num()? as usize),
            "--parts" => parts = Some(num()?.max(1) as usize),
            "--part-file" => part_file = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        size,
        part: match (part, parts, part_file) {
            (Some(part), Some(parts), Some(file)) => Some((Share { part, parts }, file)),
            (None, None, None) => None,
            _ => return Err("--part, --parts and --part-file go together".into()),
        },
    })
}

/// The name of `size` on the command line.
fn size_flag(size: Size) -> &'static str {
    match size {
        Size::Full => "full",
        Size::Toy => "toy",
    }
}

/// Writes a part's result for the process that started it: counts,
/// end-to-end metrics, then its [`Timing`].
fn write_part(path: &Path, outcome: &Outcome) -> std::io::Result<()> {
    let mut text = format!(
        "{} {} {:x}\n",
        outcome.attempted, outcome.failed, outcome.stream.0
    );
    for name in outcome.e2e.names() {
        let v = outcome.e2e.get(name).unwrap_or(0.0);
        text.push_str(&format!("{name} {v:?}\n"));
    }
    text.push_str("timing\n");
    text.push_str(&outcome.timing.to_text());
    std::fs::write(path, text)
}

/// What one part reported.
struct Part {
    attempted: u64,
    failed: u64,
    stream: Fingerprint,
    e2e: Metrics,
    timing: Timing,
}

fn read_part(path: &Path) -> Option<Part> {
    let text = std::fs::read_to_string(path).ok()?;
    let (head, timing) = text.split_once("timing\n")?;
    let mut lines = head.lines();
    let mut counts = lines.next()?.split(' ');
    let (attempted, failed, stream) = (counts.next()?, counts.next()?, counts.next()?);
    let mut e2e = Metrics::default();
    for line in lines {
        let (name, value) = line.split_once(' ')?;
        e2e.put(name, value.parse().ok()?);
    }
    Some(Part {
        attempted: attempted.parse().ok()?,
        failed: failed.parse().ok()?,
        stream: Fingerprint(u64::from_str_radix(stream, 16).ok()?),
        e2e,
        timing: Timing::from_text(timing)?,
    })
}

/// Runs an untraced run as [`PARTS`] processes, one after another, and
/// merges them: timings per position, counts summed, the other
/// metrics as medians over the parts. `None` if a part did not report.
fn run_parts(args: &Args, passes: usize, work: &Path) -> Option<(Outcome, bool)> {
    let exe = std::env::current_exe().ok()?;
    let parts = PARTS.min(passes).max(1);
    let mut reports = Vec::with_capacity(parts);
    let mut all_ok = true;
    for part in 0..parts {
        let file = work.join(format!("part-{part}"));
        let status = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--size", size_flag(args.size)])
            .args(["--part", &part.to_string(), "--parts", &parts.to_string()])
            .arg("--part-file")
            .arg(&file)
            .stdout(std::process::Stdio::null())
            .status()
            .ok()?;
        all_ok &= status.success();
        reports.push(read_part(&file)?);
    }
    let mut timing = reports[0].timing.clone();
    for r in &reports[1..] {
        timing.merge(&r.timing);
    }
    let mut e2e = Metrics::default();
    timing.put(&mut e2e);
    let attempted = reports.iter().map(|r| r.attempted).sum::<u64>();
    let failed = reports.iter().map(|r| r.failed).sum::<u64>();
    e2e.put(
        "success_rate",
        ratio((attempted - failed) as f64, attempted as f64),
    );
    for name in ["rel_error", "peak_rss_mb", "stored_bytes"] {
        let values: Vec<f64> = reports.iter().filter_map(|r| r.e2e.get(name)).collect();
        e2e.put(name, median(&values));
    }
    let outcome = Outcome {
        e2e,
        timing,
        layer: Metrics::default(),
        extra: Metrics::default(),
        attempted,
        failed,
        spans: Vec::new(),
        stream: reports[0].stream,
    };
    Some((outcome, all_ok))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtwig-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = match args.workload.as_str() {
        "serve-hot" => Some(serve::Mode::Hot),
        "serve-cold" => Some(serve::Mode::Cold),
        "maintain" => None,
        other => {
            eprintln!("xtwig-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    // Scratch state lives inside the working directory and is removed
    // before exit.
    let work: PathBuf = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if work.exists() {
        std::fs::remove_dir_all(&work).expect("clear the work directory");
    }
    std::fs::create_dir_all(&work).expect("create the work directory");

    // The traced run is one process; an untraced run starts its parts.
    let merged = if args.trace || args.part.is_some() {
        let share = args.part.as_ref().map_or(Share::WHOLE, |p| p.0);
        let outcome = match mode {
            Some(m) => serve::run(m, args.size, args.seed, args.seconds, share, &work),
            None => maintain::run(args.size, args.seed, args.seconds, share, &work),
        };
        Some((outcome, true))
    } else {
        let passes = match mode {
            Some(m) => serve::passes(m, args.size, args.seconds),
            None => maintain::passes(args.size, args.seconds),
        };
        run_parts(&args, passes, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using the parent directory.
    let _ = std::fs::remove_dir(".bench_work");
    let Some((outcome, parts_ok)) = merged else {
        eprintln!("xtwig-perfbench: a part of the run did not report");
        return ExitCode::FAILURE;
    };
    if let Some((_, file)) = &args.part {
        if let Err(e) = write_part(file, &outcome) {
            eprintln!("xtwig-perfbench: could not write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    }

    let e2e = outcome.e2e.declared(E2E_METRICS);
    eprintln!(
        "{} seed {}: {} operations attempted, {} failed",
        args.workload, args.seed, outcome.attempted, outcome.failed
    );
    eprintln!("request stream fingerprint: {:016x}", outcome.stream.0);
    let title = match &args.part {
        Some((share, _)) => format!("end-to-end, part {} of {}:", share.part + 1, share.parts),
        None => "end-to-end:".to_owned(),
    };
    e2e.print_table(&title, E2E_METRICS);
    if outcome.extra.names().next().is_some() {
        outcome.extra.print_table("write side:", LAYER_METRICS);
    }
    let layer = outcome.layer.declared(LAYER_METRICS);
    let shown = if args.trace {
        layer.print_table("per-layer (traced run):", LAYER_METRICS);
        let path = Path::new(".bench_trace")
            .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        match trace::dump(&outcome.spans, &path) {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
        (&layer, LAYER_METRICS)
    } else {
        (&e2e, E2E_METRICS)
    };
    let correct = outcome.failed == 0 && parts_ok;
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, shown.0, shown.1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
