//! Serving-path throughput benchmark: compiled vs. interpreted
//! estimation across all three generators, emitting
//! `BENCH_estimation.json` so every PR has a perf trajectory.
//!
//! Per dataset it measures:
//!
//! * **single-query speedup** — wall time of repeated single-query
//!   estimates, interpreted vs. compiled, on the same
//!   query set, asserting the two paths agree **bit-for-bit** on every
//!   query (the estimates are one computation in two representations);
//! * **serve latency** — per-query p50/p95/p99 over the compiled path,
//!   plus per-stage breakdowns (expansion vs. TREEPARSE evaluation)
//!   taken from each [`xtwig_core::EstimateReport`]'s query telemetry;
//! * **batch throughput** — `BatchServer` QPS on scoped threads with
//!   the sharded estimate cache, cold then warm, plus the cache hit-rate.
//!
//! Environment: the usual `XTWIG_SCALE` / `XTWIG_QUERIES`, plus
//! `XTWIG_BENCH_OUT` (output path, default `BENCH_estimation.json`) and
//! `XTWIG_ENFORCE_SPEEDUP=1` to fail the run if compiled estimation is
//! not faster than interpreted (CI sets it). Estimate disagreement
//! always fails the run.

use std::sync::Arc;
use std::time::Instant;
use xtwig_bench::BenchConfig;
use xtwig_core::construct::BuildOptions;
use xtwig_core::{
    load_compiled_arena, load_synopsis, save_synopsis, save_synopsis_v3, xbuild, AlignedBytes,
    BatchServer, CatalogOptions, CompiledSynopsis, EstimateCache, EstimateOptions, EstimateRequest,
    Estimator, InterpretedEstimator, SnapshotCatalog, TruthSource,
};
use xtwig_datagen::Dataset;
use xtwig_workload::{generate_workload, WorkloadKind, WorkloadSpec};

/// Per-dataset measurements destined for the JSON report.
struct DatasetReport {
    name: String,
    queries: usize,
    interpreted_qps: f64,
    compiled_qps: f64,
    speedup: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    expand_us_p50: f64,
    expand_us_p95: f64,
    eval_us_p50: f64,
    eval_us_p95: f64,
    batch_cold_qps: f64,
    batch_warm_qps: f64,
    cache_hit_rate: f64,
    v2_parse_compile_us: f64,
    v3_page_in_us: f64,
    cold_load_speedup: f64,
    multi_tenant_qps: f64,
    mismatches: usize,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let cfg = BenchConfig::from_env();
    cfg.announce("Serving-path throughput: compiled vs. interpreted estimation");
    let out_path =
        std::env::var("XTWIG_BENCH_OUT").unwrap_or_else(|_| "BENCH_estimation.json".to_string());
    let enforce_speedup = std::env::var("XTWIG_ENFORCE_SPEEDUP").as_deref() == Ok("1");

    let mut reports: Vec<DatasetReport> = Vec::new();
    let mut total_mismatches = 0usize;

    for ds in Dataset::ALL {
        let doc = ds.generate(cfg.scale);
        let build = BuildOptions {
            budget_bytes: 24 * 1024,
            refinements_per_round: 4,
            candidates_per_round: 8,
            sample_queries: 12,
            max_rounds: 40,
            ..Default::default()
        };
        let (s, _) = xbuild(&doc, TruthSource::Exact, &build);
        let spec = WorkloadSpec {
            queries: cfg.queries,
            kind: WorkloadKind::Branching,
            seed: 0x5E,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        if w.queries.is_empty() {
            eprintln!("warning: {} produced no workload at this scale", ds.name());
            continue;
        }
        let opts = EstimateOptions::default();
        let cs = CompiledSynopsis::compile(&s);
        let interp = InterpretedEstimator::new(&s);

        // --- single-query speedup + bit-identity -----------------------
        // The speedup subset keeps the repeat loop affordable while the
        // full workload still feeds the serve/batch phases below.
        let subset: Vec<_> = w.queries.iter().take(64).cloned().collect();
        let mut mismatches = 0usize;
        for q in &subset {
            let a = interp
                .estimate(&EstimateRequest::with_options(q, opts))
                .estimate;
            let b = cs
                .estimate(&EstimateRequest::with_options(q, opts))
                .estimate;
            if a.to_bits() != b.to_bits() {
                eprintln!(
                    "MISMATCH {}: interpreted {a} vs compiled {b} for {q}",
                    ds.name()
                );
                mismatches += 1;
            }
        }
        total_mismatches += mismatches;

        // Warmed already (agreement pass touched every query, priming
        // the expansion memo). Repeat to smooth timer noise.
        let repeats = 5usize;
        let t0 = Instant::now();
        for _ in 0..repeats {
            for q in &subset {
                std::hint::black_box(
                    interp
                        .estimate(&EstimateRequest::with_options(q, opts))
                        .estimate,
                );
            }
        }
        let interp_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        for _ in 0..repeats {
            for q in &subset {
                std::hint::black_box(
                    cs.estimate(&EstimateRequest::with_options(q, opts))
                        .estimate,
                );
            }
        }
        let compiled_secs = t1.elapsed().as_secs_f64();
        let calls = (repeats * subset.len()) as f64;
        let interpreted_qps = calls / interp_secs.max(1e-9);
        let compiled_qps = calls / compiled_secs.max(1e-9);
        let speedup = interp_secs / compiled_secs.max(1e-9);

        // --- serve latency distribution (compiled, single thread) ------
        // Wall latency from the clock, per-stage split from the report's
        // query telemetry (expansion vs. TREEPARSE evaluation).
        let mut lat_us: Vec<f64> = Vec::with_capacity(subset.len());
        let mut expand_us: Vec<f64> = Vec::with_capacity(subset.len());
        let mut eval_us: Vec<f64> = Vec::with_capacity(subset.len());
        for q in &subset {
            let t = Instant::now();
            let rep = std::hint::black_box(cs.estimate_report(q, &opts));
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            expand_us.push(rep.telemetry.expand_ns as f64 / 1e3);
            eval_us.push(rep.telemetry.eval_ns as f64 / 1e3);
        }
        lat_us.sort_by(f64::total_cmp);
        expand_us.sort_by(f64::total_cmp);
        eval_us.sort_by(f64::total_cmp);

        // --- batched serving through the cache --------------------------
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cache = EstimateCache::new(4096);
        let tb = Instant::now();
        let cold = BatchServer::new(&cs)
            .with_cache(&cache)
            .with_options(opts)
            .with_threads(threads)
            .serve(&w.queries);
        let cold_secs = tb.elapsed().as_secs_f64();
        let tw = Instant::now();
        let warm = BatchServer::new(&cs)
            .with_cache(&cache)
            .with_options(opts)
            .with_threads(threads)
            .serve(&w.queries);
        let warm_secs = tw.elapsed().as_secs_f64();
        for (a, b) in cold.iter().zip(&warm) {
            if a.estimate.to_bits() != b.estimate.to_bits() {
                eprintln!("MISMATCH {}: cold vs warm batch estimate", ds.name());
                total_mismatches += 1;
            }
        }
        let stats = cache.stats();

        // --- cold page-in: v2 parse-and-compile vs v3 zero-copy --------
        // The cost a catalog pays the first time a tenant's document is
        // touched. v2 deserializes every bucket then compiles the SoA
        // lanes; v3 validates the header + table + META CRCs and carves
        // lane views straight into an already-established arena mapping
        // (with mmap the mapping itself is O(1); `AlignedBytes` is the
        // portable stand-in, so its one-time copy is kept outside the
        // timed region).
        let v2_bytes = save_synopsis(&s);
        let v3_bytes = save_synopsis_v3(&s);
        let arena = Arc::new(AlignedBytes::from_bytes(&v3_bytes));
        let page_iters = 25usize;
        let mut v2_us: Vec<f64> = Vec::with_capacity(page_iters);
        let mut v3_us: Vec<f64> = Vec::with_capacity(page_iters);
        for _ in 0..page_iters {
            let t = Instant::now();
            let syn = load_synopsis(&v2_bytes).expect("v2 snapshot loads");
            let compiled = CompiledSynopsis::compile(&syn);
            std::hint::black_box(&compiled);
            v2_us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(compiled);
            let t = Instant::now();
            let mapped = load_compiled_arena(Arc::clone(&arena)).expect("v3 snapshot loads");
            std::hint::black_box(&mapped);
            v3_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        v2_us.sort_by(f64::total_cmp);
        v3_us.sort_by(f64::total_cmp);
        let v2_parse_compile_us = percentile(&v2_us, 0.50);
        let v3_page_in_us = percentile(&v3_us, 0.50);
        let cold_load_speedup = v2_parse_compile_us / v3_page_in_us.max(1e-9);

        // --- multi-tenant catalog throughput ---------------------------
        // Four resident tenants served concurrently through the catalog
        // front door (admission + per-document cache partitions on top
        // of the same compiled path).
        let tenants = 4usize;
        let cat_dir = std::env::temp_dir().join(format!(
            "xtwig-bench-catalog-{}-{}",
            std::process::id(),
            ds.name()
        ));
        let _ = std::fs::remove_dir_all(&cat_dir);
        let catalog = SnapshotCatalog::open(&cat_dir, CatalogOptions::default());
        for t in 0..tenants {
            let name = format!("tenant-{t}");
            catalog.publish(&name, "main", &s).expect("publish");
            catalog.warm(&name, "main").expect("warm");
        }
        let tm = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..tenants {
                let catalog = &catalog;
                let w = &w;
                let opts = &opts;
                scope.spawn(move || {
                    let name = format!("tenant-{t}");
                    std::hint::black_box(
                        catalog
                            .serve(&name, "main", &w.queries, opts)
                            .expect("tenant serve"),
                    );
                });
            }
        });
        let mt_secs = tm.elapsed().as_secs_f64();
        let multi_tenant_qps = (tenants * w.queries.len()) as f64 / mt_secs.max(1e-9);
        let _ = std::fs::remove_dir_all(&cat_dir);

        let rep = DatasetReport {
            name: ds.name().to_string(),
            queries: w.queries.len(),
            interpreted_qps,
            compiled_qps,
            speedup,
            p50_us: percentile(&lat_us, 0.50),
            p95_us: percentile(&lat_us, 0.95),
            p99_us: percentile(&lat_us, 0.99),
            expand_us_p50: percentile(&expand_us, 0.50),
            expand_us_p95: percentile(&expand_us, 0.95),
            eval_us_p50: percentile(&eval_us, 0.50),
            eval_us_p95: percentile(&eval_us, 0.95),
            batch_cold_qps: w.queries.len() as f64 / cold_secs.max(1e-9),
            batch_warm_qps: w.queries.len() as f64 / warm_secs.max(1e-9),
            cache_hit_rate: stats.hit_rate(),
            v2_parse_compile_us,
            v3_page_in_us,
            cold_load_speedup,
            multi_tenant_qps,
            mismatches,
        };
        println!(
            "## {}: speedup {:.2}x ({:.0} -> {:.0} qps), p50 {:.1}us p95 {:.1}us p99 {:.1}us \
             (expand p50 {:.1}us / eval p50 {:.1}us), batch {:.0} -> {:.0} qps warm, \
             hit-rate {:.2}, page-in {:.1}us vs {:.1}us ({:.0}x), {:.0} qps multi-tenant, \
             mismatches {}",
            rep.name,
            rep.speedup,
            rep.interpreted_qps,
            rep.compiled_qps,
            rep.p50_us,
            rep.p95_us,
            rep.p99_us,
            rep.expand_us_p50,
            rep.eval_us_p50,
            rep.batch_cold_qps,
            rep.batch_warm_qps,
            rep.cache_hit_rate,
            rep.v2_parse_compile_us,
            rep.v3_page_in_us,
            rep.cold_load_speedup,
            rep.multi_tenant_qps,
            rep.mismatches,
        );
        reports.push(rep);
    }

    // --- JSON report ----------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"estimation_serve\",\n  \"datasets\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"queries\": {}, \"interpreted_qps\": {:.1}, \
             \"compiled_qps\": {:.1}, \"speedup\": {:.3}, \"p50_us\": {:.2}, \
             \"p95_us\": {:.2}, \"p99_us\": {:.2}, \"expand_us_p50\": {:.2}, \
             \"expand_us_p95\": {:.2}, \"eval_us_p50\": {:.2}, \"eval_us_p95\": {:.2}, \
             \"batch_cold_qps\": {:.1}, \
             \"batch_warm_qps\": {:.1}, \"cache_hit_rate\": {:.4}, \
             \"v2_parse_compile_us\": {:.2}, \"v3_page_in_us\": {:.2}, \
             \"cold_load_speedup\": {:.1}, \"multi_tenant_qps\": {:.1}, \
             \"mismatches\": {}}}{}\n",
            r.name,
            r.queries,
            r.interpreted_qps,
            r.compiled_qps,
            r.speedup,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.expand_us_p50,
            r.expand_us_p95,
            r.eval_us_p50,
            r.eval_us_p95,
            r.batch_cold_qps,
            r.batch_warm_qps,
            r.cache_hit_rate,
            r.v2_parse_compile_us,
            r.v3_page_in_us,
            r.cold_load_speedup,
            r.multi_tenant_qps,
            r.mismatches,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    let min_speedup = reports
        .iter()
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    let min_speedup = if min_speedup.is_finite() {
        min_speedup
    } else {
        0.0
    };
    let min_cold_load_speedup = reports
        .iter()
        .map(|r| r.cold_load_speedup)
        .fold(f64::INFINITY, f64::min);
    let min_cold_load_speedup = if min_cold_load_speedup.is_finite() {
        min_cold_load_speedup
    } else {
        0.0
    };
    json.push_str(&format!(
        "  ],\n  \"min_speedup\": {:.3},\n  \"min_cold_load_speedup\": {:.1},\n  \
         \"total_mismatches\": {}\n}}\n",
        min_speedup, min_cold_load_speedup, total_mismatches
    ));
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("# wrote {out_path} (min speedup {min_speedup:.2}x)");

    if total_mismatches > 0 {
        eprintln!("FAIL: {total_mismatches} compiled/interpreted disagreements");
        std::process::exit(1);
    }
    if enforce_speedup && min_speedup < 1.0 {
        eprintln!("FAIL: compiled estimation slower than interpreted ({min_speedup:.2}x)");
        std::process::exit(1);
    }
    // The v3 arena exists to make cold tenants cheap. The page-in cost
    // is O(synopsis structure) — nodes, edges, scope dims — while v2
    // parse-and-compile is O(full payload) including every bucket cell
    // and the transpose precomputation, so the advantage grows with the
    // bucket-to-node ratio. At this bench's toy scale the synopses are
    // structure-dominated and the measured ratio sits near 2.5-3x; this
    // hard gate is a 1.5x backstop against losing the zero-copy path
    // outright, while the per-dataset `cold_load_speedup` ratchet in
    // `xtask bench-check` (baseline x 0.75) guards the real value.
    if enforce_speedup && min_cold_load_speedup < 1.5 {
        eprintln!(
            "FAIL: v3 cold page-in only {min_cold_load_speedup:.1}x faster than \
             v2 parse-and-compile (need >= 1.5x at bench scale)"
        );
        std::process::exit(1);
    }
}
