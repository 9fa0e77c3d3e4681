//! `maintain`: one seeded pass of mixed deltas into a fresh
//! `IngestStore`, with a publish into a catalog and Zipf reads of the
//! maintained document every few deltas, and a drop-and-reopen of the
//! store at the end. The pass runs several times, each from a fresh
//! set-up of the same document.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xtwig_core::{
    coarse_synopsis, encode_delta, CatalogOptions, CompiledSynopsis, EstimateOptions,
    EstimateRequest, Estimator, SnapshotCatalog,
};
use xtwig_datagen::{Dataset, Zipf};
use xtwig_query::selectivity;
use xtwig_workload::{avg_relative_error, CheckpointKind, IngestOptions, IngestStore};
use xtwig_xml::{Delta, Document, DocumentBuilder, NodeId};

use crate::report::{
    median, proc_stats, quantile, ratio, reset_peak_rss, BestOf, Metrics, Timing,
};
use crate::trace;
use crate::vfs::{stored_bytes, CountingVfs, IoSnapshot};
use crate::{pool_for, Fingerprint, Outcome, Share, Size};

const TENANT: &str = "t000";
const DOC: &str = "imdb";

struct Shape {
    scale: f64,
    pool: usize,
    /// Deltas in one pass; the store is dropped and reopened after them.
    deltas: usize,
    /// Timed passes, after one untimed warm-up pass.
    passes: usize,
    /// Publish and read every this many deltas.
    publish_every: usize,
    /// Reads after each publish.
    reads: usize,
}

fn shape(size: Size, seconds: u64) -> Shape {
    match size {
        // 140 deltas/s nominal. 20 reads after each of the 50 publishes
        // of a pass give 1,000 read positions, so that at least 10 lie
        // beyond the p99.
        Size::Full => Shape {
            scale: 0.25,
            pool: 64,
            deltas: 400,
            passes: (seconds as usize * 140).div_ceil(400),
            publish_every: 8,
            reads: 20,
        },
        Size::Toy => Shape {
            scale: 0.02,
            pool: 16,
            deltas: 48,
            passes: 3,
            publish_every: 8,
            reads: 4,
        },
    }
}

/// Draws the next delta of the stream: a quarter inserts, a quarter
/// value updates and half deletes, the mix
/// `xtwig_workload::random_delta` draws for mid-size documents (that
/// function only deletes once a document exceeds 400 nodes). Targets
/// are uniform over the document. An insert adds a copy of a random
/// subtree of at most 6 nodes beside it, with fresh values, the way a
/// feed adds records like those already stored; a delete removes such
/// a subtree.
fn mixed_delta(doc: &Document, rng: &mut StdRng) -> Delta {
    let mut delta = Delta::new();
    let node = |rng: &mut StdRng| NodeId(rng.random_range(0..doc.len()) as u32);
    // A few draws find a small subtree that is not the root or an
    // attribute (attributes live on their parent's start tag).
    let small = |rng: &mut StdRng| {
        (0..8).map(|_| node(rng)).find(|&n| {
            n != doc.root()
                && !doc.tag(n).starts_with('@')
                && doc.descendants(n).take(7).count() <= 6
        })
    };
    match (rng.random_range(0..4u32), small(rng)) {
        (0, Some(n)) => {
            let mut b = DocumentBuilder::new();
            copy_subtree(doc, n, &mut b, rng);
            delta.insert(doc.parent(n).unwrap_or(doc.root()), b.finish());
        }
        (2 | 3, Some(n)) => {
            delta.delete(n);
        }
        _ => {
            let value = (rng.random_range(0..3u32) != 0).then(|| rng.random_range(0..1000i64));
            delta.modify(node(rng), value);
        }
    }
    delta
}

/// Appends a copy of `n`'s subtree to `b`, drawing a fresh value
/// wherever the original has one.
fn copy_subtree(doc: &Document, n: NodeId, b: &mut DocumentBuilder, rng: &mut StdRng) {
    let value = doc.value(n).map(|_| rng.random_range(0..1000i64));
    b.open(doc.tag(n), value);
    for c in doc.children(n) {
        copy_subtree(doc, c, b, rng);
    }
    b.close();
}

/// Timed passes of a whole run.
pub fn passes(size: Size, seconds: u64) -> usize {
    shape(size, seconds).passes
}

/// Runs the workload, or `share` of its timed passes.
pub fn run(size: Size, seed: u64, seconds: u64, share: Share, work: &Path) -> Outcome {
    let sh = shape(size, seconds);
    let passes = share.of(sh.passes);
    let traced = trace::enabled();
    let options = IngestOptions::default();
    let doc = Dataset::Imdb.generate(sh.scale);
    let pool = pool_for(&doc, sh.pool);
    reset_peak_rss();

    // Side calls for the build layers of this document (traced only).
    let mut layer = Metrics::default();
    if traced {
        let xml = xtwig_xml::write_xml(&doc);
        let t0 = Instant::now();
        let parsed = xtwig_xml::parse(&xml).expect("generated XML parses");
        layer.put("construct.parse_s", t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(coarse_synopsis(&parsed));
        layer.put("construct.coarse_s", t0.elapsed().as_secs_f64());
    }

    let vfs = Arc::new(CountingVfs::default());
    let store_dir = work.join("store");
    let catalog = SnapshotCatalog::open_in(
        work.join("catalog"),
        CatalogOptions::default(),
        vfs.clone(),
    );
    let opts = EstimateOptions::default();
    let zipf = Zipf::new(pool.texts.len(), 1.0);
    let publishes = sh.deltas / sh.publish_every;

    // Best times by position within a pass, µs.
    let mut ingest_best = BestOf::new(sh.deltas);
    let mut publish_best = BestOf::new(publishes);
    let mut read_best = BestOf::new(publishes * sh.reads);
    let mut reopen_best = BestOf::new(1);
    // Every timed sample, for the per-layer figures.
    let mut setup_s = Vec::new();
    let mut ingest_us = Vec::new();
    let mut delta_us = Vec::new();
    let mut coarse_ms = Vec::new();
    let mut refined_ms = Vec::new();
    let mut apply_us = Vec::new();
    let mut publish_ms = Vec::new();
    let mut recovery_ms = Vec::new();
    let mut full_rebuilds = 0u64;
    let mut replayed = 0u64;
    let mut fault_in_bytes = 0u64;
    let mut estimates = 0u64;
    let mut cached = 0u64;
    let mut uncached = Vec::new();
    let mut served_est = Vec::new();
    let mut served_truth = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut op = 0u64;
    let mut stream = Fingerprint::default();
    let mut io = IoSnapshot::default();
    let mut stats0 = catalog.stats();
    let mut warms0 = crate::harness_warms();

    for round in 0..=passes {
        let measured = round > 0;
        if round == 1 {
            stats0 = catalog.stats();
            warms0 = crate::harness_warms();
        }

        // Set-up: a fresh store over the document, and its first publish.
        if store_dir.exists() {
            std::fs::remove_dir_all(&store_dir).expect("remove the previous store");
        }
        let fresh = doc.clone();
        let t0 = Instant::now();
        let mut store = IngestStore::create_in(vfs.clone(), &store_dir, fresh, options.clone())
            .expect("store creation succeeds");
        store
            .publish_to_catalog(&catalog, TENANT, DOC)
            .expect("first publish succeeds");
        setup_s.push(t0.elapsed().as_secs_f64());
        let io0 = vfs.snapshot();
        // Passes take turns on the CPUs, as on the serve workloads. The
        // timed path runs no XBUILD unless drift triggers a refinement,
        // which then runs on one CPU.
        crate::pin_for_pass(round);

        // The same seed each pass: from the same document, the same
        // deltas and reads.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17_A5EE);
        let mut truths: HashMap<usize, f64> = HashMap::new();
        let mut read_at = 0;
        for step in 0..sh.deltas {
            let delta = mixed_delta(store.doc(), &mut rng);
            if round == 0 {
                stream.bytes(&encode_delta(&delta));
            }
            if traced && measured {
                let t0 = Instant::now();
                let applied = xtwig_xml::apply_delta(store.doc(), &delta);
                apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(applied.is_ok());
            }

            attempted += 1;
            op += 1;
            let root = trace::root(op, measured);
            let g = trace::span("ingest.delta");
            let t0 = Instant::now();
            let result = store.ingest(&delta);
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            if let Ok(rep) = &result {
                if rep.checkpoint.is_some() {
                    g.rename("ingest.checkpoint");
                }
            }
            drop(g);
            drop(root);
            match result {
                Ok(rep) if measured => {
                    ingest_best.record(step, dt);
                    ingest_us.push(dt);
                    full_rebuilds += u64::from(rep.build.full_rebuild);
                    match rep.checkpoint {
                        None => delta_us.push(dt),
                        Some(CheckpointKind::Coarse) => coarse_ms.push(dt / 1e3),
                        Some(CheckpointKind::Refined) => refined_ms.push(dt / 1e3),
                    }
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!("delta {step} of pass {round} failed: {e}");
                    failed += 1;
                }
            }

            if (step + 1) % sh.publish_every != 0 {
                continue;
            }
            attempted += 1;
            op += 1;
            let root = trace::root(op, measured);
            let g = trace::span("catalog.publish");
            let t0 = Instant::now();
            let published = store.publish_to_catalog(&catalog, TENANT, DOC);
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            drop(g);
            drop(root);
            if measured {
                publish_best.record(step / sh.publish_every, dt);
                publish_ms.push(dt / 1e3);
            }
            if let Err(e) = published {
                eprintln!("publish after delta {step} of pass {round} failed: {e}");
                failed += 1;
            }

            // Oracle for this generation: a direct compiled estimate of
            // the synopsis just published, and (once, in the warm-up
            // pass) the exact count on the current document.
            let cs = CompiledSynopsis::compile(store.synopsis());
            truths.clear();
            for _ in 0..sh.reads {
                let i = zipf.sample(&mut rng) - 1;
                if round == 0 {
                    stream.int(i);
                }
                attempted += 1;
                op += 1;
                let reads0 = vfs.snapshot();
                let root = trace::root(op, measured);
                let t0 = Instant::now();
                let result = crate::read(&catalog, &vfs, TENANT, DOC, &[&pool.texts[i]], &opts)
                    .and_then(|reports| {
                        reports
                            .into_iter()
                            .next()
                            .ok_or_else(|| "no report".to_owned())
                    });
                let dt = t0.elapsed().as_secs_f64() * 1e6;
                drop(root);
                let expect = cs
                    .estimate(&EstimateRequest::with_options(&pool.queries[i], opts))
                    .estimate;
                let ok = match result {
                    Ok(rep) => {
                        if round == 0 {
                            let truth = *truths.entry(i).or_insert_with(|| {
                                selectivity(store.doc(), &pool.queries[i]) as f64
                            });
                            served_est.push(rep.estimate);
                            served_truth.push(truth);
                        }
                        let ok = !rep.provenance.degraded
                            && !rep.provenance.shed
                            && rep.estimate.to_bits() == expect.to_bits();
                        if measured {
                            read_best.record(read_at, dt);
                            fault_in_bytes += vfs.snapshot().since(&reads0).bytes_read;
                            estimates += 1;
                            if rep.provenance.cached {
                                cached += 1;
                            } else if traced {
                                uncached.push(rep);
                            }
                        }
                        ok
                    }
                    Err(e) => {
                        eprintln!("read after delta {step} of pass {round} failed: {e}");
                        false
                    }
                };
                read_at += 1;
                if !ok {
                    failed += 1;
                }
            }
        }

        // Drop and reopen: recovery must land on the same synopsis.
        attempted += 1;
        op += 1;
        let before = store.snapshot_bytes();
        drop(store);
        let root = trace::root(op, measured);
        let g = trace::span("ingest.recovery");
        let t0 = Instant::now();
        let reopened = IngestStore::open_in(vfs.clone(), &store_dir, options.clone());
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        drop(g);
        drop(root);
        let store = reopened.expect("the store reopens");
        if measured {
            reopen_best.record(0, dt);
            recovery_ms.push(dt / 1e3);
            if let Some(rec) = store.last_recovery() {
                replayed += rec.replayed as u64;
            }
            io.add(&vfs.snapshot().since(&io0));
        }
        if store.snapshot_bytes() != before || store.fsck().is_err() {
            eprintln!("reopen after pass {round} changed the synopsis or failed fsck");
            failed += 1;
        }
    }

    let stats = catalog.stats();
    let spans = trace::take();
    let stored = stored_bytes(work).unwrap_or(0) as f64;
    let proc = proc_stats();
    let deltas = (sh.deltas * passes) as f64;

    // Throughput counts one pass of client time, each operation at its
    // best: the read capacity of one client that also keeps the
    // document up to date.
    let best_ingest = ingest_best.values();
    let timing = Timing {
        setup_s,
        estimates_per_pass: (publishes * sh.reads) as f64,
        reads: read_best,
        other: vec![ingest_best.clone(), publish_best, reopen_best],
    };
    let mut e2e = Metrics::default();
    timing.put(&mut e2e);
    e2e.put(
        "success_rate",
        ratio((attempted - failed) as f64, attempted as f64),
    );
    e2e.put(
        "rel_error",
        avg_relative_error(&served_est, &served_truth).avg_rel_error,
    );
    e2e.put("peak_rss_mb", proc.peak_rss_mb);
    e2e.put("stored_bytes", stored);

    // The write side, printed in every run, reported in the traced one.
    // Throughput and p50 come from each position's best time; the p99
    // and recovery from every timed sample.
    let mut extra = Metrics::default();
    extra.put(
        "ingest.dps",
        ratio(best_ingest.len() as f64, ingest_best.total() / 1e6),
    );
    extra.put("ingest.p50_us", median(&best_ingest));
    extra.put("ingest.p99_us", quantile(&ingest_us, 0.99));
    extra.put("ingest.recovery_ms_p50", median(&recovery_ms));
    extra.put("ingest.write_bytes_per_delta", io.bytes_written as f64 / deltas);
    extra.put("ingest.fsyncs_per_delta", io.fsyncs as f64 / deltas);

    layer.extend_from(&extra);
    layer.put("xmldoc.apply_delta_us_p50", median(&apply_us));
    layer.put("ingest.delta_us_p50", median(&delta_us));
    layer.put("ingest.checkpoint_coarse_ms_p50", median(&coarse_ms));
    layer.put("ingest.checkpoint_refined_ms_p50", median(&refined_ms));
    layer.put(
        "ingest.checkpoints",
        (coarse_ms.len() + refined_ms.len()) as f64,
    );
    layer.put("ingest.refinements", refined_ms.len() as f64);
    layer.put("ingest.full_rebuilds", full_rebuilds as f64);
    layer.put("ingest.recovery_replayed", replayed as f64);
    layer.put("catalog.publish_ms_p50", median(&publish_ms));
    let read_side = crate::ReadSide {
        spans: &spans,
        uncached: &uncached,
        cached,
        estimates,
        requests: estimates,
        catalog: (&stats0, &stats),
        harness_warms: (warms0, crate::harness_warms()),
    };
    let cold_loads = crate::put_read_layers(&mut layer, &read_side);
    crate::put_io_layers(&mut layer, &spans, &io, fault_in_bytes, cold_loads);
    crate::put_trace_layers(&mut layer, &spans, &e2e, &proc);

    Outcome {
        e2e,
        timing,
        layer,
        extra,
        attempted,
        failed,
        spans,
        stream,
    }
}
