//! A deterministic fault-injection harness for the estimation service.
//!
//! A [`FaultPlan`] is a seeded, reproducible list of [`Fault`]s covering
//! the failure modes an operator actually sees: torn and bit-flipped
//! snapshot files, unreadable paths, pathological slow queries, and
//! tiers that die mid-request. [`run_fault_plan`] drives a full
//! load-or-recover + serve cycle under each fault and records what
//! happened — the acceptance bar is *zero uncaught panics and every
//! served estimate finite and non-negative*, with corruptions rejected
//! by typed errors and recovered by rebuilding the synopsis from the
//! document.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;
use xtwig_core::estimate::{EstimateRequest, Estimator};
use xtwig_core::{
    coarse_synopsis, load_synopsis, save_synopsis, BackoffPolicy, BatchServer, BreakerConfig,
    CatalogError, CatalogOptions, CatalogStats, CompiledSynopsis, EstimateOptions, FaultVfs,
    SnapshotCatalog, SnapshotError, Synopsis, Vfs, VfsFaultPlan,
};
use xtwig_query::TwigQuery;
use xtwig_xml::{apply_delta, Document};

use crate::guarded::{GuardPolicy, GuardedEstimator, InjectedFault, Tier};
use crate::ingest::{random_delta, run_ingest_soak, IngestOptions, IngestSoakReport, IngestStore};
use crate::runtime::{RuntimeOptions, RuntimeStats, ServingRuntime, TerminalProvenance};
use xtwig_core::construct::DeltaBuildOptions;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The snapshot file is cut off after `keep` bytes (a torn write).
    SnapshotTruncate {
        /// Bytes kept.
        keep: usize,
    },
    /// One bit of the snapshot is flipped (media corruption).
    SnapshotBitFlip {
        /// Byte position.
        byte: usize,
        /// Bit within the byte (0–7).
        bit: u8,
    },
    /// The snapshot is replaced by seeded random garbage.
    SnapshotGarbage {
        /// Garbage length.
        len: usize,
        /// Garbage seed.
        seed: u64,
    },
    /// The snapshot file is empty.
    SnapshotEmpty,
    /// The snapshot cannot be read at all (missing / unreadable path).
    IoUnreadable,
    /// The XSKETCH tier hits an artificial slow path under a deadline.
    SlowEstimate,
    /// Queries are served under a very tight wall-clock budget.
    TightDeadline {
        /// The budget, in microseconds.
        micros: u64,
    },
    /// The named tier panics on every query.
    PanicTier(Tier),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::SnapshotTruncate { keep } => write!(f, "truncate snapshot to {keep} bytes"),
            Fault::SnapshotBitFlip { byte, bit } => {
                write!(f, "flip bit {bit} of snapshot byte {byte}")
            }
            Fault::SnapshotGarbage { len, .. } => write!(f, "replace snapshot with {len}B garbage"),
            Fault::SnapshotEmpty => write!(f, "empty snapshot"),
            Fault::IoUnreadable => write!(f, "unreadable snapshot path"),
            Fault::SlowEstimate => write!(f, "artificial slow path in xsketch tier"),
            Fault::TightDeadline { micros } => write!(f, "tight deadline of {micros}us"),
            Fault::PanicTier(t) => write!(f, "panic injected into {t} tier"),
        }
    }
}

/// A seeded, reproducible fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The generation seed (for reports).
    pub seed: u64,
    /// The faults, in injection order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Generates a plan of `n` faults against a snapshot of
    /// `snapshot_len` bytes. The first eight slots cycle through every
    /// fault kind so even short plans cover the full failure surface;
    /// the remainder is seeded-random.
    pub fn generate(seed: u64, snapshot_len: usize, n: usize) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = snapshot_len.max(1);
        let mut faults = Vec::with_capacity(n);
        for i in 0..n {
            let kind = if i < 8 {
                i
            } else {
                rng.random_range(0..8usize)
            };
            faults.push(match kind {
                0 => Fault::SnapshotTruncate {
                    keep: rng.random_range(0..len),
                },
                1 => Fault::SnapshotBitFlip {
                    byte: rng.random_range(0..len),
                    bit: rng.random_range(0..8u32) as u8,
                },
                2 => Fault::SnapshotGarbage {
                    len: rng.random_range(1..2 * len),
                    seed: rng.random_range(0..u64::MAX),
                },
                3 => Fault::SnapshotEmpty,
                4 => Fault::IoUnreadable,
                5 => Fault::SlowEstimate,
                6 => Fault::TightDeadline {
                    micros: rng.random_range(100..2000u64),
                },
                _ => Fault::PanicTier(match rng.random_range(0..3u32) {
                    0 => Tier::Xsketch,
                    1 => Tier::Markov,
                    _ => Tier::LabelCount,
                }),
            });
        }
        FaultPlan { seed, faults }
    }
}

/// Applies a snapshot-corrupting fault to `bytes`, or returns `None`
/// for faults that do not touch the snapshot image.
pub fn apply_snapshot_fault(bytes: &[u8], fault: &Fault) -> Option<Vec<u8>> {
    match *fault {
        Fault::SnapshotTruncate { keep } => Some(bytes.get(..keep.min(bytes.len()))?.to_vec()),
        Fault::SnapshotBitFlip { byte, bit } => {
            let mut out = bytes.to_vec();
            let i = byte.min(out.len().saturating_sub(1));
            if let Some(b) = out.get_mut(i) {
                *b ^= 1u8 << (bit % 8);
            }
            Some(out)
        }
        Fault::SnapshotGarbage { len, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            Some(
                (0..len)
                    .map(|_| rng.random_range(0..=255u32) as u8)
                    .collect(),
            )
        }
        Fault::SnapshotEmpty => Some(Vec::new()),
        _ => None,
    }
}

/// What happened under one injected fault.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// The fault injected.
    pub fault: Fault,
    /// A corrupted/unreadable snapshot was rejected with a typed error.
    pub rejected: Option<SnapshotError>,
    /// The service recovered by rebuilding the synopsis from the
    /// document.
    pub rebuilt: bool,
    /// Queries served.
    pub queries: usize,
    /// Queries that degraded below full fidelity.
    pub degraded: usize,
    /// Uncaught panics observed while serving (must stay 0).
    pub panics: usize,
    /// Served estimates that were NaN, negative, or infinite (must stay
    /// 0).
    pub bad_estimates: usize,
}

/// The aggregate result of a fault plan run.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Per-fault outcomes, in plan order.
    pub outcomes: Vec<FaultOutcome>,
}

impl FaultReport {
    /// Total uncaught panics across the run (acceptance: 0).
    pub fn total_panics(&self) -> usize {
        self.outcomes.iter().map(|o| o.panics).sum()
    }

    /// Total non-finite/negative served estimates (acceptance: 0).
    pub fn total_bad_estimates(&self) -> usize {
        self.outcomes.iter().map(|o| o.bad_estimates).sum()
    }

    /// How many faults corrupted the snapshot and were rejected.
    pub fn total_rejections(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.rejected.is_some())
            .count()
    }

    /// How many faults forced a rebuild-from-document recovery.
    pub fn total_rebuilds(&self) -> usize {
        self.outcomes.iter().filter(|o| o.rebuilt).count()
    }

    /// How many queries degraded below full fidelity overall.
    pub fn total_degraded(&self) -> usize {
        self.outcomes.iter().map(|o| o.degraded).sum()
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fault plan: {} faults, {} rejections, {} rebuilds, {} degraded queries, \
             {} panics, {} bad estimates",
            self.outcomes.len(),
            self.total_rejections(),
            self.total_rebuilds(),
            self.total_degraded(),
            self.total_panics(),
            self.total_bad_estimates()
        )?;
        for o in &self.outcomes {
            writeln!(
                f,
                "  {}: rejected={} rebuilt={} queries={} degraded={} panics={}",
                o.fault,
                o.rejected.is_some(),
                o.rebuilt,
                o.queries,
                o.degraded,
                o.panics
            )?;
        }
        Ok(())
    }
}

/// Runs the full fault plan: for each fault, corrupt (or budget-squeeze)
/// the serving path, recover if needed, serve every query through a
/// [`GuardedEstimator`], and record the outcome.
pub fn run_fault_plan(
    doc: &Document,
    queries: &[TwigQuery],
    plan: &FaultPlan,
    policy: &GuardPolicy,
) -> FaultReport {
    let pristine = coarse_synopsis(doc);
    let snapshot = save_synopsis(&pristine);
    let mut outcomes = Vec::with_capacity(plan.faults.len());
    for fault in &plan.faults {
        outcomes.push(run_one_fault(doc, queries, fault, policy, &snapshot));
    }
    FaultReport { outcomes }
}

fn run_one_fault(
    doc: &Document,
    queries: &[TwigQuery],
    fault: &Fault,
    policy: &GuardPolicy,
    snapshot: &[u8],
) -> FaultOutcome {
    let mut outcome = FaultOutcome {
        fault: *fault,
        rejected: None,
        rebuilt: false,
        queries: 0,
        degraded: 0,
        panics: 0,
        bad_estimates: 0,
    };

    // Resolve the synopsis to serve from: load the (possibly corrupted)
    // snapshot, falling back to a rebuild from the document — the same
    // recovery the CLI performs.
    let synopsis: Synopsis = match apply_snapshot_fault(snapshot, fault) {
        Some(corrupted) => match load_synopsis(&corrupted) {
            Ok(s) => s,
            Err(e) => {
                outcome.rejected = Some(e);
                outcome.rebuilt = true;
                coarse_synopsis(doc)
            }
        },
        None if *fault == Fault::IoUnreadable => {
            let bogus = std::path::Path::new("/nonexistent/xtwig/fault/plan.xtwg");
            match xtwig_core::read_snapshot(bogus) {
                Ok(s) => s,
                Err(e) => {
                    outcome.rejected = Some(e);
                    outcome.rebuilt = true;
                    coarse_synopsis(doc)
                }
            }
        }
        None => match load_synopsis(snapshot) {
            Ok(s) => s,
            Err(_) => {
                outcome.rebuilt = true;
                coarse_synopsis(doc)
            }
        },
    };

    // Apply estimator-level faults / budget squeezes.
    let mut fault_policy = *policy;
    let injected = match *fault {
        Fault::SlowEstimate => {
            if fault_policy.time_budget.is_none() {
                fault_policy.time_budget = Some(Duration::from_millis(2));
            }
            Some(InjectedFault::StallXsketch)
        }
        Fault::TightDeadline { micros } => {
            fault_policy.time_budget = Some(Duration::from_micros(micros));
            None
        }
        Fault::PanicTier(t) => Some(InjectedFault::PanicIn(t)),
        _ => None,
    };
    let mut estimator = GuardedEstimator::new(&synopsis, fault_policy);
    if let Some(injected) = injected {
        estimator = estimator.with_fault(injected);
    }

    for q in queries {
        outcome.queries += 1;
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Estimator::estimate(&estimator, &EstimateRequest::new(q))
        }));
        match served {
            Err(_) => outcome.panics += 1,
            Ok(report) => {
                if report.provenance.degraded {
                    outcome.degraded += 1;
                }
                if !report.estimate.is_finite() || report.estimate < 0.0 {
                    outcome.bad_estimates += 1;
                }
            }
        }
    }
    outcome
}

// ---------------------------------------------------------------------
// Concurrent runtime fault soak
// ---------------------------------------------------------------------

/// A fault fired at the *runtime* layer while a soak phase's requests
/// are in flight — these exercise the serving machinery (breakers,
/// admission queue, reload epochs) rather than a single estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeFault {
    /// A CRC-valid snapshot is hot-reloaded mid-flight.
    Reload,
    /// A corrupt snapshot reload is attempted mid-flight; the runtime
    /// must roll back to the serving generation.
    CorruptReload,
    /// The next `count` attempts in the named tier panic — sized to trip
    /// that tier's circuit breaker.
    PanicBurst {
        /// The tier that panics.
        tier: Tier,
        /// Attempts poisoned.
        count: u32,
    },
    /// The next `count` tier-1 attempts stall until the request deadline
    /// — combined with a small queue this saturates admission control.
    StallWave {
        /// Attempts stalled.
        count: u32,
    },
    /// A concurrent delta-ingest stream with `kills` simulated crashes
    /// (kill-and-recover at cycling WAL/checkpoint points) runs while
    /// the phase's requests serve; every recovered synopsis is hot-
    /// reloaded into the runtime (valid reloads only — no rollbacks).
    MutationReload {
        /// Simulated ingest crashes that must fire during the phase.
        kills: u32,
    },
}

impl std::fmt::Display for RuntimeFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeFault::Reload => write!(f, "mid-flight reload"),
            RuntimeFault::CorruptReload => write!(f, "mid-flight corrupt reload"),
            RuntimeFault::PanicBurst { tier, count } => {
                write!(f, "panic burst of {count} in {tier} tier")
            }
            RuntimeFault::StallWave { count } => write!(f, "stall wave of {count}"),
            RuntimeFault::MutationReload { kills } => {
                write!(f, "mutation stream with {kills} kill/recover cycles")
            }
        }
    }
}

/// One phase of a soak: a request batch with at most one runtime fault
/// active while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakPhase {
    /// Phase label for reports.
    pub label: &'static str,
    /// Requests submitted (queries cycled from the workload set).
    pub requests: usize,
    /// The fault in force, if any.
    pub fault: Option<RuntimeFault>,
}

/// A seeded, reproducible soak schedule. The fixed phase *structure*
/// (healthy warm-up → breaker burst → recovery → mid-flight reload →
/// corrupt reload → saturation wave) guarantees every runtime
/// transition is exercised; the seed only varies batch sizes, so any
/// seed produces a plan whose invariants are checkable.
#[derive(Debug, Clone)]
pub struct SoakPlan {
    /// The generation seed (for reports).
    pub seed: u64,
    /// The phases, in execution order.
    pub phases: Vec<SoakPhase>,
}

impl SoakPlan {
    /// Generates the standard six-phase plan against `options`. The
    /// breaker burst is sized from the options' failure threshold and
    /// retry budget so the tier-1 breaker *must* open during it, and the
    /// saturation wave from the queue depth so the queue *must* shed
    /// (when served with a stalled single worker).
    pub fn generate(seed: u64, options: &RuntimeOptions) -> SoakPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let attempts_per_request = 1 + options.max_retries;
        // Enough faulted requests to reach the threshold even if every
        // attempt retried, plus seeded headroom.
        let burst_requests =
            (options.breaker.failure_threshold as usize).max(4) + rng.random_range(0..4usize);
        let burst_count = (burst_requests as u32) * attempts_per_request;
        let wave_requests =
            options.queue_depth.saturating_mul(4).max(16) + rng.random_range(0..8usize);
        let phases = vec![
            SoakPhase {
                label: "healthy-warmup",
                requests: 8 + rng.random_range(0..8usize),
                fault: None,
            },
            SoakPhase {
                label: "breaker-burst",
                requests: burst_requests,
                fault: Some(RuntimeFault::PanicBurst {
                    tier: Tier::Xsketch,
                    count: burst_count,
                }),
            },
            SoakPhase {
                label: "breaker-recovery",
                requests: 8 + rng.random_range(0..8usize),
                fault: None,
            },
            SoakPhase {
                label: "mid-flight-reload",
                requests: 16 + rng.random_range(0..16usize),
                fault: Some(RuntimeFault::Reload),
            },
            SoakPhase {
                label: "corrupt-reload",
                requests: 8 + rng.random_range(0..8usize),
                fault: Some(RuntimeFault::CorruptReload),
            },
            SoakPhase {
                label: "saturation",
                requests: wave_requests,
                fault: Some(RuntimeFault::StallWave {
                    count: wave_requests as u32 * attempts_per_request,
                }),
            },
            SoakPhase {
                label: "reload-under-mutation",
                requests: 16 + rng.random_range(0..16usize),
                fault: Some(RuntimeFault::MutationReload {
                    kills: 50 + rng.random_range(0..8u32),
                }),
            },
        ];
        SoakPlan { seed, phases }
    }

    /// A plan containing only the saturation phase — the CLI's
    /// deterministic "shed without rollback" profile.
    pub fn saturation_only(seed: u64, options: &RuntimeOptions) -> SoakPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let attempts_per_request = 1 + options.max_retries;
        let wave_requests =
            options.queue_depth.saturating_mul(4).max(16) + rng.random_range(0..8usize);
        SoakPlan {
            seed,
            phases: vec![SoakPhase {
                label: "saturation",
                requests: wave_requests,
                fault: Some(RuntimeFault::StallWave {
                    count: wave_requests as u32 * attempts_per_request,
                }),
            }],
        }
    }

    /// Total requests across all phases.
    pub fn total_requests(&self) -> usize {
        self.phases.iter().map(|p| p.requests).sum()
    }
}

/// The aggregate result of a concurrent soak run. Every field feeds one
/// of the acceptance invariants; [`SoakReport::passed`] checks them all.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Phases executed.
    pub phases: usize,
    /// Requests submitted across all phases.
    pub requests: usize,
    /// Requests answered at full fidelity.
    pub full: u64,
    /// Requests answered degraded.
    pub degraded: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// `serve_with` calls that panicked out of the runtime (must be 0).
    pub escaped_panics: usize,
    /// Non-finite / negative served estimates (must be 0; shed requests
    /// are excluded — their 0.0 placeholder is not a served estimate).
    pub bad_estimates: usize,
    /// Results whose terminal provenance disagreed with the runtime's
    /// own counters (must be 0).
    pub telemetry_mismatches: u64,
    /// Whether the tier-1 breaker was observed to open during the run.
    pub breaker_opened: bool,
    /// Whether it was also observed to re-close.
    pub breaker_reclosed: bool,
    /// Successful hot reloads performed.
    pub reloads: u64,
    /// Corrupt reloads rolled back.
    pub reload_rollbacks: u64,
    /// Whether post-soak single-query estimates were bit-identical to a
    /// freshly constructed estimator on the same snapshot (the last
    /// published generation, when a mutation phase ran).
    pub post_soak_bit_identical: bool,
    /// Ingest kill/recover cycles that fired during mutation phases.
    pub ingest_kills: u64,
    /// Ingest invariant violations (failed recoveries, torn states,
    /// fsck failures, rejected publishes — must be 0).
    pub ingest_failures: u64,
    /// Checkpoints committed by the mutation stream.
    pub ingest_checkpoints: u64,
    /// Drift-triggered refinements installed by the mutation stream.
    pub ingest_refinements: u64,
    /// Final runtime counters.
    pub stats: RuntimeStats,
}

impl SoakReport {
    /// Whether every acceptance invariant held. `require_breaker_cycle`
    /// / `require_rollback` are false for profiles (e.g. saturation-only)
    /// whose plans never trip them.
    pub fn passed(&self, require_breaker_cycle: bool, require_rollback: bool) -> bool {
        let terminated = self
            .full
            .saturating_add(self.degraded)
            .saturating_add(self.shed);
        self.escaped_panics == 0
            && self.bad_estimates == 0
            && self.telemetry_mismatches == 0
            && terminated == self.requests as u64
            && self.post_soak_bit_identical
            && (!require_breaker_cycle || (self.breaker_opened && self.breaker_reclosed))
            && (!require_rollback || self.reload_rollbacks > 0)
            && self.ingest_failures == 0
    }
}

impl std::fmt::Display for SoakReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "soak: {} phases, {} requests ({} full / {} degraded / {} shed), \
             {} escaped panics, {} bad estimates, {} telemetry mismatches, \
             breaker open={} reclose={}, {} reloads, {} rollbacks, \
             {} ingest kills ({} failures, {} checkpoints, {} refinements), \
             bit-identical={}",
            self.phases,
            self.requests,
            self.full,
            self.degraded,
            self.shed,
            self.escaped_panics,
            self.bad_estimates,
            self.telemetry_mismatches,
            self.breaker_opened,
            self.breaker_reclosed,
            self.reloads,
            self.reload_rollbacks,
            self.ingest_kills,
            self.ingest_failures,
            self.ingest_checkpoints,
            self.ingest_refinements,
            self.post_soak_bit_identical
        )
    }
}

/// Flips one byte mid-snapshot so the CRC must reject it.
fn corrupt_copy(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let mid = out.len() / 2;
    if let Some(b) = out.get_mut(mid) {
        *b ^= 0xFF;
    }
    out
}

/// Runs a concurrent fault soak: a [`ServingRuntime`] over the
/// document's synopsis serves every phase of `plan` on
/// `options.workers` threads while the phase's runtime fault fires
/// mid-flight. Deterministic in its *invariants* — thread interleavings
/// vary, but every request terminates with a provenance, panic
/// containment is total, the breaker cycle and reload rollback are
/// forced by plan construction, and the post-soak estimates must be
/// bit-identical to a fresh estimator on the same snapshot.
pub fn run_soak(
    doc: &Document,
    queries: &[TwigQuery],
    plan: &SoakPlan,
    options: RuntimeOptions,
) -> SoakReport {
    let synopsis = coarse_synopsis(doc);
    let snapshot = save_synopsis(&synopsis);
    let rt = ServingRuntime::new(synopsis.clone(), options);
    let mut report = SoakReport {
        phases: plan.phases.len(),
        requests: 0,
        full: 0,
        degraded: 0,
        shed: 0,
        escaped_panics: 0,
        bad_estimates: 0,
        telemetry_mismatches: 0,
        breaker_opened: false,
        breaker_reclosed: false,
        reloads: 0,
        reload_rollbacks: 0,
        post_soak_bit_identical: true,
        ingest_kills: 0,
        ingest_failures: 0,
        ingest_checkpoints: 0,
        ingest_refinements: 0,
        stats: rt.stats(),
    };
    if queries.is_empty() {
        return report;
    }

    // The snapshot post-soak queries are compared against: the original
    // until a mutation phase publishes newer generations.
    let mut reference = snapshot.clone();

    for phase in &plan.phases {
        let batch: Vec<TwigQuery> = queries
            .iter()
            .cycle()
            .take(phase.requests)
            .cloned()
            .collect();
        report.requests += batch.len();
        match phase.fault {
            Some(RuntimeFault::PanicBurst { tier, count }) => {
                rt.inject_fault_burst(InjectedFault::PanicIn(tier), count);
            }
            Some(RuntimeFault::StallWave { count }) => {
                rt.inject_fault_burst(InjectedFault::StallXsketch, count);
            }
            _ => {}
        }
        let reload_bytes = match phase.fault {
            Some(RuntimeFault::Reload) => Some(snapshot.clone()),
            Some(RuntimeFault::CorruptReload) => Some(corrupt_copy(&snapshot)),
            _ => None,
        };
        let mutation_kills = match phase.fault {
            Some(RuntimeFault::MutationReload { kills }) => Some(kills),
            _ => None,
        };
        let mut mutation_outcome: Option<Result<IngestSoakReport, ()>> = None;
        let before = rt.stats();
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.serve_with(&batch, |rt| {
                if let Some(bytes) = &reload_bytes {
                    // A brief yield so requests are in motion when the
                    // reload lands; correctness does not depend on it.
                    std::thread::sleep(Duration::from_micros(200));
                    let _ = rt.reload_snapshot_bytes(bytes);
                }
                if let Some(kills) = mutation_kills {
                    // The concurrent delta stream: kill-and-recover
                    // ingest cycles, each recovery hot-reloaded into the
                    // runtime while this phase's queries are in flight.
                    let dir = std::env::temp_dir().join(format!(
                        "xtwig-soak-mutation-{}-{}",
                        std::process::id(),
                        plan.seed
                    ));
                    let opts = IngestOptions {
                        delta: DeltaBuildOptions {
                            drift_threshold: 0.5,
                            ..Default::default()
                        },
                        checkpoint_every: 4,
                        ..Default::default()
                    };
                    let outcome =
                        run_ingest_soak(doc, &dir, plan.seed, u64::from(kills), &opts, Some(rt))
                            .map_err(|_| ());
                    let _ = std::fs::remove_dir_all(&dir);
                    mutation_outcome = Some(outcome);
                }
            })
        }));
        match mutation_outcome {
            Some(Ok(rep)) => {
                report.ingest_kills += rep.kills;
                report.ingest_checkpoints += rep.checkpoints;
                report.ingest_refinements += rep.refinements;
                report.ingest_failures += rep.recovery_failures
                    + rep.state_mismatches
                    + rep.fsck_failures
                    + rep.publish_failures;
                // Post-soak queries must match the surviving generation,
                // which is now the mutation stream's final state.
                reference = rep.final_snapshot;
            }
            Some(Err(())) => report.ingest_failures += 1,
            None => {}
        }
        match served {
            Err(_) => report.escaped_panics += 1,
            Ok(results) => {
                let (mut full, mut degraded, mut shed) = (0u64, 0u64, 0u64);
                for r in &results {
                    match r.terminal {
                        TerminalProvenance::Full => full += 1,
                        TerminalProvenance::Degraded => degraded += 1,
                        TerminalProvenance::Shed => shed += 1,
                    }
                    if r.terminal != TerminalProvenance::Shed
                        && (!r.report.estimate.is_finite() || r.report.estimate < 0.0)
                    {
                        report.bad_estimates += 1;
                    }
                }
                report.full += full;
                report.degraded += degraded;
                report.shed += shed;
                // The runtime's own counters must agree with the results
                // it handed back, phase by phase.
                let after = rt.stats();
                if after.full.wrapping_sub(before.full) != full
                    || after.degraded.wrapping_sub(before.degraded) != degraded
                    || after.shed.wrapping_sub(before.shed) != shed
                {
                    report.telemetry_mismatches += 1;
                }
            }
        }
        rt.drain_faults();
        if matches!(phase.fault, Some(RuntimeFault::PanicBurst { .. })) {
            // Let the breaker's cooldown elapse so the next healthy
            // phase runs the half-open probe and re-closes it.
            std::thread::sleep(rt.options().breaker.cooldown);
        }
    }

    let stats = rt.stats();
    report.breaker_opened = stats.breaker_opens > 0;
    report.breaker_reclosed = stats.breaker_closes > 0;
    report.reloads = stats.reloads;
    report.reload_rollbacks = stats.reload_rollbacks;

    // Post-soak bit-identity: the runtime's current generation must
    // estimate exactly like a fresh estimator built from the same
    // snapshot — the soak left no residue in the serving state.
    match load_synopsis(&reference) {
        Ok(fresh_syn) => {
            let fresh = GuardedEstimator::new(&fresh_syn, rt.options().policy);
            for q in queries {
                let a = rt.estimate_now(q).estimate;
                let b = Estimator::estimate(&fresh, &EstimateRequest::new(q)).estimate;
                if a.to_bits() != b.to_bits() {
                    report.post_soak_bit_identical = false;
                }
            }
        }
        Err(_) => report.post_soak_bit_identical = false,
    }
    report.stats = stats;
    report
}

/// Knobs for the multi-tenant catalog soak. Defaults are sized so the
/// run finishes in seconds while still forcing a cold stampede, an
/// eviction pass, and a full breaker open → shed → recover cycle.
#[derive(Debug, Clone, Copy)]
pub struct CatalogSoakOptions {
    /// Tenants published into the catalog (≥ 3: one stampede target,
    /// one breaker victim, at least one healthy bystander).
    pub tenants: usize,
    /// Threads racing the cold-tenant stampede.
    pub stampede_threads: usize,
    /// Serve calls per healthy tenant during the victim's panic burst.
    pub requests_per_tenant: usize,
    /// Catalog configuration (quota, breaker, residency bound, …).
    pub catalog: CatalogOptions,
}

impl Default for CatalogSoakOptions {
    fn default() -> CatalogSoakOptions {
        CatalogSoakOptions {
            tenants: 4,
            stampede_threads: 8,
            requests_per_tenant: 8,
            catalog: CatalogOptions::builder()
                .max_resident(2)
                .breaker(BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_millis(50),
                })
                .build(),
        }
    }
}

/// The aggregate result of [`run_catalog_soak`]. Every field feeds one
/// of the acceptance invariants; [`MultiTenantSoakReport::passed`]
/// checks them all.
#[derive(Debug, Clone)]
pub struct MultiTenantSoakReport {
    /// Tenants published and served.
    pub tenants: usize,
    /// Total serve calls issued across all phases.
    pub requests: u64,
    /// Threads that raced the cold stampede.
    pub stampede_threads: usize,
    /// Disk loads observed during the stampede (must be exactly 1 —
    /// the slot mutex collapses the herd onto one fault-in).
    pub stampede_cold_loads: u64,
    /// Serve calls on the victim tenant that came back
    /// [`CatalogError::Faulted`] (must reach the breaker threshold).
    pub victim_faults: u64,
    /// Whether the victim's breaker was observed open after the burst.
    pub victim_breaker_opened: bool,
    /// Whether the victim was shed at admission while its breaker was
    /// open ([`CatalogError::BreakerOpen`]).
    pub victim_shed_while_open: bool,
    /// Whether the victim served successfully again after the cooldown
    /// (the half-open probe re-closed its breaker).
    pub victim_recovered: bool,
    /// Errors of any kind returned to healthy tenants during the
    /// victim's burst (must be 0 — isolation means bystanders never
    /// feel the victim's breaker or faults).
    pub healthy_errors: u64,
    /// Healthy-tenant estimates that were non-finite, negative, or not
    /// bit-identical to a fresh single-tenant [`BatchServer`] on the
    /// same synopsis (must be 0).
    pub bad_estimates: u64,
    /// Documents evicted to respect the residency bound (must be > 0
    /// when `tenants` exceeds `max_resident`).
    pub evictions: u64,
    /// Final catalog counters.
    pub stats: CatalogStats,
}

impl MultiTenantSoakReport {
    /// Whether every acceptance invariant held.
    pub fn passed(&self) -> bool {
        self.stampede_cold_loads == 1
            && self.victim_faults > 0
            && self.victim_breaker_opened
            && self.victim_shed_while_open
            && self.victim_recovered
            && self.healthy_errors == 0
            && self.bad_estimates == 0
            && (self.stats.resident <= self.tenants && self.evictions > 0
                || self.tenants <= self.stats.resident)
    }
}

impl std::fmt::Display for MultiTenantSoakReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "catalog soak: {} tenants, {} requests, stampede {} threads → {} cold loads, \
             victim {} faults (opened={} shed={} recovered={}), \
             {} healthy errors, {} bad estimates, {} evictions",
            self.tenants,
            self.requests,
            self.stampede_threads,
            self.stampede_cold_loads,
            self.victim_faults,
            self.victim_breaker_opened,
            self.victim_shed_while_open,
            self.victim_recovered,
            self.healthy_errors,
            self.bad_estimates,
            self.evictions
        )
    }
}

/// Runs the multi-tenant catalog soak: publish a document per tenant
/// into a [`SnapshotCatalog`] rooted at `dir`, then drive three
/// phases whose invariants prove the catalog's isolation story.
///
/// 1. **Cold stampede** — `stampede_threads` threads race the first
///    request to a cold tenant. The slot mutex must collapse the herd
///    onto exactly one disk load, and every thread's reports must be
///    bit-identical to a fresh [`BatchServer`] on the same synopsis.
/// 2. **Victim burst** — a fault hook makes every serve for one
///    tenant panic. The victim's breaker must open and shed it at
///    admission, while concurrently served healthy tenants complete
///    with zero errors and bit-identical estimates.
/// 3. **Recovery** — after the breaker cooldown the victim's
///    half-open probe must succeed and re-close its breaker.
///
/// Deterministic in its *invariants*: thread interleavings vary, but
/// the counters checked by [`MultiTenantSoakReport::passed`] must land
/// on the same values for any schedule.
pub fn run_catalog_soak(
    doc: &Document,
    queries: &[TwigQuery],
    dir: &std::path::Path,
    options: &CatalogSoakOptions,
) -> MultiTenantSoakReport {
    let synopsis = coarse_synopsis(doc);
    let tenants = options.tenants.max(3);
    let catalog = SnapshotCatalog::open(dir, options.catalog);
    let opts = EstimateOptions::default();
    let tenant_name = |i: usize| format!("tenant-{i}");

    let mut report = MultiTenantSoakReport {
        tenants,
        requests: 0,
        stampede_threads: options.stampede_threads.max(2),
        stampede_cold_loads: 0,
        victim_faults: 0,
        victim_breaker_opened: false,
        victim_shed_while_open: false,
        victim_recovered: false,
        healthy_errors: 0,
        bad_estimates: 0,
        evictions: 0,
        stats: catalog.stats(),
    };
    if queries.is_empty() {
        return report;
    }

    // The bit-identity reference: a fresh single-tenant server over
    // the same synopsis. Catalog serving must not perturb a single bit.
    let compiled = CompiledSynopsis::compile(&synopsis);
    let reference: Vec<f64> = BatchServer::new(&compiled)
        .with_options(opts)
        .serve(queries)
        .iter()
        .map(|r| r.estimate)
        .collect();
    let check_batch = |reports: &[xtwig_core::EstimateReport]| -> u64 {
        let mut bad = 0u64;
        for (r, want) in reports.iter().zip(&reference) {
            if !r.estimate.is_finite() || r.estimate < 0.0 || r.estimate.to_bits() != want.to_bits()
            {
                bad += 1;
            }
        }
        bad
    };

    // Phase 0: publish every tenant's document.
    for i in 0..tenants {
        if catalog.publish(&tenant_name(i), "main", &synopsis).is_err() {
            report.healthy_errors += 1;
            return report;
        }
    }

    // Phase 1: cold stampede against tenant 0.
    let before = catalog.stats();
    let stampede_bad = std::sync::atomic::AtomicU64::new(0);
    let stampede_errs = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..report.stampede_threads {
            scope.spawn(
                || match catalog.serve(&tenant_name(0), "main", queries, &opts) {
                    Ok(reports) => {
                        stampede_bad
                            .fetch_add(check_batch(&reports), std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(_) => {
                        stampede_errs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                },
            );
        }
    });
    report.requests += report.stampede_threads as u64;
    report.bad_estimates += stampede_bad.into_inner();
    report.healthy_errors += stampede_errs.into_inner();
    report.stampede_cold_loads = catalog.stats().cold_loads - before.cold_loads;

    // Phase 2: panic burst on the victim while healthy tenants serve.
    let victim = tenant_name(1);
    {
        let hooked = victim.clone();
        catalog.set_fault_hook(Some(Box::new(move |tenant, _doc| tenant == hooked)));
    }
    let burst = options.catalog.breaker.failure_threshold as usize + 2;
    let healthy_errs = std::sync::atomic::AtomicU64::new(0);
    let healthy_bad = std::sync::atomic::AtomicU64::new(0);
    let victim_faults = std::sync::atomic::AtomicU64::new(0);
    let victim_shed = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..burst {
                match catalog.serve(&victim, "main", queries, &opts) {
                    Err(CatalogError::Faulted { .. }) => {
                        victim_faults.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(CatalogError::BreakerOpen { .. }) => {
                        victim_shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
        });
        for i in 2..tenants {
            let name = tenant_name(i);
            let healthy_errs = &healthy_errs;
            let healthy_bad = &healthy_bad;
            let catalog = &catalog;
            let opts = &opts;
            let check_batch = &check_batch;
            scope.spawn(move || {
                for _ in 0..options.requests_per_tenant.max(1) {
                    match catalog.serve(&name, "main", queries, opts) {
                        Ok(reports) => {
                            healthy_bad.fetch_add(
                                check_batch(&reports),
                                std::sync::atomic::Ordering::Relaxed,
                            );
                        }
                        Err(_) => {
                            healthy_errs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    report.requests +=
        burst as u64 + (tenants - 2) as u64 * options.requests_per_tenant.max(1) as u64;
    report.victim_faults = victim_faults.into_inner();
    report.healthy_errors += healthy_errs.into_inner();
    report.bad_estimates += healthy_bad.into_inner();
    report.victim_breaker_opened =
        catalog.breaker_state(&victim) == Some(xtwig_core::BreakerState::Open);
    // The burst oversubscribes the threshold, so at least one call must
    // have been shed at admission; confirm with one more while open.
    report.victim_shed_while_open = victim_shed.into_inner() > 0
        || matches!(
            catalog.serve(&victim, "main", queries, &opts),
            Err(CatalogError::BreakerOpen { .. })
        );
    if report.victim_shed_while_open {
        report.requests += 1;
    }

    // Phase 3: recovery. Clear the hook, let the cooldown elapse, and
    // the victim's half-open probe must re-close its breaker.
    catalog.set_fault_hook(None);
    std::thread::sleep(options.catalog.breaker.cooldown + Duration::from_millis(5));
    match catalog.serve(&victim, "main", queries, &opts) {
        Ok(reports) => {
            report.victim_recovered =
                catalog.breaker_state(&victim) == Some(xtwig_core::BreakerState::Closed);
            report.bad_estimates += check_batch(&reports);
        }
        Err(_) => report.victim_recovered = false,
    }
    report.requests += 1;

    let stats = catalog.stats();
    report.evictions = stats.evictions;
    report.stats = stats;
    report
}

// ---------------------------------------------------------------------
// Storage chaos soak (device-level fault injection through the VFS)
// ---------------------------------------------------------------------

/// Knobs for the storage-chaos soak. Defaults match the CI acceptance
/// bar: 50 seeded fault plans cycling write-error/ENOSPC, torn-rename,
/// fsync-failure, transient-read, and bit-rot emphasis.
#[derive(Debug, Clone, Copy)]
pub struct StorageChaosOptions {
    /// Seeded fault plans to run (each gets a write phase and a read
    /// phase).
    pub plans: usize,
    /// The master seed; plan `i` derives its own `VfsFaultPlan` seed.
    pub seed: u64,
    /// Deltas ingested under write-side faults per plan.
    pub deltas_per_plan: usize,
    /// Cold fault-ins served under read-side faults per plan.
    pub serves_per_plan: usize,
}

impl Default for StorageChaosOptions {
    fn default() -> StorageChaosOptions {
        StorageChaosOptions {
            plans: 50,
            seed: 0xC4A05,
            deltas_per_plan: 6,
            serves_per_plan: 6,
        }
    }
}

/// The fault emphasis a chaos plan injects (one of five, cycled by plan
/// index so every category fires many times across a default run).
fn chaos_fault_plan(seed: u64, index: u64) -> VfsFaultPlan {
    let s = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let base = VfsFaultPlan {
        seed: s,
        stall: 50,
        stall_micros: 10,
        ..VfsFaultPlan::default()
    };
    match index % 5 {
        0 => VfsFaultPlan {
            write_error: 200,
            short_write: 150,
            enospc: true,
            ..base
        },
        1 => VfsFaultPlan {
            rename_error: 300,
            ..base
        },
        2 => VfsFaultPlan {
            fsync_error: 300,
            ..base
        },
        3 => VfsFaultPlan {
            read_error: 300,
            ..base
        },
        _ => VfsFaultPlan {
            read_flip: 300,
            ..base
        },
    }
}

/// The aggregate result of [`run_storage_chaos`]. The invariants are
/// the storage fault model's acceptance bar: panics never escape, a
/// faulted commit never publishes torn state (recovery on a clean
/// device is fsck-clean and bit-identical to an observed durable
/// state), and every read-side request ends correct or typed.
#[derive(Debug, Clone, Default)]
pub struct StorageChaosReport {
    /// Fault plans executed.
    pub plans: u64,
    /// Deltas attempted under write-side faults.
    pub write_attempts: u64,
    /// Write-side attempts rejected with a typed error (the injector
    /// fired inside the commit protocol).
    pub write_faults: u64,
    /// Panics that escaped any faulted operation (must be 0).
    pub escaped_panics: u64,
    /// Clean-device reopens after write chaos that failed outright
    /// (must be 0 — the atomic commit protocol guarantees a complete
    /// generation).
    pub recovery_failures: u64,
    /// Recovered stores that failed the structural fsck (must be 0).
    pub fsck_failures: u64,
    /// Recovered states bit-identical to no observed durable state
    /// (must be 0 — pre- or post-delta, never a torn hybrid).
    pub state_mismatches: u64,
    /// Cold fault-ins attempted under read-side faults.
    pub serves: u64,
    /// Read-side serves that succeeded.
    pub serve_ok: u64,
    /// Successful serves whose estimates were not bit-identical to the
    /// pristine reference (must be 0 — never serve garbage).
    pub serve_mismatches: u64,
    /// Read-side serves rejected with a typed [`CatalogError`].
    pub serve_typed_errors: u64,
    /// Serves rejected because the tenant was quarantined.
    pub quarantines: u64,
    /// Post-chaos serves (device healthy again) that failed or
    /// mismatched (must be 0 — quarantine lifts on republish/invalidate
    /// and recovery is bit-identical).
    pub post_recovery_failures: u64,
    /// Transient-read retries the catalog performed.
    pub load_retries: u64,
    /// Corrupt snapshots rebuilt in place from the source document.
    pub rebuilds: u64,
    /// Faults the injector actually fired across both phases.
    pub injected_faults: u64,
}

impl StorageChaosReport {
    /// Whether every storage-fault invariant held.
    pub fn passed(&self) -> bool {
        self.escaped_panics == 0
            && self.recovery_failures == 0
            && self.fsck_failures == 0
            && self.state_mismatches == 0
            && self.serve_mismatches == 0
            && self.post_recovery_failures == 0
    }
}

impl std::fmt::Display for StorageChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "storage chaos: {} plans, {} injected faults, write {}/{} faulted, \
             {} escaped panics, {} recovery failures, {} fsck failures, \
             {} state mismatches, read {}/{} ok ({} typed, {} quarantines, \
             {} retries, {} rebuilds), {} serve mismatches, {} post-recovery failures",
            self.plans,
            self.injected_faults,
            self.write_faults,
            self.write_attempts,
            self.escaped_panics,
            self.recovery_failures,
            self.fsck_failures,
            self.state_mismatches,
            self.serve_ok,
            self.serves,
            self.serve_typed_errors,
            self.quarantines,
            self.load_retries,
            self.rebuilds,
            self.serve_mismatches,
            self.post_recovery_failures,
        )
    }
}

/// Runs the storage-chaos soak: for each seeded plan, (a) drive an
/// [`IngestStore`] commit protocol through a [`FaultVfs`] injecting
/// write/rename/fsync faults and prove a clean-device reopen recovers
/// fsck-clean and bit-identical to an observed durable state, then (b)
/// drive [`SnapshotCatalog`] cold fault-ins through transient-read and
/// bit-rot injection and prove every request ends bit-identical or
/// typed (retried, rebuilt, or quarantined — never garbage). Scratch
/// state lives under `dir` (wiped per plan).
pub fn run_storage_chaos(
    doc: &Document,
    queries: &[TwigQuery],
    dir: &std::path::Path,
    options: &StorageChaosOptions,
) -> StorageChaosReport {
    let synopsis = coarse_synopsis(doc);
    let mut report = StorageChaosReport::default();
    if queries.is_empty() {
        return report;
    }

    // The bit-identity reference for read-side serves.
    let compiled = CompiledSynopsis::compile(&synopsis);
    let opts = EstimateOptions::default();
    let reference: Vec<f64> = BatchServer::new(&compiled)
        .with_options(opts)
        .serve(queries)
        .iter()
        .map(|r| r.estimate)
        .collect();
    let check_batch = |reports: &[xtwig_core::EstimateReport]| -> u64 {
        let mut bad = 0u64;
        for (r, want) in reports.iter().zip(&reference) {
            if !r.estimate.is_finite() || r.estimate.to_bits() != want.to_bits() {
                bad += 1;
            }
        }
        bad
    };

    let ingest_opts = IngestOptions {
        checkpoint_every: 2,
        ..Default::default()
    };

    for i in 0..options.plans as u64 {
        report.plans += 1;
        let fault_plan = chaos_fault_plan(options.seed, i);

        // -- Phase A: write-side chaos on the ingest commit protocol.
        let store_dir = dir.join(format!("chaos-store-{i}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let vfs = std::sync::Arc::new(FaultVfs::over_std(fault_plan));
        vfs.arm(false);
        let created = IngestStore::create_in(
            std::sync::Arc::clone(&vfs) as std::sync::Arc<dyn Vfs>,
            &store_dir,
            doc.clone(),
            ingest_opts.clone(),
        );
        if let Ok(mut store) = created {
            // Every state the protocol could legitimately recover to:
            // the seed state plus the in-memory state after each attempt
            // (pre-delta on a rejected append, post-delta once the WAL
            // holds it).
            let mut durable = vec![store.snapshot_bytes()];
            let mut rng = StdRng::seed_from_u64(options.seed ^ i);
            vfs.arm(true);
            for _ in 0..options.deltas_per_plan {
                let delta = random_delta(store.doc(), &mut rng);
                if delta.is_empty() {
                    continue;
                }
                // Shadow-apply the WAL-canonical form to know the
                // post-delta bytes a replay would reconstruct if the
                // append reached the log before the fault.
                let delta = match xtwig_core::io::wal::decode_delta(
                    &xtwig_core::io::wal::encode_delta(&delta),
                ) {
                    Ok(d) => d,
                    Err(_) => continue,
                };
                let mut shadow = store.synopsis().clone();
                let mut shadow_drift = xtwig_core::construct::DriftMeter::new();
                let Ok(applied) = apply_delta(store.doc(), &delta) else {
                    continue; // delta does not apply; skip
                };
                xtwig_core::delta_xbuild(
                    &mut shadow,
                    store.doc(),
                    &delta,
                    applied,
                    &mut shadow_drift,
                    &ingest_opts.delta,
                );
                let post_bytes = save_synopsis(&shadow);
                report.write_attempts += 1;
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.ingest(&delta)));
                match outcome {
                    Err(_) => {
                        report.escaped_panics += 1;
                        break;
                    }
                    Ok(Err(_)) => {
                        // Three durable states are legitimate here:
                        // pre-delta (append rejected or torn — already
                        // in the chain), post-delta (append landed, a
                        // later commit step faulted — the shadow), or
                        // the rebuilt checkpoint itself (the manifest
                        // rename landed but its directory fsync faulted:
                        // the flip is on disk even though the call
                        // errored — the store's memory, which holds the
                        // rebuilt synopsis). Memory may have diverged
                        // from the durable chain, so stop tracking here.
                        report.write_faults += 1;
                        durable.push(post_bytes);
                        durable.push(store.snapshot_bytes());
                        break;
                    }
                    Ok(Ok(_)) => durable.push(store.snapshot_bytes()),
                }
            }
            vfs.arm(false);
            drop(store);
            // The device heals; recovery must land on a durable state.
            match IngestStore::open(&store_dir, ingest_opts.clone()) {
                Err(_) => report.recovery_failures += 1,
                Ok(recovered) => {
                    if recovered.fsck().is_err() {
                        report.fsck_failures += 1;
                    }
                    let bytes = recovered.snapshot_bytes();
                    if !durable.contains(&bytes) {
                        report.state_mismatches += 1;
                    }
                }
            }
        } else {
            // Creation runs disarmed; a failure here is a harness bug
            // surfaced as a recovery failure.
            report.recovery_failures += 1;
        }
        report.injected_faults += vfs.injected();
        let _ = std::fs::remove_dir_all(&store_dir);

        // -- Phase B: read-side chaos on catalog fault-in.
        let cat_dir = dir.join(format!("chaos-catalog-{i}"));
        let _ = std::fs::remove_dir_all(&cat_dir);
        let vfs = std::sync::Arc::new(FaultVfs::over_std(fault_plan));
        vfs.arm(false);
        let catalog_opts = CatalogOptions::builder()
            .load_retries(4)
            .backoff(BackoffPolicy {
                base: Duration::from_micros(5),
                cap: Duration::from_micros(100),
                seed: options.seed ^ i,
            })
            .breaker(BreakerConfig {
                // High threshold: the soak asserts on typed errors, not
                // breaker admission (covered by the catalog soak).
                failure_threshold: u32::MAX,
                cooldown: Duration::from_millis(1),
            })
            .build();
        let catalog = SnapshotCatalog::open_in(
            &cat_dir,
            catalog_opts,
            std::sync::Arc::clone(&vfs) as std::sync::Arc<dyn Vfs>,
        );
        if catalog.publish("tenant", "main", &synopsis).is_err() {
            report.post_recovery_failures += 1;
            report.injected_faults += vfs.injected();
            let _ = std::fs::remove_dir_all(&cat_dir);
            continue;
        }
        if i % 2 == 1 {
            // Odd plans recover corruption in place from the document.
            let source = synopsis.clone();
            catalog.set_rebuild_hook(Some(std::sync::Arc::new(move |_, _| Some(source.clone()))));
        }
        vfs.arm(true);
        for _ in 0..options.serves_per_plan {
            catalog.invalidate("tenant", "main");
            report.serves += 1;
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                catalog.serve("tenant", "main", queries, &opts)
            }));
            match served {
                Err(_) => report.escaped_panics += 1,
                Ok(Ok(reports)) => {
                    report.serve_ok += 1;
                    report.serve_mismatches += check_batch(&reports);
                }
                Ok(Err(e)) => {
                    report.serve_typed_errors += 1;
                    if matches!(e, CatalogError::Quarantined { .. }) {
                        report.quarantines += 1;
                    }
                }
            }
        }
        vfs.arm(false);
        // The device heals: a republish must lift any quarantine and
        // the next serve must be bit-identical.
        if catalog.publish("tenant", "main", &synopsis).is_err() {
            report.post_recovery_failures += 1;
        } else {
            match catalog.serve("tenant", "main", queries, &opts) {
                Ok(reports) => report.post_recovery_failures += check_batch(&reports),
                Err(_) => report.post_recovery_failures += 1,
            }
        }
        let stats = catalog.stats();
        report.load_retries += stats.load_retries;
        report.rebuilds += stats.rebuilds;
        report.injected_faults += vfs.injected();
        let _ = std::fs::remove_dir_all(&cat_dir);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_query::parse_twig;

    fn doc() -> Document {
        xtwig_xml::parse(concat!(
            "<bib>",
            "<author><name/><paper><kw/><kw/></paper></author>",
            "<author><name/><paper><kw/></paper></author>",
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn plans_are_deterministic() {
        let a = FaultPlan::generate(7, 500, 24);
        let b = FaultPlan::generate(7, 500, 24);
        assert_eq!(a.faults, b.faults);
        let c = FaultPlan::generate(8, 500, 24);
        assert_ne!(a.faults, c.faults);
    }

    #[test]
    fn short_plans_cover_every_fault_kind() {
        let plan = FaultPlan::generate(1, 500, 8);
        assert!(plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::SnapshotTruncate { .. })));
        assert!(plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::SnapshotBitFlip { .. })));
        assert!(plan.faults.contains(&Fault::SnapshotEmpty));
        assert!(plan.faults.contains(&Fault::IoUnreadable));
        assert!(plan.faults.contains(&Fault::SlowEstimate));
        assert!(plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::TightDeadline { .. })));
        assert!(plan.faults.iter().any(|f| matches!(f, Fault::PanicTier(_))));
    }

    #[test]
    fn snapshot_faults_change_the_bytes() {
        let d = doc();
        let bytes = save_synopsis(&coarse_synopsis(&d));
        let cut = apply_snapshot_fault(&bytes, &Fault::SnapshotTruncate { keep: 10 }).unwrap();
        assert_eq!(cut.len(), 10);
        let flip =
            apply_snapshot_fault(&bytes, &Fault::SnapshotBitFlip { byte: 30, bit: 3 }).unwrap();
        assert_ne!(flip, bytes);
        assert_eq!(flip.len(), bytes.len());
        assert!(apply_snapshot_fault(&bytes, &Fault::SlowEstimate).is_none());
    }

    #[test]
    fn soak_plans_are_deterministic_and_cover_the_transitions() {
        let opts = RuntimeOptions::default();
        let a = SoakPlan::generate(9, &opts);
        let b = SoakPlan::generate(9, &opts);
        assert_eq!(a.phases, b.phases);
        let c = SoakPlan::generate(10, &opts);
        assert_ne!(a.phases, c.phases, "seed varies batch sizes");
        // The fixed structure always includes every runtime fault kind.
        assert!(a
            .phases
            .iter()
            .any(|p| matches!(p.fault, Some(RuntimeFault::PanicBurst { .. }))));
        assert!(a
            .phases
            .iter()
            .any(|p| p.fault == Some(RuntimeFault::Reload)));
        assert!(a
            .phases
            .iter()
            .any(|p| p.fault == Some(RuntimeFault::CorruptReload)));
        assert!(a
            .phases
            .iter()
            .any(|p| matches!(p.fault, Some(RuntimeFault::StallWave { .. }))));
        // The burst is sized to trip the breaker even with retries.
        let burst = a
            .phases
            .iter()
            .find_map(|p| match p.fault {
                Some(RuntimeFault::PanicBurst { count, .. }) => Some((p.requests, count)),
                _ => None,
            })
            .unwrap();
        assert!(burst.0 as u32 >= opts.breaker.failure_threshold);
        assert!(burst.1 >= burst.0 as u32 * (1 + opts.max_retries));
        let sat = SoakPlan::saturation_only(9, &opts);
        assert_eq!(sat.phases.len(), 1);
        assert!(matches!(
            sat.phases[0].fault,
            Some(RuntimeFault::StallWave { .. })
        ));
    }

    #[test]
    fn full_plan_runs_clean_on_a_small_doc() {
        let d = doc();
        let queries: Vec<TwigQuery> = [
            "for $t0 in //author, $t1 in $t0/paper",
            "for $t0 in //paper, $t1 in $t0/kw",
            "for $t0 in //kw",
        ]
        .iter()
        .map(|t| parse_twig(t).unwrap())
        .collect();
        let plan = FaultPlan::generate(42, save_synopsis(&coarse_synopsis(&d)).len(), 16);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_fault_plan(&d, &queries, &plan, &GuardPolicy::default());
        std::panic::set_hook(prev);
        assert_eq!(report.total_panics(), 0, "{report}");
        assert_eq!(report.total_bad_estimates(), 0, "{report}");
        assert!(report.total_rejections() > 0, "{report}");
        assert_eq!(report.total_rebuilds(), report.total_rejections());
        assert!(report.total_degraded() > 0, "{report}");
    }

    #[test]
    fn storage_chaos_passes_and_covers_both_phases() {
        let d = doc();
        let queries: Vec<TwigQuery> = ["for $t0 in //author, $t1 in $t0/paper", "for $t0 in //kw"]
            .iter()
            .map(|t| parse_twig(t).unwrap())
            .collect();
        let dir = std::env::temp_dir().join(format!("xtwig-storage-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = StorageChaosOptions {
            plans: 10, // one full cycle of every fault category, twice
            ..Default::default()
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_storage_chaos(&d, &queries, &dir, &options);
        std::panic::set_hook(prev);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.passed(), "{report}");
        assert_eq!(report.plans, 10, "{report}");
        assert!(report.injected_faults > 0, "chaos must fire: {report}");
        assert!(report.write_faults > 0, "write-side faults: {report}");
        assert!(
            report.serve_typed_errors > 0,
            "read-side typed errors: {report}"
        );
        assert!(report.load_retries > 0, "transient retries: {report}");
        assert!(report.quarantines + report.rebuilds > 0, "{report}");
    }

    #[test]
    fn catalog_soak_passes() {
        let d = doc();
        let queries: Vec<TwigQuery> = [
            "for $t0 in //author, $t1 in $t0/paper",
            "for $t0 in //paper, $t1 in $t0/kw",
            "for $t0 in //kw",
        ]
        .iter()
        .map(|t| parse_twig(t).unwrap())
        .collect();
        let dir = std::env::temp_dir().join(format!("xtwig-catalog-soak-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = CatalogSoakOptions::default();
        // The victim's injected panics are expected; keep the log quiet.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_catalog_soak(&d, &queries, &dir, &options);
        std::panic::set_hook(prev);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.stampede_cold_loads, 1, "{report}");
        assert_eq!(report.healthy_errors, 0, "{report}");
        assert_eq!(report.bad_estimates, 0, "{report}");
        assert!(report.victim_breaker_opened, "{report}");
        assert!(report.victim_shed_while_open, "{report}");
        assert!(report.victim_recovered, "{report}");
        // 4 tenants > max_resident 2 ⇒ eviction churn must fire.
        assert!(report.evictions > 0, "{report}");
        assert!(report.passed(), "{report}");
    }
}
