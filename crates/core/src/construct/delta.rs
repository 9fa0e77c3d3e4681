//! delta-XBUILD: incremental synopsis maintenance under document deltas.
//!
//! A full XBUILD over a mutated document is a stop-the-world rebuild; the
//! paper's synopsis, however, is mostly *stable* under small deltas — an
//! inserted subtree or a deleted leaf touches only the groups whose
//! extents change and the edges incident to them. [`delta_xbuild`]
//! exploits that: given a [`Delta`] already applied to the document (by
//! [`apply_delta`](xtwig_xml::apply_delta), which also validates it), it
//! carries the existing partition across the arena rebuild via the
//! old→new node map,
//! assigns inserted elements to signature-compatible groups (same label,
//! same parent group — a fresh group otherwise), and recomputes only the
//! affected edges, histograms and value summaries in place. Histogram
//! scopes and byte budgets survive, so refinement investment is not
//! thrown away on every mutation.
//!
//! Accuracy erodes as deltas accumulate: an edge whose count distribution
//! shifts makes the histograms conditioned on it stale even though they
//! are rebuilt at the same budget (the *scope* no longer matches where
//! the mass went). The per-edge **drift meter** quantifies that erosion —
//! each delta adds the relative change of every affected edge's
//! `child_count` — and once accumulated drift crosses the configured
//! threshold, [`DeltaBuildReport::needs_refine`] asks the caller to
//! schedule a *budgeted* re-refinement ([`drift_refine`], a bounded
//! [`xbuild_from`] pass whose scoring runs under the usual
//! [`Meter`](crate::estimate::Meter) deadline/work guards) instead of a
//! full rebuild. Deltas that empty a group entirely fall back to a
//! partition rebuild (`from_partition` at the surviving granularity) and
//! force `needs_refine`.

use crate::coarse::{initialize_summaries, CoarseOptions};
use crate::construct::xbuild::{xbuild_from, BuildOptions, BuildTrace, TruthSource};
use crate::synopsis::{DimKind, ScopeDim, SynId, Synopsis, SynopsisEdge};
use crate::tsn::b_stable_ancestors;
use std::collections::{BTreeMap, HashMap, HashSet};
use xtwig_xml::{AppliedDelta, Delta, Document};

/// Tunables for incremental maintenance.
#[derive(Debug, Clone, Copy)]
pub struct DeltaBuildOptions {
    /// Accumulated-drift threshold above which
    /// [`DeltaBuildReport::needs_refine`] is raised. Units: sum over
    /// affected edges of `|Δchild_count| / max(1, old child_count)`.
    pub drift_threshold: f64,
    /// Byte budget for the edge histograms of groups the delta creates.
    pub edge_hist_budget: usize,
    /// Byte budget for value summaries created by the delta (existing
    /// summaries keep their own budgets).
    pub value_budget: usize,
}

impl Default for DeltaBuildOptions {
    fn default() -> Self {
        let coarse = CoarseOptions::default();
        DeltaBuildOptions {
            drift_threshold: 1.0,
            edge_hist_budget: coarse.edge_hist_budget,
            value_budget: coarse.value_budget,
        }
    }
}

/// Accumulated per-edge distribution drift since the last refinement.
///
/// Drift is dimensionless: one unit means "some edge's child count has
/// changed by 100% in aggregate". The meter latches across deltas and is
/// [`reset`](DriftMeter::reset) when a refinement pass re-fits the
/// histograms to the current document.
#[derive(Debug, Clone, Default)]
pub struct DriftMeter {
    per_edge: HashMap<(SynId, SynId), f64>,
    total: f64,
}

impl DriftMeter {
    /// A zeroed meter.
    pub fn new() -> DriftMeter {
        DriftMeter::default()
    }

    /// Records `amount` drift units against `edge`.
    pub fn observe(&mut self, edge: (SynId, SynId), amount: f64) {
        if amount <= 0.0 || !amount.is_finite() {
            return;
        }
        *self.per_edge.entry(edge).or_insert(0.0) += amount;
        self.total += amount;
    }

    /// Total drift accumulated since the last reset.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Largest single-edge drift accumulated since the last reset.
    pub fn max_edge(&self) -> f64 {
        self.per_edge.values().fold(0.0, |a, &b| a.max(b))
    }

    /// Number of edges with non-zero drift.
    pub fn edges_drifted(&self) -> usize {
        self.per_edge.len()
    }

    /// Clears all accumulated drift (call after a refinement pass).
    pub fn reset(&mut self) {
        self.per_edge.clear();
        self.total = 0.0;
    }
}

/// What one [`delta_xbuild`] call did.
#[derive(Debug, Clone, Default)]
pub struct DeltaBuildReport {
    /// Groups whose extent membership changed (new groups included).
    pub groups_touched: usize,
    /// Groups created for inserted elements with no compatible group.
    pub groups_created: usize,
    /// Histograms rebuilt from the new document.
    pub histograms_rebuilt: usize,
    /// Value summaries rebuilt from the new document.
    pub value_summaries_rebuilt: usize,
    /// Drift units this delta added to the meter.
    pub drift_added: f64,
    /// Meter total after this delta.
    pub drift_total: f64,
    /// The drift threshold was crossed — the caller should schedule a
    /// budgeted [`drift_refine`] pass.
    pub needs_refine: bool,
    /// The delta emptied a group; the partition was rebuilt from scratch
    /// at the surviving granularity (implies `needs_refine`).
    pub full_rebuild: bool,
}

/// The result of applying a delta incrementally: the new document plus
/// the maintenance report. The synopsis is updated in place.
#[derive(Debug)]
pub struct DeltaBuildOutcome {
    /// The post-delta document the synopsis now describes.
    pub doc: Document,
    /// What maintenance was performed.
    pub report: DeltaBuildReport,
}

/// Maintains `s` incrementally across `delta` (see the module docs).
/// `applied` is [`apply_delta`](xtwig_xml::apply_delta)`(doc, delta)`:
/// the caller applies — and so validates — the delta once, and
/// maintenance reuses that rebuilt document instead of applying it
/// again. `s` must still hold its element extents
/// ([`Synopsis::has_extents`]); snapshot-loaded synopses cannot be
/// maintained.
///
/// # Panics
/// Panics when `s` has no extents or does not cover `doc`, or when
/// `applied` was not produced from `doc`.
pub fn delta_xbuild(
    s: &mut Synopsis,
    doc: &Document,
    delta: &Delta,
    applied: AppliedDelta,
    drift: &mut DriftMeter,
    opts: &DeltaBuildOptions,
) -> DeltaBuildOutcome {
    assert!(
        s.has_extents(),
        "delta_xbuild requires a synopsis with extents"
    );
    let new_doc = applied.doc;

    // ------------------------------------------------------------------
    // Partition carry-over: survivors keep their group; inserted elements
    // join a signature-compatible group (same label, existing edge from
    // the parent's group) or seed a fresh one.
    // ------------------------------------------------------------------
    let old_groups = s.node_count();
    let mut assignment: Vec<u32> = vec![u32::MAX; new_doc.len()];
    let mut affected: HashSet<SynId> = HashSet::new();
    for old in doc.nodes() {
        match applied.node_map[old.index()] {
            Some(new) => assignment[new.index()] = s.node_of(old).0,
            None => {
                // Deleted: its group shrinks, and the surviving parent's
                // group loses outgoing edge mass.
                affected.insert(s.node_of(old));
                if let Some(p) = doc.parent(old) {
                    if applied.node_map[p.index()].is_some() {
                        affected.insert(s.node_of(p));
                    }
                }
            }
        }
    }
    let mut next_group = old_groups as u32;
    // (parent group, label) → group chosen for inserted elements, so one
    // delta's inserts cluster instead of fanning into singleton groups.
    let mut chosen: HashMap<(u32, xtwig_xml::LabelId), u32> = HashMap::new();
    let mut groups_created = 0usize;
    for &e in &applied.inserted {
        // Pre-order ids guarantee the parent (survivor or earlier insert)
        // is already assigned.
        let Some(p) = new_doc.parent(e) else {
            // apply_delta grafts every insert under a parent; a parentless
            // insert cannot occur (the debug assert below would trip).
            continue;
        };
        let pg = assignment[p.index()];
        debug_assert_ne!(pg, u32::MAX, "parent assigned before child");
        let label = new_doc.label(e);
        let tag = new_doc.labels().name(label);
        let g = *chosen.entry((pg, label)).or_insert_with(|| {
            // Signature compatibility: an existing group with this label
            // already fed by the parent's group keeps the partition
            // shape unchanged.
            let compatible = s
                .nodes_with_tag(tag)
                .iter()
                .copied()
                .find(|&cand| s.edge(SynId(pg), cand).is_some());
            match compatible {
                Some(cand) => cand.0,
                None => {
                    let g = next_group;
                    next_group += 1;
                    groups_created += 1;
                    g
                }
            }
        });
        assignment[e.index()] = g;
        affected.insert(SynId(g));
        affected.insert(SynId(pg));
    }
    debug_assert!(assignment.iter().all(|&g| g != u32::MAX));

    // Value mutations dirty the target's group summaries even though no
    // edge changes.
    let mut value_dirty: HashSet<SynId> = HashSet::new();
    for op in &delta.ops {
        if let xtwig_xml::DeltaOp::ModifyValue { target, .. } = op {
            let g = s.node_of(*target);
            value_dirty.insert(g);
            affected.insert(g);
            if let Some(p) = doc.parent(*target) {
                // ChildValue dims of the parent's group read this value.
                affected.insert(s.node_of(p));
            }
        }
    }

    // ------------------------------------------------------------------
    // Empty-group fallback: the partition cannot represent a group with
    // no extent, so rebuild it at the surviving granularity and let the
    // forced refinement win the budget back.
    // ------------------------------------------------------------------
    let mut sizes = vec![0u64; next_group as usize];
    for &g in &assignment {
        sizes[g as usize] += 1;
    }
    if sizes.contains(&0) {
        let mut remap = vec![u32::MAX; sizes.len()];
        let mut next = 0u32;
        for (g, &n) in sizes.iter().enumerate() {
            if n > 0 {
                remap[g] = next;
                next += 1;
            }
        }
        let compact: Vec<u32> = assignment.iter().map(|&g| remap[g as usize]).collect();
        *s = Synopsis::from_partition(&new_doc, &compact);
        initialize_summaries(
            s,
            &new_doc,
            CoarseOptions {
                edge_hist_budget: opts.edge_hist_budget,
                value_budget: opts.value_budget,
            },
        );
        // The refinement investment is gone; saturate the meter so the
        // caller re-refines under budget.
        drift.observe((s.root(), s.root()), opts.drift_threshold.max(1.0));
        let report = DeltaBuildReport {
            groups_touched: affected.len(),
            groups_created,
            histograms_rebuilt: s.node_count(),
            value_summaries_rebuilt: s.node_count(),
            drift_added: opts.drift_threshold.max(1.0),
            drift_total: drift.total(),
            needs_refine: true,
            full_rebuild: true,
        };
        return DeltaBuildOutcome {
            doc: new_doc,
            report,
        };
    }

    // ------------------------------------------------------------------
    // In-place structural update + drift measurement.
    // ------------------------------------------------------------------
    // Sorted so the whole pass is deterministic: recovery replays deltas
    // and must reproduce the exact same synopsis bytes.
    let mut affected_vec: Vec<SynId> = affected.iter().copied().collect();
    affected_vec.sort();
    let old_edges: BTreeMap<(SynId, SynId), SynopsisEdge> = s
        .edge_iter()
        .filter(|(u, v, _)| affected.contains(u) || affected.contains(v))
        .map(|(u, v, e)| ((u, v), *e))
        .collect();
    s.reset_partition(&new_doc, &assignment, &affected_vec);
    let new_edges: BTreeMap<(SynId, SynId), SynopsisEdge> = s
        .edge_iter()
        .filter(|(u, v, _)| affected.contains(u) || affected.contains(v))
        .map(|(u, v, e)| ((u, v), *e))
        .collect();
    let mut drift_added = 0.0f64;
    let mut keys: HashSet<(SynId, SynId)> = old_edges.keys().copied().collect();
    keys.extend(new_edges.keys().copied());
    // Sorted so the meter's float accumulation order (and hence the
    // threshold decision) is replay-deterministic.
    let mut keys: Vec<(SynId, SynId)> = keys.into_iter().collect();
    keys.sort();
    for key in keys {
        let old_c = old_edges.get(&key).map_or(0, |e| e.child_count);
        let new_c = new_edges.get(&key).map_or(0, |e| e.child_count);
        if old_c == new_c {
            continue;
        }
        let rel = (new_c.abs_diff(old_c)) as f64 / (old_c.max(1)) as f64;
        drift.observe(key, rel);
        drift_added += rel;
    }

    // ------------------------------------------------------------------
    // Histogram maintenance: rebuild every affected group plus any group
    // whose scope conditions on an affected group, dropping dims whose
    // edge died with the delta.
    // ------------------------------------------------------------------
    let mut rebuild: HashSet<SynId> = affected.clone();
    for n in s.node_ids() {
        let touches = s
            .edge_hist(n)
            .scope
            .iter()
            .any(|d| affected.contains(&d.parent) || affected.contains(&d.child));
        if touches {
            rebuild.insert(n);
        }
    }
    let mut rebuild: Vec<SynId> = rebuild.into_iter().collect();
    rebuild.sort();
    let mut histograms_rebuilt = 0usize;
    for &n in &rebuild {
        let old = s.edge_hist(n);
        let budget = if old.budget_bytes == 0 && n.index() >= old_groups {
            opts.edge_hist_budget
        } else {
            old.budget_bytes
        };
        let scope: Vec<ScopeDim> = old
            .scope
            .iter()
            .filter(|d| {
                // Own-value dims reference no edge; everything else must
                // still name a live one.
                (d.kind == DimKind::Value && d.parent == d.child)
                    || s.edge(d.parent, d.child).is_some()
            })
            .copied()
            .collect();
        s.set_edge_hist(&new_doc, n, scope, budget);
        histograms_rebuilt += 1;
    }
    // A delta can break the B-stable chain justifying a backward dim in
    // a histogram whose scope never mentions an affected group (same
    // hazard as node splits — see `Synopsis::split_node`).
    for n in s.node_ids().collect::<Vec<_>>() {
        let scope = &s.edge_hist(n).scope;
        if !scope.iter().any(|d| d.kind == DimKind::Backward) {
            continue;
        }
        let ancestors = b_stable_ancestors(s, n);
        let stale = |d: &ScopeDim| d.kind == DimKind::Backward && !ancestors.contains(&d.parent);
        if scope.iter().any(stale) {
            let budget = s.edge_hist(n).budget_bytes;
            let kept: Vec<ScopeDim> = scope.iter().filter(|d| !stale(d)).copied().collect();
            s.set_edge_hist(&new_doc, n, kept, budget);
            histograms_rebuilt += 1;
        }
    }
    // Value summaries: membership- or value-dirty groups re-fit at their
    // existing budgets.
    let mut value_summaries_rebuilt = 0usize;
    for &n in &rebuild {
        if !(affected.contains(&n) || value_dirty.contains(&n)) {
            continue;
        }
        let budget = s
            .value_summary(n)
            .map(|vs| vs.budget_bytes)
            .unwrap_or(opts.value_budget);
        s.set_value_summary(&new_doc, n, budget);
        value_summaries_rebuilt += 1;
    }

    debug_assert_eq!(s.check_invariants(&new_doc), Ok(()));
    let report = DeltaBuildReport {
        groups_touched: affected.len(),
        groups_created,
        histograms_rebuilt,
        value_summaries_rebuilt,
        drift_added,
        drift_total: drift.total(),
        needs_refine: drift.total() >= opts.drift_threshold,
        full_rebuild: false,
    };
    DeltaBuildOutcome {
        doc: new_doc,
        report,
    }
}

/// Budgeted re-refinement after drift: a bounded [`xbuild_from`] pass
/// whose candidate scoring runs under the deadline/work-limit `Meter`
/// carried by `opts.estimate`. Resets `drift` — the refined synopsis is
/// fit to the current document. Returns the refined synopsis and the
/// round trace; the caller decides whether to install it (and rolls back
/// by keeping its previous synopsis otherwise).
pub fn drift_refine(
    s: Synopsis,
    doc: &Document,
    truth: TruthSource<'_>,
    opts: &BuildOptions,
    drift: &mut DriftMeter,
) -> (Synopsis, BuildTrace) {
    let (refined, trace) = xbuild_from(s, doc, truth, opts);
    drift.reset();
    (refined, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use crate::validate::validate;
    use xtwig_xml::{apply_delta, parse};

    fn bib() -> Document {
        parse(concat!(
            "<bib>",
            "<author><name/><paper><title/><year>1999</year><keyword/><keyword/></paper></author>",
            "<author><name/><paper><title/><year>2002</year><keyword/></paper><book><title/></book></author>",
            "<author><name/><paper><title/><year>2001</year><keyword/></paper></author>",
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn insert_into_existing_groups_keeps_partition_shape() {
        let doc = bib();
        let mut s = coarse_synopsis(&doc);
        let mut drift = DriftMeter::new();
        let authors = s.nodes_with_tag("author")[0];
        let target = s.extent(authors)[0];
        let mut delta = Delta::new();
        delta.insert(
            target,
            parse("<paper><title/><year>2005</year></paper>").unwrap(),
        );
        let before_nodes = s.node_count();
        let out = delta_xbuild(
            &mut s,
            &doc,
            &delta,
            apply_delta(&doc, &delta).unwrap(),
            &mut drift,
            &DeltaBuildOptions::default(),
        );
        assert!(!out.report.full_rebuild);
        assert_eq!(
            out.report.groups_created, 0,
            "paper/title/year groups exist"
        );
        assert_eq!(s.node_count(), before_nodes);
        s.check_invariants(&out.doc).unwrap();
        validate(&s).unwrap();
        assert!(out.report.drift_added > 0.0);
        // The paper extent grew by one.
        let papers = s.nodes_with_tag("paper")[0];
        assert_eq!(s.extent_size(papers), 4);
    }

    #[test]
    fn novel_tags_get_fresh_groups() {
        let doc = bib();
        let mut s = coarse_synopsis(&doc);
        let mut drift = DriftMeter::new();
        let authors = s.nodes_with_tag("author")[0];
        let target = s.extent(authors)[1];
        let mut delta = Delta::new();
        delta.insert(target, parse("<thesis><title/></thesis>").unwrap());
        let before = s.node_count();
        let out = delta_xbuild(
            &mut s,
            &doc,
            &delta,
            apply_delta(&doc, &delta).unwrap(),
            &mut drift,
            &DeltaBuildOptions::default(),
        );
        assert!(!out.report.full_rebuild);
        // Two fresh groups: thesis, plus title *under thesis* (novel
        // partition signature — the existing title group hangs off paper
        // and book).
        assert_eq!(out.report.groups_created, 2);
        assert_eq!(s.node_count(), before + 2);
        s.check_invariants(&out.doc).unwrap();
        validate(&s).unwrap();
        assert_eq!(s.nodes_with_tag("thesis").len(), 1);
        assert_eq!(s.nodes_with_tag("title").len(), 2);
    }

    #[test]
    fn delete_that_empties_a_group_falls_back_to_full_rebuild() {
        let doc = bib();
        let mut s = coarse_synopsis(&doc);
        let mut drift = DriftMeter::new();
        // The single book element: deleting it empties the book group.
        let book = s.nodes_with_tag("book")[0];
        let target = s.extent(book)[0];
        let mut delta = Delta::new();
        delta.delete(target);
        let out = delta_xbuild(
            &mut s,
            &doc,
            &delta,
            apply_delta(&doc, &delta).unwrap(),
            &mut drift,
            &DeltaBuildOptions::default(),
        );
        assert!(out.report.full_rebuild);
        assert!(out.report.needs_refine);
        s.check_invariants(&out.doc).unwrap();
        validate(&s).unwrap();
        assert!(s.nodes_with_tag("book").is_empty());
    }

    #[test]
    fn modify_refreshes_value_summaries() {
        let doc = bib();
        let mut s = coarse_synopsis(&doc);
        let mut drift = DriftMeter::new();
        let years = s.nodes_with_tag("year")[0];
        let target = s.extent(years)[0];
        let mut delta = Delta::new();
        delta.modify(target, Some(2030));
        let out = delta_xbuild(
            &mut s,
            &doc,
            &delta,
            apply_delta(&doc, &delta).unwrap(),
            &mut drift,
            &DeltaBuildOptions::default(),
        );
        assert!(!out.report.full_rebuild);
        assert!(out.report.value_summaries_rebuilt >= 1);
        s.check_invariants(&out.doc).unwrap();
        validate(&s).unwrap();
        // All four years > 2000 now... three of three here: 2030, 2002, 2001.
        let f = s.value_fraction(years, 2001, i64::MAX);
        assert!(f > 0.5, "{f}");
    }

    #[test]
    fn drift_accumulates_until_threshold() {
        let doc = bib();
        let mut s = coarse_synopsis(&doc);
        let mut drift = DriftMeter::new();
        let opts = DeltaBuildOptions {
            drift_threshold: 0.5,
            ..Default::default()
        };
        let mut cur = doc;
        let mut needs = false;
        for _ in 0..6 {
            let authors = s.nodes_with_tag("author")[0];
            let target = s.extent(authors)[0];
            let mut delta = Delta::new();
            delta.insert(target, parse("<paper><title/><keyword/></paper>").unwrap());
            let out = delta_xbuild(
                &mut s,
                &cur,
                &delta,
                apply_delta(&cur, &delta).unwrap(),
                &mut drift,
                &opts,
            );
            cur = out.doc;
            needs = out.report.needs_refine;
            if needs {
                break;
            }
        }
        assert!(
            needs,
            "repeated inserts must eventually cross the threshold"
        );
        // Budgeted refinement resets the meter.
        let build = BuildOptions {
            budget_bytes: s.size_bytes() + 256,
            max_rounds: 4,
            ..Default::default()
        };
        let (refined, _trace) = drift_refine(s, &cur, TruthSource::Exact, &build, &mut drift);
        assert_eq!(drift.total(), 0.0);
        validate(&refined).unwrap();
        refined.check_invariants(&cur).unwrap();
    }

    #[test]
    fn maintained_synopsis_matches_from_scratch_estimates_coarsely() {
        // With no refinement history, incremental maintenance at label
        // granularity must agree exactly with a coarse build of the
        // post-delta document whenever no group empties or appears.
        let doc = bib();
        let mut s = coarse_synopsis(&doc);
        let mut drift = DriftMeter::new();
        let authors = s.nodes_with_tag("author")[0];
        let target = s.extent(authors)[2];
        let mut delta = Delta::new();
        delta.insert(
            target,
            parse("<paper><title/><year>2010</year><keyword/></paper>").unwrap(),
        );
        let out = delta_xbuild(
            &mut s,
            &doc,
            &delta,
            apply_delta(&doc, &delta).unwrap(),
            &mut drift,
            &DeltaBuildOptions::default(),
        );
        let scratch = coarse_synopsis(&out.doc);
        assert_eq!(s.node_count(), scratch.node_count());
        for n in s.node_ids() {
            let m = scratch.nodes_with_tag(s.tag(n))[0];
            assert_eq!(s.extent_size(n), scratch.extent_size(m), "{}", s.tag(n));
        }
        assert_eq!(s.edge_count(), scratch.edge_count());
    }
}
