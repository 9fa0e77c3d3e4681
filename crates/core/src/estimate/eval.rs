//! TREEPARSE and evaluation of the selectivity expression (§4).
//!
//! For each embedding node `t_i` bound to synopsis node `n_i` with edge
//! histogram `H_i`, the evaluator classifies the information available:
//!
//! * `E_i` — forward dimensions of `H_i` that must be **enumerated**:
//!   those covering a twig child edge of `t_i`, plus those some descendant
//!   conditions on through a backward dimension (computed by the `needs`
//!   pre-pass). Dimensions of `H_i` outside `E_i` are marginalized by the
//!   histogram operations.
//! * `D_i` — backward dimensions of `H_i` whose edges were enumerated by
//!   an ancestor: the evaluation **conditions** `H_i` on the enumerated
//!   values (`F_i(E_i | D_i) = H_i(E_i ∪ D_i)/H_i(D_i)`, the
//!   Correlation-Scope Independence assumption). Backward dimensions whose
//!   edges were not enumerated are dropped (`F(E|D) ≈ F(E | E∩D)`).
//! * `U_i` — twig child edges not covered by any forward dimension: each
//!   contributes its exact per-edge average `child_count(u→v)/|u|`
//!   independently (Forward Uniformity + Forward Independence).
//!
//! Conditioning context flows through an environment of
//! `(edge, enumerated value)` pairs maintained along the depth-first
//! recursion — the implementation restricts the paper's global `covered`
//! set to the ancestor chain, which is the context a depth-first product
//! evaluation can condition on.

use crate::estimate::arena::{self, EvalArena, FrameBufs};
use crate::estimate::embedding::Embedding;
use crate::estimate::guard::Meter;
use crate::synopsis::{DimKind, SynId, Synopsis, ValueSource};

/// Estimates the selectivity of one maximal twig embedding.
pub fn estimate_embedding(s: &Synopsis, emb: &Embedding) -> f64 {
    estimate_embedding_metered(s, emb, &mut Meter::unlimited())
}

/// [`estimate_embedding`] charging a caller-owned budget [`Meter`]. On
/// exhaustion the support-term loops stop early, yielding the (finite)
/// partial accumulation instead of the full TREEPARSE sum.
pub fn estimate_embedding_metered(s: &Synopsis, emb: &Embedding, meter: &mut Meter) -> f64 {
    if emb.nodes.is_empty() {
        return 0.0;
    }
    let needs = compute_needs(s, emb);
    arena::with_scratch(|ar| emb.root_count * eval_node(s, emb, &needs, 0, ar, meter))
}

/// `needs[i]`: edges that appear as backward dimensions of histograms in
/// the subtree rooted at `i` (including `i` itself) — ancestors must
/// enumerate these when they can, so descendants can condition on them.
/// Sets are sorted, deduplicated `Vec`s, queried by binary search — the
/// same representation (and iteration order) as the compiled pre-pass.
fn compute_needs(s: &Synopsis, emb: &Embedding) -> Vec<Vec<(SynId, SynId)>> {
    // Per-embedding sets outlive the whole frame stack (every ancestor
    // queries its descendants' sets), so they cannot live in the
    // arena's stack-disciplined lanes.
    // lint:allow(hot-alloc)
    let mut needs: Vec<Vec<(SynId, SynId)>> = vec![Vec::new(); emb.nodes.len()];
    // Children always follow parents in index order, so a reverse sweep
    // sees every child before its parent.
    for (i, node) in emb.nodes.iter().enumerate().rev() {
        let hist = s.edge_hist(node.syn);
        let mut set: Vec<(SynId, SynId)> = hist
            .scope
            .iter()
            .filter(|d| d.kind == DimKind::Backward)
            .map(|d| d.edge_key())
            .collect(); // lint:allow(hot-alloc): ditto — stored into `needs[i]`
        for &c in &node.children {
            if let Some(below) = needs.get(c) {
                set.extend(below.iter().copied());
            }
        }
        set.sort_unstable();
        set.dedup();
        if let Some(slot) = needs.get_mut(i) {
            *slot = set;
        }
    }
    needs
}

/// Expected number of binding tuples for the subtree rooted at embedding
/// node `i`, per element of its synopsis node, conditioned on the
/// enumerated-value environment in `ar.env`.
///
/// Frame-local classification buffers are *taken* out of the arena's
/// recycled pool rather than borrowed in place: the histogram's support
/// visitor holds `cond`/`enum_dims` slices across bucket callbacks that
/// recurse and re-borrow the arena mutably, which in-place lane borrows
/// cannot express safely. The buffers go back (cleared, capacity kept)
/// on every exit path, so steady state allocates nothing.
fn eval_node(
    s: &Synopsis,
    emb: &Embedding,
    needs: &[Vec<(SynId, SynId)>],
    i: usize,
    ar: &mut EvalArena,
    meter: &mut Meter,
) -> f64 {
    let Some(node) = emb.nodes.get(i) else {
        return 0.0;
    };
    let syn = node.syn;
    let hist = s.edge_hist(syn);
    let mut f: FrameBufs = ar.pop_frame();

    // --- Predicate factors -------------------------------------------
    let mut factor = node.branch_fraction;
    // Value predicates route through the histogram's *value dimensions*
    // when recorded (§3.2's extended `H^v(V, C)`): each matched predicate
    // becomes a soft per-bucket weight on the joint support, so the
    // surviving count distribution is the conditional one. Unmatched
    // predicates fall back to an independent fraction (the prototype's
    // behaviour).
    if let Some((lo, hi)) = node.value_range {
        match hist.value_dim_of(syn, ValueSource::OwnValue) {
            Some(di) if hist.value_buckets[di].is_some() => f.value_conds.push((di, lo, hi)),
            _ => factor *= s.value_fraction(syn, lo, hi),
        }
    }
    for bv in &node.branch_values {
        match hist.value_dim_of(syn, ValueSource::ChildValue(bv.child)) {
            Some(di) if hist.value_buckets.get(di).is_some_and(Option::is_some) => {
                f.value_conds.push((di, bv.range.0, bv.range.1));
            }
            _ => factor *= bv.fallback,
        }
    }
    if factor == 0.0 {
        ar.push_frame(f);
        return 0.0;
    }
    if node.children.is_empty() && f.value_conds.is_empty() {
        ar.push_frame(f);
        return factor;
    }

    // --- TREEPARSE classification -------------------------------------
    let is_child_edge = |edge: (SynId, SynId)| -> bool {
        node.children
            .iter()
            .any(|&c| emb.nodes.get(c).is_some_and(|cn| (syn, cn.syn) == edge))
    };
    let needs_below = |edge: &(SynId, SynId)| -> bool {
        node.children.iter().any(|&c| {
            needs
                .get(c)
                .is_some_and(|set| set.binary_search(edge).is_ok())
        })
    };
    // E_i: forward dims to enumerate jointly.
    for (di, d) in hist.scope.iter().enumerate() {
        if d.kind == DimKind::Forward && d.parent == syn {
            let key = d.edge_key();
            if is_child_edge(key) || needs_below(&key) {
                f.enum_dims.push(di);
            }
        }
    }
    // D_i: backward dims with an enumerated ancestor value in `env`
    // (latest binding wins, handling repeated synopsis nodes on a chain).
    for (di, d) in hist.scope.iter().enumerate() {
        if d.kind == DimKind::Backward {
            let key = d.edge_key();
            if let Some(&(_, v)) = ar.env.iter().rev().find(|(k, _)| *k == key) {
                f.cond.push((di, v));
            }
        }
    }
    if !f.cond.is_empty() {
        // Correlation-Scope Independence fires: this node's histogram is
        // conditioned on enumerated ancestor counts. (Observational.)
        meter.note_conditioning();
    }

    // Map each child to the enumerated dim covering its edge, if any.
    for &c in &node.children {
        let child_syn = emb.nodes.get(c).map(|cn| cn.syn);
        let pos = f.enum_dims.iter().position(|&di| {
            child_syn.is_some_and(|cs| {
                hist.scope
                    .get(di)
                    .is_some_and(|d| d.edge_key() == (syn, cs))
            })
        });
        f.child_dim.push(pos);
    }

    // --- Evaluation ----------------------------------------------------
    // Per-bucket weight from the matched value predicates: the share of
    // the bucket's elements whose value dimension(s) survive the ranges.
    let weight = |b: &xtwig_histogram::Bucket| -> f64 {
        let mut w = 1.0;
        for &(di, lo, hi) in &f.value_conds {
            // `value_conds` only records dims verified to carry buckets.
            let Some(Some(vb)) = hist.value_buckets.get(di) else {
                continue;
            };
            let (Some(&blo), Some(&bhi)) = (b.lo.get(di), b.hi.get(di)) else {
                continue;
            };
            w *= vb.overlap_share(blo, bhi, lo, hi);
            if w == 0.0 {
                break;
            }
        }
        w
    };
    // The joint support is consumed in place through the histogram's
    // visitor — one term at a time, no materialized `(mass, values)`
    // list per node visit. `values[j]` of the old list form is the
    // bucket's mean on `enum_dims[j]`, read straight from the bucket.
    let mut acc = 0.0;
    let mut body = |mass: f64, bucket: Option<&xtwig_histogram::Bucket>| -> bool {
        if !meter.proceed(1) {
            return false;
        }
        meter.note_bucket();
        if mass == 0.0 {
            return true;
        }
        let env_base = ar.env.len();
        if let Some(b) = bucket {
            for &di in &f.enum_dims {
                if let (Some(dim), Some(&val)) = (hist.scope.get(di), b.mean.get(di)) {
                    ar.env.push((dim.edge_key(), val));
                }
            }
        }
        let mut term = mass;
        for (&c, dim) in node.children.iter().zip(f.child_dim.iter()) {
            let sub = eval_node(s, emb, needs, c, ar, meter);
            let enumerated = match (bucket, dim) {
                (Some(b), Some(j)) => f.enum_dims.get(*j).and_then(|&di| b.mean.get(di)).copied(),
                _ => None,
            };
            let mult = match enumerated {
                Some(v) => v,
                // U_i: Forward Uniformity over the exact edge average.
                None => match emb.nodes.get(c) {
                    Some(child) => {
                        meter.note_uniformity();
                        s.avg_children(syn, child.syn)
                    }
                    None => 0.0,
                },
            };
            term *= mult * sub;
            if term == 0.0 {
                break;
            }
        }
        ar.env.truncate(env_base);
        acc += term;
        true
    };
    if f.enum_dims.is_empty() && f.value_conds.is_empty() {
        body(1.0, None);
    } else {
        hist.hist
            .visit_conditional_support_weighted(&f.cond, &f.enum_dims, &weight, &mut body);
    }
    ar.push_frame(f);
    factor * acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use crate::estimate::{enumerate_embeddings, interpreted, EstimateOptions};
    use crate::synopsis::{DimKind, ScopeDim};
    use xtwig_query::{parse_twig, selectivity};
    use xtwig_xml::{parse, DocumentBuilder};

    /// Figure 4's two documents: same single-path structure, twig
    /// selectivities 2000 vs 10100.
    fn figure4_doc(counts: &[(usize, usize)]) -> xtwig_xml::Document {
        let mut b = DocumentBuilder::new();
        b.open("R", None);
        for &(nb, nc) in counts {
            b.open("A", None);
            for _ in 0..nb {
                b.leaf("B", None);
            }
            for _ in 0..nc {
                b.leaf("C", None);
            }
            b.close();
        }
        b.close();
        b.finish()
    }

    #[test]
    fn figure4_exact_with_two_dim_histogram() {
        // With a 2-D histogram f_A(b, c) the estimate is exact — the
        // paper's motivating computation Σ |A|·f_A(b,c)·b·c.
        for (counts, truth) in [
            (vec![(10usize, 100usize), (100, 10)], 2000.0),
            (vec![(100, 100), (10, 10)], 10100.0),
        ] {
            let d = figure4_doc(&counts);
            let mut s = coarse_synopsis(&d);
            let a = s.nodes_with_tag("A")[0];
            let bnode = s.nodes_with_tag("B")[0];
            let cnode = s.nodes_with_tag("C")[0];
            s.set_edge_hist(
                &d,
                a,
                vec![
                    ScopeDim {
                        parent: a,
                        child: bnode,
                        kind: DimKind::Forward,
                    },
                    ScopeDim {
                        parent: a,
                        child: cnode,
                        kind: DimKind::Forward,
                    },
                ],
                4096,
            );
            let q = parse_twig("for $t0 in //A, $t1 in $t0/B, $t2 in $t0/C").unwrap();
            let est = interpreted(&s, &q, &EstimateOptions::default());
            assert!((est - truth).abs() < 1e-6, "estimate {est} != {truth}");
            assert_eq!(selectivity(&d, &q) as f64, truth);
        }
    }

    #[test]
    fn figure4_coarse_histograms_confuse_the_documents() {
        // Without the joint distribution, both documents get the same
        // (wrong) AVI-style estimate |A|·E[b]·E[c] = 2·55·55 = 6050.
        for counts in [
            vec![(10usize, 100usize), (100, 10)],
            vec![(100, 100), (10, 10)],
        ] {
            let d = figure4_doc(&counts);
            let mut s = coarse_synopsis(&d);
            let a = s.nodes_with_tag("A")[0];
            // Independent 1-D scopes: enumerate b and c separately.
            s.set_edge_hist(&d, a, vec![], 8);
            let q = parse_twig("for $t0 in //A, $t1 in $t0/B, $t2 in $t0/C").unwrap();
            let est = interpreted(&s, &q, &EstimateOptions::default());
            assert!((est - 6050.0).abs() < 1e-6, "estimate {est}");
        }
    }

    /// Builds the Example 3.1 / §4 worked-example document: three authors
    /// (p,n) = (2,1), (1,1), (1,1); papers with (k,y) = (2,1), (1,1),
    /// (1,1), (1,1); two books.
    fn worked_example_doc() -> xtwig_xml::Document {
        parse(concat!(
            "<bib>",
            "<author><name/>",
            "<paper><keyword/><keyword/><year>1999</year></paper>",
            "<paper><keyword/><year>2002</year></paper>",
            "</author>",
            "<author><name/>",
            "<paper><keyword/><year>2001</year></paper>",
            "<book/>",
            "</author>",
            "<author><name/>",
            "<paper><keyword/><year>2000</year></paper>",
            "<book/>",
            "</author>",
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn example_3_1_histogram_contents() {
        // The f_P(C_K, C_Y, C_P, C_N) table of Example 3.1.
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let paper = s.nodes_with_tag("paper")[0];
        let author = s.nodes_with_tag("author")[0];
        let keyword = s.nodes_with_tag("keyword")[0];
        let year = s.nodes_with_tag("year")[0];
        let name = s.nodes_with_tag("name")[0];
        let scope = vec![
            ScopeDim {
                parent: paper,
                child: keyword,
                kind: DimKind::Forward,
            },
            ScopeDim {
                parent: paper,
                child: year,
                kind: DimKind::Forward,
            },
            ScopeDim {
                parent: author,
                child: paper,
                kind: DimKind::Backward,
            },
            ScopeDim {
                parent: author,
                child: name,
                kind: DimKind::Backward,
            },
        ];
        let dist = s.edge_distribution(&d, paper, &scope);
        assert!((dist.fraction(&[2, 1, 2, 1]) - 0.25).abs() < 1e-12);
        assert!((dist.fraction(&[1, 1, 2, 1]) - 0.25).abs() < 1e-12);
        assert!((dist.fraction(&[1, 1, 1, 1]) - 0.50).abs() < 1e-12);
    }

    #[test]
    fn paper_worked_example_ten_thirds() {
        // §4's end-to-end example: the embedding A→{B,N,P}, P→{K,Y} with
        // H_A(P,N) and H_P(K,Y | P) evaluates to 10/3.
        let d = worked_example_doc();
        let mut s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let paper = s.nodes_with_tag("paper")[0];
        let name = s.nodes_with_tag("name")[0];
        let keyword = s.nodes_with_tag("keyword")[0];
        let year = s.nodes_with_tag("year")[0];
        let book = s.nodes_with_tag("book")[0];
        s.set_edge_hist(
            &d,
            author,
            vec![
                ScopeDim {
                    parent: author,
                    child: paper,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: author,
                    child: name,
                    kind: DimKind::Forward,
                },
            ],
            4096,
        );
        s.set_edge_hist(
            &d,
            paper,
            vec![
                ScopeDim {
                    parent: paper,
                    child: keyword,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: paper,
                    child: year,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: author,
                    child: paper,
                    kind: DimKind::Backward,
                },
            ],
            4096,
        );
        // Build the Fig. 6 embedding directly, rooted at A with |A| = 3.
        let mut emb = Embedding::with_root(author, 3.0);
        emb.push_node(0, book, None, 1.0); // B
        emb.push_node(0, name, None, 1.0); // N
        let p = emb.push_node(0, paper, None, 1.0); // P
        emb.push_node(p, keyword, None, 1.0); // K
        emb.push_node(p, year, None, 1.0); // Y
        let est = estimate_embedding(&s, &emb);
        assert!(
            (est - 10.0 / 3.0).abs() < 1e-9,
            "worked example: {est} != 10/3"
        );
    }

    #[test]
    fn full_information_is_exact_on_the_worked_example() {
        // With backward counts linking P to both of A's enumerated dims,
        // the estimate for the A→{N,P}, P→{K,Y} twig (no book) is exact.
        let d = worked_example_doc();
        let mut s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let paper = s.nodes_with_tag("paper")[0];
        let name = s.nodes_with_tag("name")[0];
        let keyword = s.nodes_with_tag("keyword")[0];
        let year = s.nodes_with_tag("year")[0];
        s.set_edge_hist(
            &d,
            author,
            vec![
                ScopeDim {
                    parent: author,
                    child: paper,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: author,
                    child: name,
                    kind: DimKind::Forward,
                },
            ],
            1 << 16,
        );
        s.set_edge_hist(
            &d,
            paper,
            vec![
                ScopeDim {
                    parent: paper,
                    child: keyword,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: paper,
                    child: year,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: author,
                    child: paper,
                    kind: DimKind::Backward,
                },
                ScopeDim {
                    parent: author,
                    child: name,
                    kind: DimKind::Backward,
                },
            ],
            1 << 16,
        );
        let q = parse_twig(
            "for $t0 in //author, $t1 in $t0/name, $t2 in $t0/paper, $t3 in $t2/keyword, $t4 in $t2/year",
        )
        .unwrap();
        let est = interpreted(&s, &q, &EstimateOptions::default());
        let truth = selectivity(&d, &q) as f64;
        assert!((est - truth).abs() < 1e-6, "{est} vs {truth}");
    }

    #[test]
    fn value_predicates_scale_estimates() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let q_all = parse_twig("for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/year").unwrap();
        let q_some =
            parse_twig("for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/year[. >= 2001]")
                .unwrap();
        let opts = EstimateOptions::default();
        let est_all = interpreted(&s, &q_all, &opts);
        let est_some = interpreted(&s, &q_some, &opts);
        assert!(est_some < est_all, "{est_some} !< {est_all}");
        assert!(est_some > 0.0);
        // Exact: 2 of 4 years are ≥ 2001.
        assert_eq!(selectivity(&d, &q_some), 2);
    }

    #[test]
    fn branch_predicate_scales_estimates() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let opts = EstimateOptions::default();
        let q = parse_twig("for $t0 in //author[book], $t1 in $t0/paper").unwrap();
        let est = interpreted(&s, &q, &opts);
        // 2 of 3 authors have a book; they hold 2 papers total. The
        // uniformity assumption spreads papers evenly: 3 × 2/3 × 4/3 ≈ 2.67.
        let truth = selectivity(&d, &q) as f64;
        assert_eq!(truth, 2.0);
        assert!((est - 8.0 / 3.0).abs() < 1e-9, "{est}");
    }

    #[test]
    fn leaf_only_queries_count_elements() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let opts = EstimateOptions::default();
        let q = parse_twig("for $t0 in //keyword").unwrap();
        let est = interpreted(&s, &q, &opts);
        assert!((est - 5.0).abs() < 1e-9, "{est}");
    }

    #[test]
    fn joint_value_summary_captures_genre_correlation() {
        // The §1 movie scenario: type=1 movies have 8 actors, type=2 have
        // 1. A 1-D value histogram + independence gets the per-type actor
        // join badly wrong; a joint (type-value × actor-count) summary is
        // near-exact.
        let mut b = xtwig_xml::DocumentBuilder::new();
        b.open("ms", None);
        for i in 0..40 {
            b.open("movie", None);
            let t = if i % 2 == 0 { 1 } else { 2 };
            b.leaf("type", Some(t));
            for _ in 0..(if t == 1 { 8 } else { 1 }) {
                b.leaf("actor", None);
            }
            b.close();
        }
        b.close();
        let d = b.finish();
        let q = xtwig_query::parse_twig("for $t0 in //movie[type = 1], $t1 in $t0/actor").unwrap();
        let truth = selectivity(&d, &q) as f64; // 20 movies × 8 = 160
        assert_eq!(truth, 160.0);

        let plain = coarse_synopsis(&d);
        let opts = EstimateOptions::default();
        let plain_est = interpreted(&plain, &q, &opts);
        // Independence: 40 movies × 0.5 (type fraction) × 4.5 avg = 90.
        assert!((plain_est - 90.0).abs() < 1.0, "{plain_est}");

        let mut joint = plain.clone();
        let movie = joint.nodes_with_tag("movie")[0];
        let typ = joint.nodes_with_tag("type")[0];
        let actor = joint.nodes_with_tag("actor")[0];
        let mut scope = joint.edge_hist(movie).scope.clone();
        if joint
            .edge_hist(movie)
            .dim_of(movie, actor, DimKind::Forward)
            .is_none()
        {
            scope.push(ScopeDim {
                parent: movie,
                child: actor,
                kind: DimKind::Forward,
            });
        }
        scope.push(ScopeDim {
            parent: movie,
            child: typ,
            kind: DimKind::Value,
        });
        joint.set_edge_hist(&d, movie, scope, 2048);
        let joint_est = interpreted(&joint, &q, &opts);
        assert!(
            (joint_est - truth).abs() < 1.0,
            "joint estimate {joint_est} vs truth {truth}"
        );
    }

    #[test]
    fn own_value_joint_summary_still_works() {
        // Elements whose own value correlates with their child count.
        let mut b = xtwig_xml::DocumentBuilder::new();
        b.open("r", None);
        for i in 0..30 {
            let v = if i % 3 == 0 { 10 } else { 20 };
            b.open("x", Some(v));
            for _ in 0..(if v == 10 { 5 } else { 0 }) {
                b.leaf("y", None);
            }
            b.close();
        }
        b.close();
        let d = b.finish();
        // Note: x elements carry values AND children in this synthetic
        // document (values normally live on leaves; the model allows both).
        let q = xtwig_query::parse_twig("for $t0 in //x[. = 10], $t1 in $t0/y").unwrap();
        let truth = selectivity(&d, &q) as f64;
        assert_eq!(truth, 50.0);
        let mut s = coarse_synopsis(&d);
        let x = s.nodes_with_tag("x")[0];
        let y = s.nodes_with_tag("y")[0];
        let mut scope = s.edge_hist(x).scope.clone();
        if s.edge_hist(x).dim_of(x, y, DimKind::Forward).is_none() {
            scope.push(ScopeDim {
                parent: x,
                child: y,
                kind: DimKind::Forward,
            });
        }
        scope.push(ScopeDim {
            parent: x,
            child: x,
            kind: DimKind::Value,
        });
        s.set_edge_hist(&d, x, scope, 2048);
        let est = interpreted(&s, &q, &EstimateOptions::default());
        assert!((est - truth).abs() < 1.0, "{est} vs {truth}");
    }

    #[test]
    fn needs_propagate_upward() {
        let d = worked_example_doc();
        let mut s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let paper = s.nodes_with_tag("paper")[0];
        let keyword = s.nodes_with_tag("keyword")[0];
        s.set_edge_hist(
            &d,
            paper,
            vec![
                ScopeDim {
                    parent: paper,
                    child: keyword,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: author,
                    child: paper,
                    kind: DimKind::Backward,
                },
            ],
            4096,
        );
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/keyword").unwrap();
        let embs = enumerate_embeddings(&s, &q, &EstimateOptions::default());
        assert_eq!(embs.len(), 1);
        let needs = compute_needs(&s, &embs[0]);
        // The root (bib) must know that (author→paper) is needed below.
        assert!(needs[0].contains(&(author, paper)));
    }
}

#[cfg(test)]
mod value_dim_tests {

    use crate::coarse::coarse_synopsis;
    use crate::estimate::{interpreted, EstimateOptions};
    use crate::synopsis::{DimKind, ScopeDim};
    use xtwig_query::{parse_twig, selectivity};
    use xtwig_xml::DocumentBuilder;

    /// Departments with a grade child whose value drives both team size
    /// and the per-member report count — exercises a value dimension at
    /// the top node together with backward conditioning below it.
    fn dept_doc() -> xtwig_xml::Document {
        let mut b = DocumentBuilder::new();
        b.open("org", None);
        for i in 0..24 {
            b.open("dept", None);
            let grade = if i % 3 == 0 { 1 } else { 2 };
            b.leaf("grade", Some(grade));
            let members = if grade == 1 { 6 } else { 2 };
            for _ in 0..members {
                b.open("member", None);
                let reports = if grade == 1 { 3 } else { 1 };
                for _ in 0..reports {
                    b.leaf("report", None);
                }
                b.close();
            }
            b.close();
        }
        b.close();
        b.finish()
    }

    #[test]
    fn value_dim_with_backward_conditioning_is_near_exact() {
        let d = dept_doc();
        let mut s = coarse_synopsis(&d);
        let dept = s.nodes_with_tag("dept")[0];
        let grade = s.nodes_with_tag("grade")[0];
        let member = s.nodes_with_tag("member")[0];
        let report = s.nodes_with_tag("report")[0];
        s.set_edge_hist(
            &d,
            dept,
            vec![
                ScopeDim {
                    parent: dept,
                    child: member,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: dept,
                    child: grade,
                    kind: DimKind::Value,
                },
            ],
            1 << 14,
        );
        s.set_edge_hist(
            &d,
            member,
            vec![
                ScopeDim {
                    parent: member,
                    child: report,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: dept,
                    child: member,
                    kind: DimKind::Backward,
                },
            ],
            1 << 14,
        );
        let q = parse_twig("for $t0 in //dept[grade = 1], $t1 in $t0/member, $t2 in $t1/report")
            .unwrap();
        let truth = selectivity(&d, &q) as f64; // 8 depts × 6 members × 3 = 144
        assert_eq!(truth, 144.0);
        let est = interpreted(&s, &q, &EstimateOptions::default());
        assert!(
            (est - truth).abs() < 1.0,
            "value dim + backward conditioning: {est} vs {truth}"
        );
        // Without the value dimension, independence blurs the two grades.
        let mut blurred = coarse_synopsis(&d);
        blurred.set_edge_hist(
            &d,
            dept,
            vec![ScopeDim {
                parent: dept,
                child: member,
                kind: DimKind::Forward,
            }],
            1 << 14,
        );
        let blurred_est = interpreted(&blurred, &q, &EstimateOptions::default());
        assert!(
            (blurred_est - truth).abs() > 20.0,
            "independence should miss: {blurred_est} vs {truth}"
        );
    }

    #[test]
    fn value_dim_on_leaf_node_acts_as_fraction() {
        // A value predicate on a node with no twig children still routes
        // through the value dimension (weighted mass, no counts).
        let d = dept_doc();
        let mut s = coarse_synopsis(&d);
        let grade = s.nodes_with_tag("grade")[0];
        s.set_edge_hist(
            &d,
            grade,
            vec![ScopeDim {
                parent: grade,
                child: grade,
                kind: DimKind::Value,
            }],
            1 << 12,
        );
        let q = parse_twig("for $t0 in //grade[. = 1]").unwrap();
        let truth = selectivity(&d, &q) as f64; // 8
        let est = interpreted(&s, &q, &EstimateOptions::default());
        assert!((est - truth).abs() < 1e-6, "{est} vs {truth}");
    }

    #[test]
    fn unmatched_value_preds_fall_back_to_summaries() {
        let d = dept_doc();
        let s = coarse_synopsis(&d); // no value dims anywhere
        let q = parse_twig("for $t0 in //dept[grade = 1], $t1 in $t0/member").unwrap();
        let est = interpreted(&s, &q, &EstimateOptions::default());
        // Fallback = fraction × average members: 24 × (1/3) × (8·6+16·2)/24.
        let expected = 24.0 * (1.0 / 3.0) * ((8.0 * 6.0 + 16.0 * 2.0) / 24.0);
        assert!((est - expected).abs() < 1.5, "{est} vs expected {expected}");
    }
}
