//! Sequential Buchberger completion — the reference implementation and
//! speedup denominator for the parallel Gröbner application.
//!
//! The algorithm keeps a queue of *critical pairs* ordered by a selection
//! heuristic ("a good selection heuristic being essential"), pops the
//! best pair, forms its S-polynomial, reduces it against the current
//! basis, and inserts irreducible results (spawning new pairs). Pairs
//! are pruned with Buchberger's product criterion (coprime leading
//! monomials) and chain criterion.

use crate::field::Field;
use crate::monomial::Monomial;
use crate::poly::{GenPoly, Ring};
use crate::spoly::{normal_form, s_polynomial, Work};
use earth_sim::MinEntry;
use std::collections::BinaryHeap;

/// Pair-selection heuristic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Normal strategy: smallest lcm degree first (ties by index).
    #[default]
    Normal,
    /// Sugar strategy: smallest "sugar" degree (phantom homogenized
    /// degree) first.
    Sugar,
    /// First-in-first-out (no heuristic) — pessimal baseline for the
    /// heuristic-sensitivity ablation.
    Fifo,
}

/// A critical pair `(i, j)` queued under its priority key (smaller key =
/// better pair). The shared [`MinEntry`] wrapper supplies the min-first
/// heap order and the seq tie-break.
type Pair = MinEntry<(u64, u64), (usize, usize)>;

/// Priority key of a critical pair under `strategy` (smaller = better):
/// the "goodness" that orders both the sequential queue and each node's
/// local queue in the parallel application.
pub fn pair_key(strategy: SelectionStrategy, lcm: &Monomial, sugar: u64, seq: u64) -> (u64, u64) {
    match strategy {
        SelectionStrategy::Normal => (lcm.degree() as u64, seq),
        SelectionStrategy::Sugar => (sugar, lcm.degree() as u64),
        SelectionStrategy::Fifo => (seq, 0),
    }
}

/// Statistics of a completion run — the Table 2 characteristics.
#[derive(Clone, Debug, Default)]
pub struct BuchbergerStats {
    /// Pairs actually processed (S-polynomial formed and reduced) —
    /// Table 2's "number of tasks created".
    pub pairs_processed: usize,
    /// Pairs discarded by the product criterion.
    pub pairs_skipped_product: usize,
    /// Pairs discarded by the chain criterion.
    pub pairs_skipped_chain: usize,
    /// Polynomials added beyond the input ("added for completion").
    pub polys_added: usize,
    /// Total reduction work.
    pub work: Work,
    /// Per-pair work (for the mean-step-time characteristic and the
    /// virtual-time sequential baseline).
    pub step_works: Vec<Work>,
}

/// Select the critical pairs a newly inserted basis element `new_idx`
/// must form against `leads[0..new_idx]`, pruned by the Gebauer–Möller
/// criteria applied at creation time:
///
/// * **M** — drop `(new, i)` when some other candidate's lcm *strictly*
///   divides its lcm;
/// * **F** — among candidates with equal lcm, keep only the first;
/// * **B** (product criterion) — drop pairs with coprime leading
///   monomials.
///
/// These decisions involve only the new element and current leads, so the
/// parallel application can apply the *identical* policy locally on the
/// inserting node (the retroactive old-pair elimination of full
/// Gebauer–Möller would require reaching into other nodes' distributed
/// queues, so — like the paper's Multipol-derived code — we do not use
/// it; the sequential baseline follows the same policy to keep work
/// comparable).
pub fn select_new_pairs(
    leads: &[Monomial],
    new_idx: usize,
    skipped_product: &mut usize,
    skipped_chain: &mut usize,
) -> Vec<(usize, Monomial)> {
    let lt_new = leads[new_idx];
    let cands: Vec<(usize, Monomial)> = (0..new_idx).map(|i| (i, leads[i].lcm(&lt_new))).collect();
    let mut keep: Vec<(usize, Monomial)> = Vec::with_capacity(cands.len());
    'cand: for &(i, lcm) in &cands {
        for &(j, other) in &cands {
            if i == j {
                continue;
            }
            // M: strictly smaller lcm elsewhere.
            if other != lcm && other.divides(&lcm) {
                *skipped_chain += 1;
                continue 'cand;
            }
            // F: equal lcm, keep the lowest index.
            if other == lcm && j < i {
                *skipped_chain += 1;
                continue 'cand;
            }
        }
        // B: product criterion.
        if leads[i].coprime(&lt_new) {
            *skipped_product += 1;
            continue;
        }
        keep.push((i, lcm));
    }
    keep
}

/// Run Buchberger completion on `input` and return `(basis, stats)`.
/// The basis contains the (monic) inputs followed by the added
/// polynomials; it is a Gröbner basis of the generated ideal.
pub fn buchberger<C: Field>(
    ring: &Ring,
    input: &[GenPoly<C>],
    strategy: SelectionStrategy,
) -> (Vec<GenPoly<C>>, BuchbergerStats) {
    let mut stats = BuchbergerStats::default();
    let mut basis: Vec<GenPoly<C>> = input
        .iter()
        .filter(|p| !p.is_zero())
        .map(GenPoly::monic)
        .collect();
    let mut sugars: Vec<u64> = basis.iter().map(|p| p.degree() as u64).collect();
    let mut queue: BinaryHeap<Pair> = BinaryHeap::new();
    let mut seq = 0u64;

    let push_pairs = |queue: &mut BinaryHeap<Pair>,
                      basis: &[GenPoly<C>],
                      sugars: &[u64],
                      stats: &mut BuchbergerStats,
                      seq: &mut u64,
                      new_idx: usize| {
        let leads: Vec<Monomial> = basis.iter().map(|p| p.lead().m).collect();
        let selected = select_new_pairs(
            &leads,
            new_idx,
            &mut stats.pairs_skipped_product,
            &mut stats.pairs_skipped_chain,
        );
        for (i, lcm) in selected {
            let sugar = sugars[i].max(sugars[new_idx]).max(lcm.degree() as u64);
            *seq += 1;
            queue.push(Pair::new(
                pair_key(strategy, &lcm, sugar, *seq),
                *seq,
                (i, new_idx),
            ));
        }
    };

    for idx in 1..basis.len() {
        push_pairs(&mut queue, &basis, &sugars, &mut stats, &mut seq, idx);
    }

    while let Some(pair) = queue.pop() {
        let mut w = Work::default();
        let (pi, pj) = pair.item;
        let s = s_polynomial(ring, &basis[pi], &basis[pj], &mut w);
        let nf = normal_form(ring, &s, &basis, &mut w);
        stats.pairs_processed += 1;
        stats.step_works.push(w);
        stats.work.add(w);
        if !nf.is_zero() {
            let nf = nf.monic();
            let sugar = nf.degree() as u64;
            basis.push(nf);
            sugars.push(sugar);
            stats.polys_added += 1;
            let new_idx = basis.len() - 1;
            push_pairs(&mut queue, &basis, &sugars, &mut stats, &mut seq, new_idx);
        }
    }
    (basis, stats)
}

/// Verify the Gröbner property: every S-polynomial of `basis` reduces to
/// zero against it (Buchberger's criterion — the definition itself).
pub fn is_groebner<C: Field>(ring: &Ring, basis: &[GenPoly<C>]) -> bool {
    let mut w = Work::default();
    for i in 0..basis.len() {
        for j in i + 1..basis.len() {
            if basis[i].lead().m.coprime(&basis[j].lead().m) {
                continue;
            }
            let s = s_polynomial(ring, &basis[i], &basis[j], &mut w);
            if !normal_form(ring, &s, basis, &mut w).is_zero() {
                return false;
            }
        }
    }
    true
}

/// The *reduced* Gröbner basis: minimal (no leading monomial divides
/// another) with every element fully reduced against the rest, monic,
/// sorted by leading monomial. This form is unique for an ideal and a
/// term order, so two completion runs can be compared for semantic
/// equality regardless of processing order — exactly what the
/// indeterminism tests need.
pub fn reduce_basis<C: Field>(ring: &Ring, basis: &[GenPoly<C>]) -> Vec<GenPoly<C>> {
    // Minimalize: drop elements whose lead is divisible by another lead.
    let mut keep: Vec<GenPoly<C>> = Vec::new();
    'cand: for (i, p) in basis.iter().enumerate() {
        if p.is_zero() {
            continue;
        }
        for (j, q) in basis.iter().enumerate() {
            if i == j || q.is_zero() {
                continue;
            }
            let ql = q.lead().m;
            let pl = p.lead().m;
            if ql.divides(&pl) && (ql != pl || j < i) {
                continue 'cand;
            }
        }
        keep.push(p.monic());
    }
    // Inter-reduce tails.
    let mut w = Work::default();
    let mut out: Vec<GenPoly<C>> = Vec::with_capacity(keep.len());
    for i in 0..keep.len() {
        let others: Vec<&GenPoly<C>> = keep
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, p)| p)
            .collect();
        out.push(normal_form(ring, &keep[i], &others, &mut w).monic());
    }
    out.sort_by(|a, b| ring.cmp(&a.lead().m, &b.lead().m));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Order;
    use crate::poly::Poly;

    fn grlex(n: usize) -> Ring {
        Ring::new(n, Order::GrLex)
    }

    #[test]
    fn textbook_example() {
        // Cox–Little–O'Shea: {x^3 - 2xy, x^2 y - 2y^2 + x} in grlex.
        let r = grlex(2);
        let f1 = Poly::from_pairs(&r, &[(1, &[3, 0]), (-2, &[1, 1])]);
        let f2 = Poly::from_pairs(&r, &[(1, &[2, 1]), (-2, &[0, 2]), (1, &[1, 0])]);
        let (basis, stats) = buchberger(&r, &[f1, f2], SelectionStrategy::Normal);
        assert!(is_groebner(&r, &basis));
        assert!(stats.pairs_processed >= 3);
        // Known reduced basis: {x^2, xy, y^2 - x/2}
        let reduced = reduce_basis(&r, &basis);
        assert_eq!(reduced.len(), 3);
        let leads: Vec<Monomial> = reduced.iter().map(|p| p.lead().m).collect();
        assert!(leads.contains(&Monomial::from_exps(&[2, 0])));
        assert!(leads.contains(&Monomial::from_exps(&[1, 1])));
        assert!(leads.contains(&Monomial::from_exps(&[0, 2])));
    }

    /// Regression for the `MinEntry` migration: pair selection must pop
    /// in exactly the order the old hand-rolled inverted `Ord` produced —
    /// ascending `(key, seq)`, lexicographic — under every strategy.
    #[test]
    fn pair_selection_order_is_ascending_key_then_seq() {
        let mut rng = earth_sim::Rng::new(0x9e37_79b9);
        for strategy in [
            SelectionStrategy::Normal,
            SelectionStrategy::Sugar,
            SelectionStrategy::Fifo,
        ] {
            let mut queue: BinaryHeap<Pair> = BinaryHeap::new();
            for seq in 1..=500u64 {
                let lcm = Monomial::from_exps(&[
                    (rng.gen_range(4) + 1) as u16,
                    (rng.gen_range(4) + 1) as u16,
                ]);
                let sugar = lcm.degree() as u64 + rng.gen_range(3);
                let key = pair_key(strategy, &lcm, sugar, seq);
                queue.push(Pair::new(key, seq, (seq as usize, seq as usize + 1)));
            }
            let mut prev: Option<((u64, u64), u64)> = None;
            while let Some(p) = queue.pop() {
                if let Some(prev) = prev {
                    assert!(
                        prev <= (p.key, p.seq),
                        "{strategy:?}: popped {:?} after {prev:?}",
                        (p.key, p.seq)
                    );
                }
                prev = Some((p.key, p.seq));
            }
        }
    }

    #[test]
    fn inputs_reduce_to_zero_against_basis() {
        let r = grlex(3);
        let f1 = Poly::from_pairs(
            &r,
            &[
                (1, &[2, 0, 0]),
                (1, &[0, 1, 0]),
                (1, &[0, 0, 1]),
                (-1, &[0, 0, 0]),
            ],
        );
        let f2 = Poly::from_pairs(
            &r,
            &[
                (1, &[1, 0, 0]),
                (1, &[0, 2, 0]),
                (1, &[0, 0, 1]),
                (-1, &[0, 0, 0]),
            ],
        );
        let f3 = Poly::from_pairs(
            &r,
            &[
                (1, &[1, 0, 0]),
                (1, &[0, 1, 0]),
                (1, &[0, 0, 2]),
                (-1, &[0, 0, 0]),
            ],
        );
        let input = [f1, f2, f3];
        let (basis, _) = buchberger(&r, &input, SelectionStrategy::Sugar);
        assert!(is_groebner(&r, &basis));
        let mut w = Work::default();
        for f in &input {
            assert!(normal_form(&r, f, &basis, &mut w).is_zero());
        }
    }

    #[test]
    fn strategies_agree_on_the_reduced_basis() {
        let r = grlex(3);
        let f1 = Poly::from_pairs(
            &r,
            &[
                (1, &[2, 0, 0]),
                (1, &[0, 1, 0]),
                (1, &[0, 0, 1]),
                (-1, &[0, 0, 0]),
            ],
        );
        let f2 = Poly::from_pairs(
            &r,
            &[
                (1, &[1, 0, 0]),
                (1, &[0, 2, 0]),
                (1, &[0, 0, 1]),
                (-1, &[0, 0, 0]),
            ],
        );
        let f3 = Poly::from_pairs(
            &r,
            &[
                (1, &[1, 0, 0]),
                (1, &[0, 1, 0]),
                (1, &[0, 0, 2]),
                (-1, &[0, 0, 0]),
            ],
        );
        let input = vec![f1, f2, f3];
        let mut reduced: Vec<Vec<Poly>> = Vec::new();
        for s in [
            SelectionStrategy::Normal,
            SelectionStrategy::Sugar,
            SelectionStrategy::Fifo,
        ] {
            let (basis, _) = buchberger(&r, &input, s);
            reduced.push(reduce_basis(&r, &basis));
        }
        assert_eq!(reduced[0], reduced[1], "normal vs sugar");
        assert_eq!(reduced[0], reduced[2], "normal vs fifo");
    }

    #[test]
    fn strategy_changes_work_not_result() {
        let r = grlex(3);
        let f1 = Poly::from_pairs(&r, &[(1, &[3, 0, 0]), (-1, &[1, 1, 0]), (1, &[0, 0, 1])]);
        let f2 = Poly::from_pairs(&r, &[(1, &[1, 2, 0]), (-1, &[0, 0, 2])]);
        let f3 = Poly::from_pairs(&r, &[(1, &[0, 1, 1]), (-1, &[1, 0, 0])]);
        let input = vec![f1, f2, f3];
        let (_, s_normal) = buchberger(&r, &input, SelectionStrategy::Normal);
        let (_, s_fifo) = buchberger(&r, &input, SelectionStrategy::Fifo);
        // Both complete; work counts may differ (the heuristic matters).
        assert!(s_normal.pairs_processed > 0);
        assert!(s_fifo.pairs_processed > 0);
    }

    #[test]
    fn principal_ideal_is_its_own_basis() {
        let r = grlex(2);
        let f = Poly::from_pairs(&r, &[(1, &[2, 1]), (3, &[1, 0]), (1, &[0, 0])]);
        let (basis, stats) = buchberger(&r, std::slice::from_ref(&f), SelectionStrategy::Normal);
        assert_eq!(basis.len(), 1);
        assert_eq!(stats.pairs_processed, 0);
        assert!(is_groebner(&r, &basis));
    }

    #[test]
    fn reduced_basis_is_canonical_under_permutation() {
        let r = grlex(2);
        let f1 = Poly::from_pairs(&r, &[(1, &[3, 0]), (-2, &[1, 1])]);
        let f2 = Poly::from_pairs(&r, &[(1, &[2, 1]), (-2, &[0, 2]), (1, &[1, 0])]);
        let (b1, _) = buchberger(&r, &[f1.clone(), f2.clone()], SelectionStrategy::Normal);
        let (b2, _) = buchberger(&r, &[f2, f1], SelectionStrategy::Sugar);
        assert_eq!(reduce_basis(&r, &b1), reduce_basis(&r, &b2));
    }

    #[test]
    fn unit_ideal_collapses() {
        let r = grlex(2);
        // x and x+1 generate 1.
        let f1 = Poly::from_pairs(&r, &[(1, &[1, 0])]);
        let f2 = Poly::from_pairs(&r, &[(1, &[1, 0]), (1, &[0, 0])]);
        let (basis, _) = buchberger(&r, &[f1, f2], SelectionStrategy::Normal);
        let reduced = reduce_basis(&r, &basis);
        assert_eq!(reduced.len(), 1);
        assert!(reduced[0].lead().m.is_one());
    }
}
