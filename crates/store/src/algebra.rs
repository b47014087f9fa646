//! Provenance-propagating relational algebra.
//!
//! A [`KRelation`] is a relation whose tuples are annotated with values from
//! an arbitrary semiring `K`; the positive relational-algebra operators
//! combine annotations the Green–Karvounarakis–Tannen way:
//!
//! * [`KRelation::select`] keeps annotations unchanged;
//! * [`KRelation::project`] merges duplicate result tuples with `+`;
//! * [`KRelation::union`] merges with `+`;
//! * [`KRelation::join`] combines matching pairs with `·`.
//!
//! The bridge [`KRelation::from_annotated`] turns an
//! [`AnnotatedRelation`] into a
//! `KRelation` by valuating each tuple's annotation lineage, which is what
//! lets the mining layer's databases participate in principled provenance
//! queries (see the `provenance_tracking` example).

use anno_semiring::{eval_lineage, Monus, Semiring, Var};

use crate::fxhash::FxHashMap;
use crate::item::Item;
use crate::relation::AnnotatedRelation;

/// A `K`-annotated relation: fixed arity rows of data items, each carrying
/// an annotation from the semiring `K`.
#[derive(Debug, Clone, PartialEq)]
pub struct KRelation<K: Semiring> {
    arity: usize,
    rows: Vec<(Box<[Item]>, K)>,
}

impl<K: Semiring> KRelation<K> {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        KRelation {
            arity,
            rows: Vec::new(),
        }
    }

    /// The number of attributes per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of stored rows (after normalisation: distinct tuples).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Add a row. Panics if the arity differs. Zero-annotated rows are
    /// dropped (they are absent by definition).
    pub fn push(&mut self, row: Vec<Item>, annotation: K) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        if !annotation.is_zero() {
            self.rows.push((row.into_boxed_slice(), annotation));
        }
    }

    /// Iterate `(row, annotation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[Item], &K)> + '_ {
        self.rows.iter().map(|(r, k)| (&**r, k))
    }

    /// The annotation of an exact row, or `K::zero()` if absent.
    pub fn annotation_of(&self, row: &[Item]) -> K {
        self.rows
            .iter()
            .filter(|(r, _)| &**r == row)
            .fold(K::zero(), |acc, (_, k)| acc.plus(k))
    }

    /// Merge duplicate rows with `+` and drop zero-annotated rows; row order
    /// is normalised to first-occurrence order.
    pub fn normalize(&mut self) {
        let mut order: Vec<Box<[Item]>> = Vec::with_capacity(self.rows.len());
        let mut merged: FxHashMap<Box<[Item]>, K> = FxHashMap::default();
        for (row, k) in self.rows.drain(..) {
            match merged.get_mut(&row) {
                Some(acc) => *acc = acc.plus(&k),
                None => {
                    merged.insert(row.clone(), k);
                    order.push(row);
                }
            }
        }
        self.rows = order
            .into_iter()
            .filter_map(|row| {
                let k = merged.remove(&row)?;
                (!k.is_zero()).then_some((row, k))
            })
            .collect();
    }

    /// Selection σ: keep rows satisfying `pred`; annotations unchanged.
    pub fn select(&self, pred: impl Fn(&[Item]) -> bool) -> KRelation<K> {
        KRelation {
            arity: self.arity,
            rows: self.rows.iter().filter(|(r, _)| pred(r)).cloned().collect(),
        }
    }

    /// Projection π: keep the attributes at `cols` (in the given order);
    /// merge collapsing tuples with `+`.
    pub fn project(&self, cols: &[usize]) -> KRelation<K> {
        assert!(
            cols.iter().all(|&c| c < self.arity),
            "projection out of range"
        );
        let mut out = KRelation::new(cols.len());
        for (row, k) in &self.rows {
            let proj: Vec<Item> = cols.iter().map(|&c| row[c]).collect();
            out.push(proj, k.clone());
        }
        out.normalize();
        out
    }

    /// Union ∪ (same arity): annotations of shared tuples merge with `+`.
    pub fn union(&self, other: &KRelation<K>) -> KRelation<K> {
        assert_eq!(self.arity, other.arity, "union arity mismatch");
        let mut out = self.clone();
        out.rows.extend(other.rows.iter().cloned());
        out.normalize();
        out
    }

    /// Natural join on explicit column pairs: rows agreeing on every
    /// `(left_col, right_col)` pair combine with `·`; the result carries all
    /// left attributes followed by the right attributes not used as join
    /// keys.
    pub fn join(&self, other: &KRelation<K>, on: &[(usize, usize)]) -> KRelation<K> {
        assert!(on.iter().all(|&(l, r)| l < self.arity && r < other.arity));
        let right_keep: Vec<usize> = (0..other.arity)
            .filter(|c| !on.iter().any(|&(_, r)| r == *c))
            .collect();
        let mut out = KRelation::new(self.arity + right_keep.len());

        // Hash the smaller side on the join key.
        let mut table: FxHashMap<Vec<Item>, Vec<usize>> = FxHashMap::default();
        for (i, (row, _)) in other.rows.iter().enumerate() {
            let key: Vec<Item> = on.iter().map(|&(_, r)| row[r]).collect();
            table.entry(key).or_default().push(i);
        }
        for (lrow, lk) in &self.rows {
            let key: Vec<Item> = on.iter().map(|&(l, _)| lrow[l]).collect();
            let Some(matches) = table.get(&key) else {
                continue;
            };
            for &ri in matches {
                let (rrow, rk) = &other.rows[ri];
                let mut row: Vec<Item> = lrow.to_vec();
                row.extend(right_keep.iter().map(|&c| rrow[c]));
                out.push(row, lk.times(rk));
            }
        }
        out.normalize();
        out
    }

    /// Relational difference over an m-semiring (a semiring with monus):
    /// each row of `self` keeps `self(t) ∸ other(t)`, and rows whose
    /// difference is zero disappear. Under `Bool2` this is set difference;
    /// under `Natural` it is bag difference (`EXCEPT ALL`).
    pub fn difference(&self, other: &KRelation<K>) -> KRelation<K>
    where
        K: Monus,
    {
        assert_eq!(self.arity, other.arity, "difference arity mismatch");
        let mut out = KRelation::new(self.arity);
        for (row, k) in &self.rows {
            let theirs = other.annotation_of(row);
            out.push(row.to_vec(), k.monus(&theirs));
        }
        out.normalize();
        out
    }

    /// Apply a semiring homomorphism to every annotation.
    ///
    /// Because homomorphisms commute with `+` and `·`, mapping annotations
    /// commutes with every operator above — the algebraic fact behind
    /// "generalize then query ≡ query then generalize".
    pub fn map_annotations<L: Semiring>(&self, h: &impl Fn(&K) -> L) -> KRelation<L> {
        let mut out = KRelation::new(self.arity);
        for (row, k) in &self.rows {
            out.push(row.to_vec(), h(k));
        }
        out.normalize();
        out
    }
}

impl<K: Semiring> KRelation<K> {
    /// Annotate the data part of every live tuple of `rel` by valuating its
    /// annotation lineage into `K`.
    ///
    /// Tuples have varying widths in an annotated relation; `arity` selects
    /// how many leading data values to keep (shorter tuples are skipped), so
    /// the result is a proper fixed-arity relation.
    pub fn from_annotated(
        rel: &AnnotatedRelation,
        arity: usize,
        valuation: &impl Fn(Var) -> K,
    ) -> KRelation<K> {
        let mut out = KRelation::new(arity);
        for (_, tuple) in rel.iter() {
            let data = tuple.data();
            if data.len() < arity {
                continue;
            }
            let k = eval_lineage(&tuple.lineage(), valuation);
            out.push(data[..arity].to_vec(), k);
        }
        out.normalize();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_semiring::{Bool2, Natural};

    fn d(i: u32) -> Item {
        Item::data(i)
    }
    fn d_item(i: u32) -> Item {
        Item::data(i)
    }

    fn nat_rel(rows: &[(&[u32], u64)]) -> KRelation<Natural> {
        let arity = rows.first().map_or(0, |(r, _)| r.len());
        let mut rel = KRelation::new(arity);
        for (row, n) in rows {
            rel.push(row.iter().copied().map(d).collect(), Natural(*n));
        }
        rel
    }

    #[test]
    fn push_drops_zero_annotations() {
        let mut rel: KRelation<Natural> = KRelation::new(1);
        rel.push(vec![d(1)], Natural(0));
        assert!(rel.is_empty());
    }

    #[test]
    fn project_merges_with_plus() {
        let rel = nat_rel(&[(&[1, 10], 2), (&[1, 20], 3), (&[2, 10], 5)]);
        let p = rel.project(&[0]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.annotation_of(&[d(1)]), Natural(5));
        assert_eq!(p.annotation_of(&[d(2)]), Natural(5));
    }

    #[test]
    fn select_keeps_annotations() {
        let rel = nat_rel(&[(&[1], 2), (&[2], 3)]);
        let s = rel.select(|r| r[0] == d(2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.annotation_of(&[d(2)]), Natural(3));
    }

    #[test]
    fn union_adds_multiplicities() {
        let a = nat_rel(&[(&[1], 2)]);
        let b = nat_rel(&[(&[1], 3), (&[2], 1)]);
        let u = a.union(&b);
        assert_eq!(u.annotation_of(&[d(1)]), Natural(5));
        assert_eq!(u.annotation_of(&[d(2)]), Natural(1));
    }

    #[test]
    fn join_multiplies_multiplicities() {
        // R(a, b) ⋈ S(b, c) on b.
        let r = nat_rel(&[(&[1, 10], 2), (&[2, 20], 1)]);
        let s = nat_rel(&[(&[10, 7], 3), (&[10, 8], 1)]);
        let j = r.join(&s, &[(1, 0)]);
        assert_eq!(j.arity(), 3);
        assert_eq!(j.annotation_of(&[d(1), d(10), d(7)]), Natural(6));
        assert_eq!(j.annotation_of(&[d(1), d(10), d(8)]), Natural(2));
        assert_eq!(j.annotation_of(&[d(2), d(20), d(7)]), Natural(0));
    }

    #[test]
    fn bag_query_matches_hand_count() {
        // π_a(R ⋈ S) under bag semantics.
        let r = nat_rel(&[(&[1, 10], 1), (&[1, 20], 1)]);
        let s = nat_rel(&[(&[10, 5], 2), (&[20, 5], 1)]);
        let q = r.join(&s, &[(1, 0)]).project(&[0]);
        assert_eq!(q.annotation_of(&[d(1)]), Natural(3)); // 1·2 + 1·1
    }

    #[test]
    fn difference_is_bag_except_all_under_naturals() {
        let r = nat_rel(&[(&[1], 5), (&[2], 2)]);
        let s = nat_rel(&[(&[1], 3), (&[2], 4), (&[3], 1)]);
        let d = r.difference(&s);
        assert_eq!(d.annotation_of(&[d_item(1)]), Natural(2));
        assert_eq!(d.annotation_of(&[d_item(2)]), Natural(0));
        assert_eq!(d.len(), 1, "rows with zero difference disappear");
    }

    #[test]
    fn difference_is_set_minus_under_booleans() {
        let to_bool = |n: &Natural| Bool2(n.0 > 0);
        let r = nat_rel(&[(&[1], 1), (&[2], 1)]).map_annotations(&to_bool);
        let s = nat_rel(&[(&[2], 1)]).map_annotations(&to_bool);
        let d = r.difference(&s);
        assert_eq!(d.annotation_of(&[d_item(1)]), Bool2(true));
        assert_eq!(d.annotation_of(&[d_item(2)]), Bool2(false));
    }

    #[test]
    fn map_annotations_commutes_with_project() {
        let rel = nat_rel(&[(&[1, 10], 2), (&[1, 20], 3)]);
        let to_bool = |n: &Natural| Bool2(n.0 > 0);
        let lhs = rel.project(&[0]).map_annotations(&to_bool);
        let rhs = rel.map_annotations(&to_bool).project(&[0]);
        assert_eq!(lhs.annotation_of(&[d(1)]), rhs.annotation_of(&[d(1)]));
    }

    #[test]
    fn from_annotated_valuates_lineage() {
        use crate::tuple::Tuple;
        let mut rel = AnnotatedRelation::new("R");
        let x = rel.vocab_mut().data("1");
        let y = rel.vocab_mut().data("2");
        let a = rel.vocab_mut().annotation("A");
        let b = rel.vocab_mut().annotation("B");
        rel.insert(Tuple::new([x], [a]));
        rel.insert(Tuple::new([x], [a, b]));
        rel.insert(Tuple::new([y], []));

        // Count annotation occurrences as multiplicities: each annotation
        // counts 1, so a tuple's weight is 1 (product over its annotations
        // collapses to 1). Use Bool2 for presence instead.
        let k: KRelation<Bool2> = KRelation::from_annotated(&rel, 1, &|_| Bool2(true));
        assert_eq!(k.annotation_of(&[x]), Bool2(true));
        assert_eq!(k.annotation_of(&[y]), Bool2(true));
        assert_eq!(k.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut rel: KRelation<Natural> = KRelation::new(2);
        rel.push(vec![d(1)], Natural(1));
    }
}
