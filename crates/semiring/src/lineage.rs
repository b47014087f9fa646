//! The lineage semiring `Lin(X)`: which base facts contributed at all.
//!
//! `Lin(X) = P(X) ∪ {⊥}` where `⊥` annotates absent tuples, `∅` annotates
//! unconditionally-present tuples, and both `+` and `·` are set union on
//! present values. Lineage is the coarsest set-valued provenance: it forgets
//! *how* facts combine and remembers only *which* were involved.
//!
//! A tuple's annotation set (paper Definition 4.1) can be read as its
//! lineage over the annotation vocabulary, and applying a generalization
//! taxonomy to it is a homomorphism `Lin(X) → Lin(Y)` induced by the
//! variable map — see [`crate::hom::rename`].

use std::collections::BTreeSet;

use crate::traits::{Monus, NaturallyOrdered, Semiring, Var};

/// A lineage annotation: `Absent` (⊥) or the set of contributing variables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lineage {
    /// The tuple is absent (additive identity).
    Absent,
    /// The tuple is present, derived from exactly this set of base facts.
    /// The empty set is the multiplicative identity (present with no
    /// provenance — e.g. a constant).
    Present(BTreeSet<Var>),
}

impl Lineage {
    /// Lineage of a base fact: the singleton `{v}`.
    pub fn var(v: Var) -> Self {
        Lineage::Present(BTreeSet::from([v]))
    }

    /// Lineage from an iterator of variables.
    pub fn from_vars<I: IntoIterator<Item = Var>>(vars: I) -> Self {
        Lineage::Present(vars.into_iter().collect())
    }

    /// The contributing variables, or `None` if absent.
    pub fn vars(&self) -> Option<&BTreeSet<Var>> {
        match self {
            Lineage::Absent => None,
            Lineage::Present(s) => Some(s),
        }
    }

    /// `true` iff `v` contributed to this tuple.
    pub fn contains(&self, v: Var) -> bool {
        matches!(self, Lineage::Present(s) if s.contains(&v))
    }
}

impl Semiring for Lineage {
    fn zero() -> Self {
        Lineage::Absent
    }
    fn one() -> Self {
        Lineage::Present(BTreeSet::new())
    }
    fn plus(&self, other: &Self) -> Self {
        match (self, other) {
            (Lineage::Absent, x) | (x, Lineage::Absent) => x.clone(),
            (Lineage::Present(a), Lineage::Present(b)) => {
                Lineage::Present(a.union(b).copied().collect())
            }
        }
    }
    fn times(&self, other: &Self) -> Self {
        match (self, other) {
            (Lineage::Absent, _) | (_, Lineage::Absent) => Lineage::Absent,
            (Lineage::Present(a), Lineage::Present(b)) => {
                Lineage::Present(a.union(b).copied().collect())
            }
        }
    }
    fn is_zero(&self) -> bool {
        matches!(self, Lineage::Absent)
    }
}

impl NaturallyOrdered for Lineage {
    fn natural_leq(&self, other: &Self) -> bool {
        match (self, other) {
            (Lineage::Absent, _) => true,
            (Lineage::Present(_), Lineage::Absent) => false,
            // a + c = b requires a ⊆ b (union can only add variables).
            (Lineage::Present(a), Lineage::Present(b)) => a.is_subset(b),
        }
    }
}

impl Monus for Lineage {
    fn monus(&self, other: &Self) -> Self {
        match (self, other) {
            (Lineage::Absent, _) => Lineage::Absent,
            (x, Lineage::Absent) => x.clone(),
            (Lineage::Present(s), Lineage::Present(t)) => {
                if s.is_subset(t) {
                    // b + ⊥ = b already dominates a: the least witness is ⊥.
                    Lineage::Absent
                } else {
                    Lineage::Present(s.difference(t).copied().collect())
                }
            }
        }
    }
}

impl std::fmt::Display for Lineage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lineage::Absent => write!(f, "⊥"),
            Lineage::Present(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lin(vs: &[u32]) -> Lineage {
        Lineage::from_vars(vs.iter().map(|&v| Var(v)))
    }

    #[test]
    fn plus_and_times_both_union() {
        let a = lin(&[1, 2]);
        let b = lin(&[2, 3]);
        assert_eq!(a.plus(&b), lin(&[1, 2, 3]));
        assert_eq!(a.times(&b), lin(&[1, 2, 3]));
    }

    #[test]
    fn absent_is_identity_for_plus_and_annihilator_for_times() {
        let a = lin(&[1]);
        assert_eq!(a.plus(&Lineage::Absent), a);
        assert_eq!(a.times(&Lineage::Absent), Lineage::Absent);
    }

    #[test]
    fn empty_set_differs_from_absent() {
        assert_ne!(Lineage::one(), Lineage::zero());
        let a = lin(&[4]);
        assert_eq!(a.times(&Lineage::one()), a);
    }

    #[test]
    fn contains_and_vars_accessors() {
        let a = lin(&[5, 6]);
        assert!(a.contains(Var(5)));
        assert!(!a.contains(Var(7)));
        assert!(!Lineage::Absent.contains(Var(5)));
        assert_eq!(a.vars().unwrap().len(), 2);
        assert!(Lineage::Absent.vars().is_none());
    }

    #[test]
    fn natural_order_is_subset_with_bottom() {
        assert!(Lineage::Absent.natural_leq(&lin(&[1])));
        assert!(lin(&[1]).natural_leq(&lin(&[1, 2])));
        assert!(!lin(&[1, 2]).natural_leq(&lin(&[1])));
        assert!(!lin(&[]).natural_leq(&Lineage::Absent));
    }

    #[test]
    fn display_formats_sets() {
        assert_eq!(lin(&[1, 2]).to_string(), "{x1,x2}");
        assert_eq!(Lineage::Absent.to_string(), "⊥");
    }
}
