//! Provenance semirings for annotated databases.
//!
//! An *annotated database* attaches extra information to every tuple: who
//! said it, how often it was derived, how trusted it is, which base facts it
//! came from. The classic way to make that precise is the provenance-semiring
//! framework of Green, Karvounarakis and Tannen (PODS 2007): annotations are
//! drawn from a commutative semiring `(K, +, ·, 0, 1)`, relational `union` /
//! `projection` combine annotations with `+`, and `join` combines them with
//! `·`. Picking different semirings recovers set semantics, bag semantics,
//! lineage, why-provenance, access control, cost, and probability — all from
//! one query evaluator.
//!
//! This crate is the foundation the rest of the `annomine` workspace builds
//! on. It provides:
//!
//! * the [`Semiring`] trait family ([`CommutativeMonoid`], [`Semiring`],
//!   [`NaturallyOrdered`], [`SemiringHom`]);
//! * nine ready-made instances:
//!   [`Bool2`](boolean::Bool2) (set semantics),
//!   [`Natural`](natural::Natural) (bag semantics / counting),
//!   [`Tropical`](tropical::Tropical) (min-cost),
//!   [`Viterbi`](viterbi::Viterbi) (max-probability),
//!   [`Fuzzy`](viterbi::Fuzzy) (min/max membership),
//!   [`Security`](security::Security) (clearance lattice),
//!   [`Lineage`](lineage::Lineage) (which base facts contributed),
//!   [`Why`](why::Why) (witness sets) and
//!   [`Polynomial`](polynomial::Polynomial) (the universal semiring `N[X]`);
//! * evaluation of the universal polynomials under a valuation of variables
//!   into any other semiring, with the factorisation property
//!   `eval ∘ h = h ∘ eval` exercised by property tests;
//! * the [`Monus`](traits::Monus) truncated difference on every instance,
//!   making each an *m-semiring* and giving annotated relational algebra a
//!   principled `difference` operator.
//!
//! The mining layer (`anno-mine`) treats a tuple's *annotation set* as its
//! lineage over the annotation vocabulary, and annotation *generalization*
//! (mapping raw annotations onto concepts) is exactly a semiring homomorphism
//! applied to that lineage — see [`hom`].
//!
//! # Example
//!
//! ```
//! use anno_semiring::prelude::*;
//!
//! // Two derivations of the same tuple: (x1·x2) + x3
//! let p = Polynomial::var(Var(1)) * Polynomial::var(Var(2)) + Polynomial::var(Var(3));
//!
//! // Under bag semantics where x1 occurs twice, x2 once, x3 three times:
//! let n = p.eval(&|v: Var| Natural::from(match v.0 { 1 => 2u64, 2 => 1, _ => 3 }));
//! assert_eq!(n, Natural::from(5u64)); // 2·1 + 3
//!
//! // Under set semantics the tuple simply exists:
//! let b = p.eval(&|_| Bool2::one());
//! assert!(b.0);
//! ```

#![warn(missing_docs)]

pub mod boolean;
pub mod hom;
pub mod lineage;
pub mod natural;
pub mod polynomial;
pub mod security;
pub mod traits;
pub mod tropical;
pub mod viterbi;
pub mod why;

pub use boolean::Bool2;
pub use hom::{eval_lineage, eval_why, rename, rename_why, Valuation};
pub use lineage::Lineage;
pub use natural::Natural;
pub use polynomial::{Monomial, Polynomial};
pub use security::Security;
pub use traits::{CommutativeMonoid, Monus, NaturallyOrdered, Semiring, SemiringHom, Var};
pub use tropical::Tropical;
pub use viterbi::{Fuzzy, Viterbi};
pub use why::Why;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::boolean::Bool2;
    pub use crate::lineage::Lineage;
    pub use crate::natural::Natural;
    pub use crate::polynomial::{Monomial, Polynomial};
    pub use crate::security::Security;
    pub use crate::traits::{
        CommutativeMonoid, Monus, NaturallyOrdered, Semiring, SemiringHom, Var,
    };
    pub use crate::tropical::Tropical;
    pub use crate::viterbi::{Fuzzy, Viterbi};
    pub use crate::why::Why;
}
