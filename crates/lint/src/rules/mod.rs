//! The rule registry. Every rule is a pure function over the [`Model`]
//! (plus the pragma index for rules with site-level suppression
//! semantics); adding a rule is adding a module and a line in
//! [`run_all`].

use crate::model::Model;
use crate::pragma::PragmaIndex;
use crate::{Finding, LintOptions};

pub mod blocking_reactor;
pub mod forbid_unsafe;
pub mod lock_order;
pub mod panic_path;

/// Every rule name a pragma may allow. `pragma` itself is deliberately
/// absent: a malformed suppression cannot be suppressed.
pub const RULE_NAMES: [&str; 4] = [
    "lock-order",
    "panic-path",
    "blocking-in-reactor",
    "forbid-unsafe",
];

/// Run every rule; pragma suppression for line-scoped rules is applied
/// by the caller.
pub fn run_all(model: &Model, pragmas: &PragmaIndex, opts: &LintOptions) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(lock_order::run(model, pragmas));
    findings.extend(panic_path::run(model, opts));
    findings.extend(blocking_reactor::run(model));
    findings.extend(forbid_unsafe::run(model));
    findings
}
