//! Per-rule fixture tests: each rule gets a known-good snippet (zero
//! findings) and a seeded-violation snippet (the expected finding, and
//! nothing surprising alongside it). Fixtures drive [`anno_lint::lint_files`]
//! directly, so no filesystem layout is involved — paths are whatever the
//! rule keys on (`reactor.rs` stem, `src/lib.rs` suffix, `README.md`).

use std::path::PathBuf;

use anno_lint::model::FileKind;
use anno_lint::{lint_files, Finding, LintOptions};

/// Run the full engine over inline files with an explicit panic-root set.
fn run(files: &[(&str, &str, FileKind)], roots: &[&str]) -> Vec<Finding> {
    lint_files(
        files
            .iter()
            .map(|&(p, s, k)| (PathBuf::from(p), s.to_string(), k))
            .collect(),
        &LintOptions {
            panic_roots: roots.iter().map(|r| r.to_string()).collect(),
        },
    )
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- lock-order

const LOCKS_PRELUDE: &str = r#"
use std::sync::Mutex;
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
"#;

#[test]
fn lock_order_consistent_order_is_clean() {
    let src = format!(
        "{LOCKS_PRELUDE}
impl S {{
    pub fn first(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        drop(gb);
        drop(ga);
    }}
    pub fn second(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        drop(gb);
        drop(ga);
    }}
}}
"
    );
    let findings = run(
        &[("crates/fix/src/locks.rs", &src, FileKind::Production)],
        &[],
    );
    assert!(
        findings.is_empty(),
        "consistent A→B order must be clean: {findings:?}"
    );
}

#[test]
fn lock_order_seeded_cycle_is_reported() {
    let src = format!(
        "{LOCKS_PRELUDE}
impl S {{
    pub fn ab(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        drop(gb);
        drop(ga);
    }}
    pub fn ba(&self) {{
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
        drop(ga);
        drop(gb);
    }}
}}
"
    );
    let findings = run(
        &[("crates/fix/src/locks.rs", &src, FileKind::Production)],
        &[],
    );
    assert_eq!(rules_of(&findings), ["lock-order"], "{findings:?}");
    assert!(
        findings[0].message.contains("cycle"),
        "expected a cycle report: {}",
        findings[0].message
    );
    assert!(findings[0].message.contains("S::a") && findings[0].message.contains("S::b"));
}

#[test]
fn lock_order_interprocedural_cycle_is_reported() {
    // Neither function takes two locks itself; the cycle only exists
    // through the call graph (hold A, call something that takes B; and
    // the mirror image).
    let src = format!(
        "{LOCKS_PRELUDE}
impl S {{
    pub fn hold_a_then_call(&self) {{
        let ga = self.a.lock().unwrap();
        self.take_b();
        drop(ga);
    }}
    fn take_b(&self) {{
        let _gb = self.b.lock().unwrap();
    }}
    pub fn hold_b_then_call(&self) {{
        let gb = self.b.lock().unwrap();
        self.take_a();
        drop(gb);
    }}
    fn take_a(&self) {{
        let _ga = self.a.lock().unwrap();
    }}
}}
"
    );
    let findings = run(
        &[("crates/fix/src/locks.rs", &src, FileKind::Production)],
        &[],
    );
    assert_eq!(rules_of(&findings), ["lock-order"], "{findings:?}");
    assert!(
        findings[0].message.contains("via"),
        "interprocedural edges should be attributed to the call site: {}",
        findings[0].message
    );
}

#[test]
fn lock_order_reentrancy_is_reported() {
    let src = format!(
        "{LOCKS_PRELUDE}
impl S {{
    pub fn twice(&self) {{
        let g1 = self.a.lock().unwrap();
        let g2 = self.a.lock().unwrap();
        drop(g2);
        drop(g1);
    }}
}}
"
    );
    let findings = run(
        &[("crates/fix/src/locks.rs", &src, FileKind::Production)],
        &[],
    );
    assert_eq!(rules_of(&findings), ["lock-order"], "{findings:?}");
    assert!(
        findings[0].message.contains("already held"),
        "expected a reentrancy report: {}",
        findings[0].message
    );
}

#[test]
fn lock_order_drop_releases_the_guard() {
    // Same two locks, but the first is dropped before the second is
    // taken — no edge, no cycle, even with the orders reversed.
    let src = format!(
        "{LOCKS_PRELUDE}
impl S {{
    pub fn ab(&self) {{
        let ga = self.a.lock().unwrap();
        drop(ga);
        let gb = self.b.lock().unwrap();
        drop(gb);
    }}
    pub fn ba(&self) {{
        let gb = self.b.lock().unwrap();
        drop(gb);
        let ga = self.a.lock().unwrap();
        drop(ga);
    }}
}}
"
    );
    let findings = run(
        &[("crates/fix/src/locks.rs", &src, FileKind::Production)],
        &[],
    );
    assert!(
        findings.is_empty(),
        "dropped guards must not create edges: {findings:?}"
    );
}

#[test]
fn lock_order_pragma_suppresses_the_site() {
    let src = format!(
        "{LOCKS_PRELUDE}
impl S {{
    pub fn ab(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        drop(gb);
        drop(ga);
    }}
    pub fn ba(&self) {{
        let gb = self.b.lock().unwrap();
        // anno-lint: allow(lock-order) -- fixture: provably different instances
        let ga = self.a.lock().unwrap();
        drop(ga);
        drop(gb);
    }}
}}
"
    );
    let findings = run(
        &[("crates/fix/src/locks.rs", &src, FileKind::Production)],
        &[],
    );
    assert!(
        findings.is_empty(),
        "pragma'd acquisition site must drop its edges: {findings:?}"
    );
}

// ---------------------------------------------------------------- panic-path

#[test]
fn panic_path_unwrap_reachable_from_root_is_reported() {
    let src = r#"
pub fn writer_loop() {
    step();
}
fn step() {
    let v: Vec<u32> = Vec::new();
    let _ = v.first().unwrap();
}
"#;
    let findings = run(
        &[("crates/fix/src/writer.rs", src, FileKind::Production)],
        &["writer_loop"],
    );
    assert_eq!(rules_of(&findings), ["panic-path"], "{findings:?}");
    assert!(
        findings[0].message.contains("`step`") && findings[0].message.contains("writer_loop"),
        "finding should name the function and the root: {}",
        findings[0].message
    );
}

#[test]
fn panic_path_unreachable_panic_is_not_reported() {
    // Same panic, but nothing on the thread-loop call graph reaches it.
    let src = r#"
pub fn writer_loop() {}
fn offline_tool() {
    let v: Vec<u32> = Vec::new();
    let _ = v.first().unwrap();
}
"#;
    let findings = run(
        &[("crates/fix/src/writer.rs", src, FileKind::Production)],
        &["writer_loop"],
    );
    assert!(
        findings.is_empty(),
        "unreachable panics are out of scope: {findings:?}"
    );
}

#[test]
fn panic_path_poison_propagation_is_exempt() {
    let src = r#"
use std::sync::Mutex;
pub fn writer_loop(m: &Mutex<u32>) {
    let g = m.lock().unwrap();
    drop(g);
}
"#;
    let findings = run(
        &[("crates/fix/src/writer.rs", src, FileKind::Production)],
        &["writer_loop"],
    );
    assert!(
        findings.is_empty(),
        "lock().unwrap() is the poison idiom: {findings:?}"
    );
}

#[test]
fn panic_path_indexing_under_lock_is_reported() {
    let src = r#"
use std::sync::Mutex;
pub struct S { q: Mutex<Vec<u32>> }
pub fn writer_loop(s: &S, xs: &[u32]) {
    let g = s.q.lock().unwrap();
    let _ = xs[0];
    drop(g);
}
"#;
    let findings = run(
        &[("crates/fix/src/writer.rs", src, FileKind::Production)],
        &["writer_loop"],
    );
    assert_eq!(rules_of(&findings), ["panic-path"], "{findings:?}");
    assert!(
        findings[0].message.contains("indexing") && findings[0].message.contains("S::q"),
        "expected an indexing-under-lock report naming the lock: {}",
        findings[0].message
    );
}

#[test]
fn panic_path_missing_root_is_a_finding() {
    let src = "pub fn something_else() {}\n";
    let findings = run(
        &[("crates/fix/src/writer.rs", src, FileKind::Production)],
        &["writer_loop"],
    );
    assert_eq!(rules_of(&findings), ["panic-path"], "{findings:?}");
    assert_eq!(findings[0].path, "(workspace)");
    assert!(findings[0].message.contains("`writer_loop` not found"));
}

#[test]
fn panic_path_trailing_pragma_suppresses_its_line() {
    let src = r#"
pub fn writer_loop() {
    let v = vec![1u32];
    let _ = v.first().unwrap(); // anno-lint: allow(panic-path) -- fixture: v is non-empty by construction
}
"#;
    let findings = run(
        &[("crates/fix/src/writer.rs", src, FileKind::Production)],
        &["writer_loop"],
    );
    assert!(
        findings.is_empty(),
        "trailing pragma must suppress its own line: {findings:?}"
    );
}

#[test]
fn panic_path_standalone_pragma_suppresses_next_line() {
    let src = r#"
pub fn writer_loop() {
    let v = vec![1u32];
    // anno-lint: allow(panic-path) -- fixture: v is non-empty by construction
    let _ = v.first().unwrap();
}
"#;
    let findings = run(
        &[("crates/fix/src/writer.rs", src, FileKind::Production)],
        &["writer_loop"],
    );
    assert!(
        findings.is_empty(),
        "standalone pragma must suppress the next code line: {findings:?}"
    );
}

// ------------------------------------------------------------------- pragma

#[test]
fn pragma_without_reason_is_malformed_and_does_not_suppress() {
    let src = r#"
pub fn writer_loop() {
    let v = vec![1u32];
    // anno-lint: allow(panic-path)
    let _ = v.first().unwrap();
}
"#;
    let findings = run(
        &[("crates/fix/src/writer.rs", src, FileKind::Production)],
        &["writer_loop"],
    );
    let mut rules = rules_of(&findings);
    rules.sort_unstable();
    assert_eq!(rules, ["panic-path", "pragma"], "{findings:?}");
}

#[test]
fn pragma_with_unknown_rule_is_malformed() {
    let src = r#"
pub fn anything() {
    // anno-lint: allow(no-such-rule) -- reason present but rule bogus
    let _x = 1u32;
}
"#;
    let findings = run(
        &[("crates/fix/src/code.rs", src, FileKind::Production)],
        &[],
    );
    assert_eq!(rules_of(&findings), ["pragma"], "{findings:?}");
    assert!(findings[0].message.contains("unknown rule"));
}

// --------------------------------------------------------- blocking-in-reactor

#[test]
fn blocking_in_reactor_try_lock_is_clean() {
    let src = r#"
use std::sync::Mutex;
pub struct S { q: Mutex<u32> }
pub fn poll(s: &S) {
    if let Ok(g) = s.q.try_lock() {
        drop(g);
    }
}
"#;
    let findings = run(
        &[("crates/fix/src/reactor.rs", src, FileKind::Production)],
        &[],
    );
    assert!(findings.is_empty(), "try_lock never blocks: {findings:?}");
}

#[test]
fn blocking_in_reactor_sleep_and_lock_are_reported() {
    let src = r#"
use std::sync::Mutex;
pub struct S { q: Mutex<u32> }
pub fn poll(s: &S) {
    std::thread::sleep(std::time::Duration::from_millis(1));
    let g = s.q.lock().unwrap();
    drop(g);
}
"#;
    let findings = run(
        &[("crates/fix/src/reactor.rs", src, FileKind::Production)],
        &[],
    );
    assert_eq!(
        rules_of(&findings),
        ["blocking-in-reactor", "blocking-in-reactor"],
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("`sleep(…)`")));
    assert!(findings.iter().any(|f| f.message.contains(".lock()")));
}

#[test]
fn blocking_in_reactor_only_applies_to_reactor_files() {
    // The same sleep in a non-reactor file is fine (it is some worker
    // thread's business).
    let src = r#"
pub fn poll() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
"#;
    let findings = run(
        &[("crates/fix/src/worker.rs", src, FileKind::Production)],
        &[],
    );
    assert!(
        findings.is_empty(),
        "rule is scoped to the reactor: {findings:?}"
    );
}

#[test]
fn blocking_in_reactor_flags_blocking_enqueue() {
    let src = r#"
pub fn poll(q: &annomine_like::Queue) {
    q.enqueue(7u32);
}
"#;
    let findings = run(
        &[("crates/fix/src/reactor.rs", src, FileKind::Production)],
        &[],
    );
    assert_eq!(rules_of(&findings), ["blocking-in-reactor"], "{findings:?}");
    assert!(findings[0].message.contains("try_enqueue"));
}

// ------------------------------------------------------------ forbid-unsafe

#[test]
fn forbid_unsafe_missing_attribute_is_reported() {
    let findings = run(
        &[(
            "crates/fix/src/lib.rs",
            "pub fn f() {}\n",
            FileKind::Production,
        )],
        &[],
    );
    assert_eq!(rules_of(&findings), ["forbid-unsafe"], "{findings:?}");
    assert_eq!((findings[0].line, findings[0].col), (1, 1));
}

#[test]
fn forbid_unsafe_present_attribute_is_clean() {
    let findings = run(
        &[(
            "crates/fix/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
            FileKind::Production,
        )],
        &[],
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn forbid_unsafe_only_applies_to_crate_roots() {
    let findings = run(
        &[(
            "crates/fix/src/module.rs",
            "pub fn f() {}\n",
            FileKind::Production,
        )],
        &[],
    );
    assert!(
        findings.is_empty(),
        "non-root modules are not checked: {findings:?}"
    );
}

// ---------------------------------------------------------------- rendering

#[test]
fn render_human_reports_clean_and_counts() {
    assert_eq!(anno_lint::render_human(&[]), "anno-lint: clean\n");
    let f = Finding {
        rule: "panic-path",
        path: "a.rs".to_string(),
        line: 3,
        col: 7,
        message: "boom".to_string(),
    };
    let out = anno_lint::render_human(&[f]);
    assert!(out.contains("a.rs:3:7: [panic-path] boom"));
    assert!(out.contains("anno-lint: 1 finding\n"));
}

#[test]
fn render_json_escapes_and_lists() {
    assert_eq!(anno_lint::render_json(&[]), "[]\n");
    let f = Finding {
        rule: "metric-drift",
        path: "R\"E.md".to_string(),
        line: 1,
        col: 1,
        message: "tab\there".to_string(),
    };
    let out = anno_lint::render_json(&[f]);
    assert!(out.contains("\"path\":\"R\\\"E.md\""), "{out}");
    assert!(out.contains("tab\\there"), "{out}");
}
