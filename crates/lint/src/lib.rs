//! anno-lint — the workspace's own static-analysis pass.
//!
//! Generic lints (clippy, rustc) can't know that `Inner.write` must never
//! be taken after `Inner.queue`, or that a shard loop must not park on a
//! tenant's backpressure. This crate encodes those repo-specific
//! invariants as four rules over a token-level source model and runs as a
//! hard CI gate:
//!
//! ```text
//! cargo run -p anno-lint -- [--json] [path-prefix …]
//! ```
//!
//! Findings are deny-by-default. The only suppression mechanism is an
//! in-source pragma naming the rule and the reason:
//!
//! ```text
//! // anno-lint: allow(panic-path) -- index bounded by the len check above
//! ```
//!
//! See the rule modules under [`rules`] for what each rule means and the
//! README's "Static analysis" section for the operator view.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod model;
pub mod pragma;
pub mod rules;

use model::FileKind;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (`lock-order`, …), or `pragma` for a malformed
    /// suppression (which no pragma can silence).
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// Knobs for a lint run. [`LintOptions::default`] is what CI runs.
pub struct LintOptions {
    /// Thread-loop functions the `panic-path` rule walks from. A root
    /// that no longer exists is itself a finding.
    pub panic_roots: Vec<String>,
}

impl Default for LintOptions {
    fn default() -> LintOptions {
        LintOptions {
            panic_roots: ["owner_loop", "shard_loop", "committer_loop"]
                .map(String::from)
                .to_vec(),
        }
    }
}

/// Lint pre-loaded files. The unit the fixture tests drive.
pub fn lint_files(inputs: Vec<(PathBuf, String, FileKind)>, opts: &LintOptions) -> Vec<Finding> {
    let model = model::Model::build(inputs);
    let pragmas = pragma::PragmaIndex::parse(&model);
    let file_index: HashMap<String, usize> = model
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.to_string_lossy().into_owned(), i))
        .collect();
    let mut findings: Vec<Finding> = rules::run_all(&model, &pragmas, opts)
        .into_iter()
        .filter(|f| {
            // Line-scoped pragma suppression. Unknown paths (e.g. the
            // synthetic "(workspace)") are never suppressible.
            file_index
                .get(&f.path)
                .is_none_or(|&fi| !pragmas.allows(fi, f.line, f.rule))
        })
        .collect();
    findings.extend(pragmas.malformed);
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });
    findings.dedup();
    findings
}

/// Walk a workspace root and lint everything first-party.
///
/// Loaded: `**/*.rs` outside `target/`, `vendor/`, and `.git/`. Files
/// under a `tests/`, `benches/`, or `examples/` directory are
/// [`FileKind::TestHarness`]. Paths in findings are workspace-relative.
pub fn lint_workspace(root: &Path, opts: &LintOptions) -> io::Result<Vec<Finding>> {
    let mut inputs: Vec<(PathBuf, String, FileKind)> = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<io::Result<_>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                let kind = if rel.components().any(|c| {
                    matches!(
                        c.as_os_str().to_str(),
                        Some("tests" | "benches" | "examples")
                    )
                }) {
                    FileKind::TestHarness
                } else {
                    FileKind::Production
                };
                inputs.push((rel, fs::read_to_string(&path)?, kind));
            }
        }
    }
    inputs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(lint_files(inputs, opts))
}

/// Human-readable report, one block per finding.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}",
            f.path, f.line, f.col, f.rule, f.message
        );
    }
    if findings.is_empty() {
        out.push_str("anno-lint: clean\n");
    } else {
        let _ = writeln!(
            out,
            "anno-lint: {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
    }
    out
}

/// Machine-readable report: a JSON array of findings. Hand-rolled —
/// the workspace takes no serialization dependency.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"rule\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{}}}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            f.col,
            json_str(&f.message)
        );
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
