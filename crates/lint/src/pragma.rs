//! Inline suppression pragmas.
//!
//! Findings are deny-by-default; the only way to silence one is an
//! in-source pragma that names the rule **and states a reason**:
//!
//! ```text
//! // anno-lint: allow(panic-path) -- length checked two lines above
//! let first = batch[0];
//! ```
//!
//! A trailing pragma (code before it on the same line) applies to its own
//! line; a standalone pragma line applies to the next line that carries
//! code. A pragma with an unknown rule name or a missing reason is itself
//! a finding (rule `pragma`) — an unreadable suppression must never
//! silently suppress.

use std::collections::HashMap;

use crate::lexer::TokenKind;
use crate::model::Model;
use crate::rules::RULE_NAMES;
use crate::Finding;

/// Strip one layer of comment introducer (`//`, `///`, `//!`, `/* */`,
/// doc-block forms) and surrounding whitespace. Directives are only
/// recognized at the start of the stripped body — prose that merely
/// mentions `anno-lint:` mid-sentence (or inside a doc example, where a
/// second `//` layer remains after stripping) is not a directive.
fn comment_body(text: &str) -> &str {
    let body = if let Some(rest) = text.strip_prefix("//") {
        rest.strip_prefix('/')
            .or_else(|| rest.strip_prefix('!'))
            .unwrap_or(rest)
    } else if let Some(rest) = text.strip_prefix("/*") {
        let rest = rest
            .strip_prefix('*')
            .or_else(|| rest.strip_prefix('!'))
            .unwrap_or(rest);
        rest.strip_suffix("*/").unwrap_or(rest)
    } else {
        text
    };
    body.trim()
}

/// Where suppressions apply: (file index, 1-based line) → rule names.
pub struct PragmaIndex {
    allows: HashMap<(usize, u32), Vec<String>>,
    pub malformed: Vec<Finding>,
}

impl PragmaIndex {
    /// Is `rule` allowed at this file/line?
    pub fn allows(&self, file: usize, line: u32, rule: &str) -> bool {
        self.allows
            .get(&(file, line))
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }

    pub fn parse(model: &Model) -> PragmaIndex {
        let mut allows: HashMap<(usize, u32), Vec<String>> = HashMap::new();
        let mut malformed = Vec::new();
        for (fi, file) in model.files.iter().enumerate() {
            for (ti, tok) in file.tokens.iter().enumerate() {
                if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                    continue;
                }
                let body = comment_body(tok.text(&file.text));
                let Some(directive) = body.strip_prefix("anno-lint:") else {
                    continue;
                };
                let directive = directive.trim();
                let (line, _) = file.line_col(tok.start);
                match parse_allow(directive) {
                    Ok(rules) => {
                        let target = target_line(model, fi, ti, line);
                        allows.entry((fi, target)).or_default().extend(rules);
                    }
                    Err(why) => {
                        let (_, col) = file.line_col(tok.start);
                        malformed.push(Finding {
                            rule: "pragma",
                            path: file.path.to_string_lossy().into_owned(),
                            line,
                            col,
                            message: format!("malformed anno-lint pragma: {why}"),
                        });
                    }
                }
            }
        }
        PragmaIndex { allows, malformed }
    }
}

/// Parse `allow(rule, rule) -- reason`. Returns the rule list.
fn parse_allow(directive: &str) -> Result<Vec<String>, String> {
    let rest = directive
        .strip_prefix("allow")
        .ok_or_else(|| {
            format!("expected `allow(rule) -- reason` or `protocol-dispatch`, got {directive:?}")
        })?
        .trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `allow(`".to_string())?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("allow() names no rules".to_string());
    }
    for r in &rules {
        if !RULE_NAMES.contains(&r.as_str()) {
            return Err(format!(
                "unknown rule {r:?} (known: {})",
                RULE_NAMES.join(", ")
            ));
        }
    }
    let tail = rest[close + 1..].trim_start();
    let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return Err("missing `-- <reason>`: every suppression must say why".to_string());
    }
    Ok(rules)
}

/// The line a pragma applies to: its own if code precedes it on the
/// line, else the next line carrying a non-trivia token.
fn target_line(model: &Model, fi: usize, comment_ti: usize, comment_line: u32) -> u32 {
    let file = &model.files[fi];
    let comment = &file.tokens[comment_ti];
    let line_start = file.line_starts[(comment_line - 1) as usize];
    let code_before = file.tokens.iter().any(|t| {
        t.start >= line_start
            && t.end <= comment.start
            && !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
    });
    if code_before {
        return comment_line;
    }
    // Standalone: first significant token after the comment.
    for &si in &file.sig {
        let t = &file.tokens[si];
        if t.start > comment.end {
            return file.line_col(t.start).0;
        }
    }
    comment_line
}
