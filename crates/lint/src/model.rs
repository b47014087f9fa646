//! The source model the rules run against.
//!
//! One pass over each file's token stream extracts just enough structure
//! for the rules: struct definitions with their `Mutex`/`RwLock` fields,
//! `impl` contexts, function definitions with body spans, and — per
//! function body — lock-acquisition sites with the set of locks held at
//! each point, call sites, panic sites, and indexing sites. No AST: the
//! extraction is a disciplined token walk, which is exactly as much
//! parsing as a repo-local analysis can afford to maintain.
//!
//! Precision contract: the scope tracker over-approximates guard
//! lifetimes (a guard bound inside an `if let` condition is treated as
//! held to the end of the enclosing statement run) and the call resolver
//! under-approximates dispatch (a method call only resolves when its
//! name is unambiguous in the workspace). Over-approximate holds and
//! under-approximate calls keep the lock graph's false-positive rate
//! low enough to gate CI on.

use std::collections::HashMap;
use std::path::PathBuf;

use crate::lexer::{lex, Token, TokenKind};

/// How a file participates in analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// First-party library/binary code: all rules apply.
    Production,
    /// `tests/`, `benches/`, `examples/` trees: structure is modeled
    /// (for call-graph completeness) but panic/blocking rules skip it.
    TestHarness,
}

/// One loaded source file.
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub path: PathBuf,
    pub text: String,
    pub kind: FileKind,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-trivia tokens, in order.
    pub sig: Vec<usize>,
    /// Byte offset of each line start; line numbers are 1-based.
    pub line_starts: Vec<usize>,
    /// Byte ranges of `#[cfg(test)] mod … { … }` bodies.
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// 1-based (line, column) of a byte offset.
    pub fn line_col(&self, offset: usize) -> (u32, u32) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let col = self.text[self.line_starts[line]..offset].chars().count();
        (line as u32 + 1, col as u32 + 1)
    }

    pub fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| s <= offset && offset < e)
    }

    fn tok(&self, sig_idx: usize) -> &Token {
        &self.tokens[self.sig[sig_idx]]
    }

    fn text_of(&self, sig_idx: usize) -> &str {
        self.tok(sig_idx).text(&self.text)
    }

    fn kind_of(&self, sig_idx: usize) -> TokenKind {
        self.tok(sig_idx).kind
    }

    /// File stem ("dataset" for crates/service/src/dataset.rs).
    pub fn stem(&self) -> String {
        self.path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    }
}

/// A struct that owns lock fields.
#[derive(Debug)]
pub struct StructDef {
    pub file: usize,
    pub name: String,
    /// Field names whose type mentions `Mutex` or `RwLock`.
    pub lock_fields: Vec<String>,
}

/// A stable lock identity: `Struct::field`, or `file::field` when the
/// owning struct could not be resolved.
pub type LockId = String;

/// A lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct AcqSite {
    pub lock: LockId,
    /// Locks held when this acquisition happens (dedup'd, in hold order).
    pub held: Vec<LockId>,
    pub offset: usize,
    /// The method used (`lock`, `read`, `try_lock`, …).
    pub method: String,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallQual {
    /// `helper(…)` — a free function.
    Bare,
    /// `self.helper(…)` — a method on the current impl type.
    SelfMethod,
    /// `x.helper(…)` — a method on something else.
    Method,
    /// `Type::helper(…)`.
    Path(String),
}

/// A call inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub qual: CallQual,
    pub held: Vec<LockId>,
    pub offset: usize,
}

/// Kinds of panic site the panic-path rule reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    Unwrap,
    Expect,
    PanicMacro,
    UnreachableMacro,
    TodoMacro,
    UnimplementedMacro,
}

impl PanicKind {
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => ".unwrap()",
            PanicKind::Expect => ".expect(…)",
            PanicKind::PanicMacro => "panic!",
            PanicKind::UnreachableMacro => "unreachable!",
            PanicKind::TodoMacro => "todo!",
            PanicKind::UnimplementedMacro => "unimplemented!",
        }
    }
}

/// A potential panic inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub kind: PanicKind,
    pub offset: usize,
    /// `lock().unwrap()` / `read().unwrap()` — the poison-propagation
    /// idiom, exempt from panic-path by policy (a poisoned lock means
    /// another thread already panicked; unwrap merely propagates).
    pub poison_unwrap: bool,
}

/// An indexing expression (`x[i]`) evaluated while a lock is held.
#[derive(Debug, Clone)]
pub struct IndexSite {
    pub held: Vec<LockId>,
    pub offset: usize,
}

/// A function definition.
pub struct FnDef {
    pub file: usize,
    pub name: String,
    pub impl_type: Option<String>,
    pub offset: usize,
    /// Test code: `#[test]`/`#[bench]`, inside `#[cfg(test)]`, or in a
    /// test-harness file.
    pub is_test: bool,
    pub acquisitions: Vec<AcqSite>,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub indexing: Vec<IndexSite>,
    /// Set when the return type mentions a guard type: calling this
    /// function acquires the given lock in the caller's scope.
    pub returns_guard: Option<LockId>,
}

/// Identifier of a function in `Model::functions`.
pub type FnId = usize;

/// The whole-workspace model.
pub struct Model {
    pub files: Vec<SourceFile>,
    pub structs: Vec<StructDef>,
    pub functions: Vec<FnDef>,
    /// Simple name → candidate functions.
    pub fn_by_name: HashMap<String, Vec<FnId>>,
    /// (impl type, name) → function.
    pub fn_by_qual: HashMap<(String, String), FnId>,
}

const LOCK_METHODS: [&str; 6] = ["lock", "try_lock", "read", "try_read", "write", "try_write"];

/// Method names too generic to resolve across the workspace: they shadow
/// std container/iterator/Option/Result/trait methods constantly, and a
/// misresolved call would wire unrelated lock scopes together.
const UNRESOLVABLE_METHODS: &[&str] = &[
    "new",
    "clone",
    "default",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "contains",
    "extend",
    "iter",
    "into_iter",
    "next",
    "collect",
    "drain",
    "clear",
    "take",
    "replace",
    "join",
    "send",
    "recv",
    "flush",
    "write",
    "read",
    "write_all",
    "read_line",
    "wait",
    "notify_all",
    "notify_one",
    "spawn",
    "fmt",
    "from",
    "into",
    "to_string",
    "as_str",
    "name",
    "min",
    "max",
    // Iterator adapters and consumers: the receiver is an iterator, never
    // a workspace type, but closures make the names collide.
    "all",
    "any",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "find",
    "find_map",
    "for_each",
    "position",
    "count",
    "sum",
    "last",
    "rev",
    "skip",
    "chain",
    "zip",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "windows",
    "chunks",
    "peekable",
    "take_while",
    "skip_while",
    "max_by_key",
    "min_by_key",
    "max_by",
    "min_by",
    // Option/Result combinators.
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_err",
    "and_then",
    "or_else",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "as_ref",
    "as_mut",
    "as_deref",
    "cloned",
    "copied",
    // str/slice staples.
    "split",
    "splitn",
    "trim",
    "parse",
    "lines",
    "chars",
    "bytes",
    "starts_with",
    "ends_with",
    "to_vec",
    "to_owned",
    "keys",
    "values",
    "entry",
    "get_mut",
    "contains_key",
    "first",
];

struct ImplCtx {
    ty: String,
    /// Brace depth at which this impl's body closes.
    close_depth: usize,
}

impl Model {
    /// Build the model from pre-loaded files.
    pub fn build(inputs: Vec<(PathBuf, String, FileKind)>) -> Model {
        let mut files = Vec::with_capacity(inputs.len());
        for (path, text, kind) in inputs {
            files.push(load_file(path, text, kind));
        }

        // Pass 1: structs (lock-field registry) and function skeletons.
        let mut structs = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            collect_structs(file, fi, &mut structs);
        }
        let mut lock_fields: HashMap<&str, Vec<usize>> = HashMap::new();
        for (si, s) in structs.iter().enumerate() {
            for f in &s.lock_fields {
                lock_fields.entry(f.as_str()).or_default().push(si);
            }
        }

        // Pass 2: functions with analyzed bodies.
        let mut functions = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            collect_functions(file, fi, &structs, &lock_fields, &mut functions);
        }

        let mut fn_by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut fn_by_qual: HashMap<(String, String), FnId> = HashMap::new();
        for (id, f) in functions.iter().enumerate() {
            fn_by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(ty) = &f.impl_type {
                fn_by_qual.insert((ty.clone(), f.name.clone()), id);
            }
        }

        Model {
            files,
            structs,
            functions,
            fn_by_name,
            fn_by_qual,
        }
    }

    /// Resolve a call site to a workspace function, conservatively.
    pub fn resolve_call(&self, caller: &FnDef, call: &CallSite) -> Option<FnId> {
        match &call.qual {
            CallQual::Path(ty) => self
                .fn_by_qual
                .get(&(ty.clone(), call.name.clone()))
                .copied(),
            CallQual::SelfMethod => {
                let ty = caller.impl_type.as_ref()?;
                self.fn_by_qual
                    .get(&(ty.clone(), call.name.clone()))
                    .copied()
            }
            CallQual::Bare => {
                let cands = self.fn_by_name.get(&call.name)?;
                // Free functions in the same file win; otherwise require a
                // workspace-unique free function.
                let free: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|&id| self.functions[id].impl_type.is_none())
                    .collect();
                let same_file: Vec<FnId> = free
                    .iter()
                    .copied()
                    .filter(|&id| self.functions[id].file == caller.file)
                    .collect();
                match (same_file.len(), free.len()) {
                    (1, _) => Some(same_file[0]),
                    (0, 1) => Some(free[0]),
                    _ => None,
                }
            }
            CallQual::Method => {
                if UNRESOLVABLE_METHODS.contains(&call.name.as_str()) {
                    return None;
                }
                let cands = self.fn_by_name.get(&call.name)?;
                if cands.len() == 1 {
                    Some(cands[0])
                } else {
                    None
                }
            }
        }
    }
}

fn load_file(path: PathBuf, text: String, kind: FileKind) -> SourceFile {
    let mut line_starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let tokens = lex(&text);
    let sig = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|(i, _)| i)
        .collect();
    let mut file = SourceFile {
        path,
        text,
        kind,
        tokens,
        sig,
        line_starts,
        test_regions: Vec::new(),
    };
    file.test_regions = find_test_regions(&file);
    file
}

/// Find `#[cfg(test)] mod name { … }` body spans.
fn find_test_regions(file: &SourceFile) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let n = file.sig.len();
    let mut i = 0;
    while i < n {
        if file.kind_of(i) == TokenKind::Punct && file.text_of(i) == "#" {
            let (attr_end, is_cfg_test) = scan_attribute(file, i);
            if is_cfg_test {
                // Expect `mod name {` next (possibly after more attrs).
                let mut j = attr_end;
                while j < n && file.text_of(j) == "#" {
                    j = scan_attribute(file, j).0;
                }
                if j < n && file.text_of(j) == "mod" {
                    // Find the opening brace, then its match.
                    let mut k = j;
                    while k < n && file.text_of(k) != "{" && file.text_of(k) != ";" {
                        k += 1;
                    }
                    if k < n && file.text_of(k) == "{" {
                        let close = matching_brace(file, k);
                        regions.push((file.tok(k).start, file.tok(close.min(n - 1)).end));
                        i = close;
                        continue;
                    }
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    regions
}

/// From a `#` at sig index `i`, skip over the attribute. Returns the sig
/// index after it and whether it was `cfg(test)`-like.
fn scan_attribute(file: &SourceFile, i: usize) -> (usize, bool) {
    let n = file.sig.len();
    let mut j = i + 1;
    if j < n && file.text_of(j) == "!" {
        j += 1;
    }
    if j >= n || file.text_of(j) != "[" {
        return (i + 1, false);
    }
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    while j < n {
        let t = file.text_of(j);
        match t {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, saw_cfg && saw_test);
                }
            }
            "cfg" => saw_cfg = true,
            "test" => saw_test = true,
            _ => {}
        }
        j += 1;
    }
    (n, false)
}

/// Is the attribute starting at `i` a `#[test]`-like function attribute?
fn attribute_is_test(file: &SourceFile, i: usize) -> bool {
    let n = file.sig.len();
    let mut j = i + 1;
    if j >= n || file.text_of(j) != "[" {
        return false;
    }
    let mut depth = 0usize;
    while j < n {
        match file.text_of(j) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "test" | "bench" => return true,
            "cfg" => {} // cfg(test) on a fn: fall through, `test` hits above
            _ => {}
        }
        j += 1;
    }
    false
}

/// Sig index of the `}` matching the `{` at sig index `open`.
fn matching_brace(file: &SourceFile, open: usize) -> usize {
    let n = file.sig.len();
    let mut depth = 0usize;
    let mut i = open;
    while i < n {
        match file.text_of(i) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    n - 1
}

fn collect_structs(file: &SourceFile, fi: usize, out: &mut Vec<StructDef>) {
    let n = file.sig.len();
    let mut i = 0;
    while i < n {
        if file.kind_of(i) == TokenKind::Ident
            && file.text_of(i) == "struct"
            && i + 1 < n
            && file.kind_of(i + 1) == TokenKind::Ident
        {
            let name = file.text_of(i + 1).to_string();
            // Skip to `{`, `;` (unit) or `(` (tuple) at angle depth 0.
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < n {
                match file.text_of(j) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" if angle <= 0 => break,
                    ";" | "(" if angle <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j < n && file.text_of(j) == "{" {
                let close = matching_brace(file, j);
                let lock_fields = collect_lock_fields(file, j, close);
                if !lock_fields.is_empty() {
                    out.push(StructDef {
                        file: fi,
                        name,
                        lock_fields,
                    });
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// Fields typed `Mutex<…>`/`RwLock<…>` (possibly nested, e.g. inside
/// `Arc<(Mutex<bool>, Condvar)>`) between braces `open..close`.
fn collect_lock_fields(file: &SourceFile, open: usize, close: usize) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Skip attributes on fields.
        if file.text_of(i) == "#" {
            i = scan_attribute(file, i).0;
            continue;
        }
        // Field pattern: [pub[(crate)]] name `:` type…(`,` at depth 1 | close)
        if file.kind_of(i) == TokenKind::Ident && i + 1 < close && file.text_of(i + 1) == ":" {
            let name = file.text_of(i).to_string();
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut has_lock = false;
            while j < close {
                match file.text_of(j) {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "," if depth <= 0 => break,
                    "Mutex" | "RwLock" => has_lock = true,
                    _ => {}
                }
                j += 1;
            }
            if has_lock {
                fields.push(name);
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    fields
}

fn collect_functions(
    file: &SourceFile,
    fi: usize,
    structs: &[StructDef],
    lock_fields: &HashMap<&str, Vec<usize>>,
    out: &mut Vec<FnDef>,
) {
    let n = file.sig.len();
    let mut impl_stack: Vec<ImplCtx> = Vec::new();
    let mut brace_depth = 0usize;
    let mut pending_test_attr = false;
    let mut i = 0;
    while i < n {
        let text = file.text_of(i);
        match text {
            "#" => {
                if attribute_is_test(file, i) {
                    pending_test_attr = true;
                }
                i = scan_attribute(file, i).0;
                continue;
            }
            "{" => {
                brace_depth += 1;
                i += 1;
                continue;
            }
            "}" => {
                brace_depth = brace_depth.saturating_sub(1);
                if impl_stack
                    .last()
                    .is_some_and(|c| c.close_depth == brace_depth)
                {
                    impl_stack.pop();
                }
                i += 1;
                continue;
            }
            "impl" => {
                if let Some((ty, body_open)) = parse_impl_header(file, i) {
                    impl_stack.push(ImplCtx {
                        ty,
                        close_depth: brace_depth,
                    });
                    brace_depth += 1;
                    i = body_open + 1;
                    continue;
                }
                i += 1;
                continue;
            }
            "fn" => {
                if i + 1 < n && file.kind_of(i + 1) == TokenKind::Ident {
                    let name = file.text_of(i + 1).to_string();
                    let offset = file.tok(i).start;
                    let (body, ret_mentions_guard) = parse_fn_signature(file, i + 2);
                    let is_test = pending_test_attr
                        || file.kind == FileKind::TestHarness
                        || file.in_test_region(offset);
                    pending_test_attr = false;
                    let mut def = FnDef {
                        file: fi,
                        name,
                        impl_type: impl_stack.last().map(|c| c.ty.clone()),
                        offset,
                        is_test,
                        acquisitions: Vec::new(),
                        calls: Vec::new(),
                        panics: Vec::new(),
                        indexing: Vec::new(),
                        returns_guard: None,
                    };
                    if let Some((open, close)) = body {
                        analyze_body(file, &mut def, structs, lock_fields, open, close);
                        if ret_mentions_guard {
                            def.returns_guard = def.acquisitions.first().map(|a| a.lock.clone());
                        }
                        out.push(def);
                        i = close + 1;
                        continue;
                    }
                    out.push(def);
                }
                i += 1;
                continue;
            }
            _ => {
                pending_test_attr = false;
                i += 1;
            }
        }
    }
}

/// Parse from the `impl` keyword: returns (type name, sig index of body
/// `{`), or None for `impl Trait for …;`-ish malformed cases.
fn parse_impl_header(file: &SourceFile, i: usize) -> Option<(String, usize)> {
    let n = file.sig.len();
    let mut j = i + 1;
    // Skip generic params `<…>`.
    if j < n && file.text_of(j) == "<" {
        let mut depth = 0i32;
        while j < n {
            match file.text_of(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Collect tokens up to `{` at bracket depth 0; remember the segment
    // after `for` if present.
    let mut after_for: Option<usize> = None;
    let mut depth = 0i32;
    let mut body_open = None;
    let head_start = j;
    while j < n {
        match file.text_of(j) {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => depth -= 1,
            "for" if depth <= 0 => after_for = Some(j + 1),
            "{" if depth <= 0 => {
                body_open = Some(j);
                break;
            }
            ";" if depth <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    let body_open = body_open?;
    let ty_start = after_for.unwrap_or(head_start);
    // Type name: the last ident of the leading path (`a::b::C<T>` → C),
    // stopping at `<`, `{`, or `where`.
    let mut ty = None;
    let mut k = ty_start;
    while k < body_open {
        let t = file.text_of(k);
        if t == "<" || t == "where" {
            break;
        }
        if file.kind_of(k) == TokenKind::Ident && t != "dyn" && t != "mut" {
            ty = Some(t.to_string());
        }
        if t != "::" && file.kind_of(k) != TokenKind::Ident {
            break;
        }
        k += 1;
    }
    Some((ty?, body_open))
}

/// From just past `fn name`, skip generics/params/return type. Returns
/// (body sig-range, return type mentions a lock guard).
fn parse_fn_signature(file: &SourceFile, mut j: usize) -> (Option<(usize, usize)>, bool) {
    let n = file.sig.len();
    // Generics.
    if j < n && file.text_of(j) == "<" {
        let mut depth = 0i32;
        while j < n {
            match file.text_of(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Params.
    if j < n && file.text_of(j) == "(" {
        let mut depth = 0i32;
        while j < n {
            match file.text_of(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Return type + where clause, up to `{` or `;` at depth 0.
    let mut guard = false;
    let mut depth = 0i32;
    while j < n {
        let t = file.text_of(j);
        match t {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => depth -= 1,
            "{" if depth <= 0 => {
                let close = matching_brace(file, j);
                return (Some((j, close)), guard);
            }
            ";" if depth <= 0 => return (None, guard),
            "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard" => guard = true,
            _ => {}
        }
        j += 1;
    }
    (None, guard)
}

/// One live guard in the scope tracker.
struct Guard {
    lock: LockId,
    binding: Option<String>,
    /// Dropped at the next `;` in its block (a temporary, not let-bound).
    stmt_scoped: bool,
}

struct Block {
    guards: Vec<Guard>,
}

/// Walk a function body (sig indices `open..=close`, both braces),
/// filling the def's site lists.
fn analyze_body(
    file: &SourceFile,
    def: &mut FnDef,
    structs: &[StructDef],
    lock_fields: &HashMap<&str, Vec<usize>>,
    open: usize,
    close: usize,
) {
    let mut blocks: Vec<Block> = vec![Block { guards: Vec::new() }];
    let mut stmt_is_let = false;
    let mut stmt_binding: Option<String> = None;
    let mut stmt_eq: Option<usize> = None;
    let mut at_stmt_start = true;

    let held_now = |blocks: &[Block]| -> Vec<LockId> {
        let mut held = Vec::new();
        for b in blocks {
            for g in &b.guards {
                if !held.contains(&g.lock) {
                    held.push(g.lock.clone());
                }
            }
        }
        held
    };

    let mut i = open + 1;
    while i < close {
        let text = file.text_of(i);
        let kind = file.kind_of(i);

        if at_stmt_start {
            stmt_is_let = text == "let";
            stmt_binding = None;
            stmt_eq = None;
            if stmt_is_let {
                // `let [mut] name` — tuple/struct patterns yield None.
                let mut j = i + 1;
                if j < close && file.text_of(j) == "mut" {
                    j += 1;
                }
                if j < close && file.kind_of(j) == TokenKind::Ident {
                    stmt_binding = Some(file.text_of(j).to_string());
                    // Position of the initializer's `=` (bounded scan).
                    let mut k = j + 1;
                    while k < close && k < j + 12 {
                        match file.text_of(k) {
                            "=" => {
                                stmt_eq = Some(k);
                                break;
                            }
                            ";" => break,
                            _ => k += 1,
                        }
                    }
                }
            }
            at_stmt_start = false;
        }

        match text {
            "{" => {
                // A guard temporary alive when a block opens mid-statement
                // sits in a condition/scrutinee position (`if let Some(x) =
                // m.lock()….take()`): Rust keeps it alive for the whole
                // construct, i.e. to the end of this block. Move it in so
                // the matching `}` drops it.
                let carried: Vec<Guard> = match blocks.last_mut() {
                    Some(b) => {
                        let (carry, keep) = std::mem::take(&mut b.guards)
                            .into_iter()
                            .partition(|g: &Guard| g.stmt_scoped);
                        b.guards = keep;
                        carry
                    }
                    None => Vec::new(),
                };
                blocks.push(Block { guards: carried });
                at_stmt_start = true;
                i += 1;
                continue;
            }
            "}" => {
                blocks.pop();
                if blocks.is_empty() {
                    blocks.push(Block { guards: Vec::new() });
                }
                at_stmt_start = true;
                i += 1;
                continue;
            }
            ";" => {
                if let Some(b) = blocks.last_mut() {
                    b.guards.retain(|g| !g.stmt_scoped);
                }
                at_stmt_start = true;
                i += 1;
                continue;
            }
            _ => {}
        }

        // Explicit `drop(binding)` releases a named guard early.
        if kind == TokenKind::Ident
            && text == "drop"
            && i + 3 < close
            && file.text_of(i + 1) == "("
            && file.kind_of(i + 2) == TokenKind::Ident
            && file.text_of(i + 3) == ")"
        {
            let victim = file.text_of(i + 2);
            for b in blocks.iter_mut() {
                b.guards.retain(|g| g.binding.as_deref() != Some(victim));
            }
            i += 4;
            continue;
        }

        if kind == TokenKind::Ident {
            let next = if i + 1 < close {
                file.text_of(i + 1)
            } else {
                ""
            };
            let prev_is_dot = i > open && file.text_of(i - 1) == ".";

            // Lock acquisition: `recv.field.lock()` (zero-arg).
            if prev_is_dot
                && LOCK_METHODS.contains(&text)
                && next == "("
                && i + 2 < close
                && file.text_of(i + 2) == ")"
            {
                if let Some(lock) = resolve_lock(file, def, structs, lock_fields, i, text) {
                    let held = held_now(&blocks);
                    def.acquisitions.push(AcqSite {
                        lock: lock.clone(),
                        held,
                        offset: file.tok(i).start,
                        method: text.to_string(),
                    });
                    // The let binding names the guard only when this
                    // acquisition chain is the whole initializer
                    // (`let g = a.b.lock()…`). `let v = *a.lock()` or
                    // `let v = match a.lock()… {…}` bind the *value*; the
                    // guard is a temporary dying at the statement's end.
                    let binds_guard = stmt_is_let
                        && stmt_eq.is_some_and(|eq| {
                            (eq + 1..i).all(|k| {
                                let t = file.text_of(k);
                                let expr_kw = matches!(
                                    t,
                                    "match"
                                        | "if"
                                        | "else"
                                        | "loop"
                                        | "while"
                                        | "for"
                                        | "return"
                                        | "break"
                                        | "continue"
                                        | "unsafe"
                                        | "move"
                                        | "as"
                                );
                                (matches!(file.kind_of(k), TokenKind::Ident | TokenKind::Number)
                                    && !expr_kw)
                                    || matches!(t, "." | ":" | "&" | "?")
                            })
                        });
                    if let Some(b) = blocks.last_mut() {
                        b.guards.push(Guard {
                            lock,
                            binding: if binds_guard {
                                stmt_binding.clone()
                            } else {
                                None
                            },
                            stmt_scoped: !binds_guard,
                        });
                    }
                    i += 3; // past `( )`
                    continue;
                }
            }

            // Panic sites.
            if prev_is_dot && (text == "unwrap" || text == "expect") && next == "(" {
                let poison_unwrap = is_poison_propagation(file, open, i);
                def.panics.push(PanicSite {
                    kind: if text == "unwrap" {
                        PanicKind::Unwrap
                    } else {
                        PanicKind::Expect
                    },
                    offset: file.tok(i).start,
                    poison_unwrap,
                });
                i += 2;
                continue;
            }
            if next == "!" {
                let mac = match text {
                    "panic" => Some(PanicKind::PanicMacro),
                    "unreachable" => Some(PanicKind::UnreachableMacro),
                    "todo" => Some(PanicKind::TodoMacro),
                    "unimplemented" => Some(PanicKind::UnimplementedMacro),
                    _ => None,
                };
                if let Some(kind) = mac {
                    def.panics.push(PanicSite {
                        kind,
                        offset: file.tok(i).start,
                        poison_unwrap: false,
                    });
                    i += 2;
                    continue;
                }
            }

            // Call sites.
            if next == "(" && !is_keyword(text) {
                let qual = if prev_is_dot {
                    if i >= open + 2 && file.text_of(i - 2) == "self" {
                        CallQual::SelfMethod
                    } else {
                        CallQual::Method
                    }
                } else if i > open && file.text_of(i - 1) == "::" {
                    let ty = if i >= open + 2 && file.kind_of(i - 2) == TokenKind::Ident {
                        Some(file.text_of(i - 2).to_string())
                    } else {
                        None
                    };
                    match ty {
                        Some(t) => CallQual::Path(t),
                        None => CallQual::Bare,
                    }
                } else {
                    CallQual::Bare
                };
                def.calls.push(CallSite {
                    name: text.to_string(),
                    qual,
                    held: held_now(&blocks),
                    offset: file.tok(i).start,
                });
                i += 1;
                continue;
            }
        }

        // Indexing while a lock is held: `expr[` where expr just ended.
        if text == "[" && i > open {
            let prev_kind = file.kind_of(i - 1);
            let prev_text = file.text_of(i - 1);
            // `name![…]` is a macro invocation (`vec![…]`), not indexing:
            // the bang sits at i-1 and fails all three predicates below.
            let indexes = (prev_kind == TokenKind::Ident && !is_keyword(prev_text))
                || prev_text == ")"
                || prev_text == "]";
            if indexes {
                let held = held_now(&blocks);
                if !held.is_empty() {
                    def.indexing.push(IndexSite {
                        held,
                        offset: file.tok(i).start,
                    });
                }
            }
        }

        i += 1;
    }
}

/// Is the `.unwrap()`/`.expect(…)` at sig index `i` applied directly to a
/// lock/condvar poison `Result` (`m.lock().unwrap()`,
/// `cv.wait_timeout(g, d).expect(…)`)? Poison propagation is the
/// workspace idiom for "another thread already panicked; don't serve on
/// wreckage" and is exempt from panic-path by policy.
fn is_poison_propagation(file: &SourceFile, open: usize, i: usize) -> bool {
    const POISON_METHODS: &[&str] = &[
        "lock",
        "try_lock",
        "read",
        "try_read",
        "write",
        "try_write",
        "wait",
        "wait_timeout",
        "wait_while",
    ];
    // Receiver must end with `…(` args `)`: walk i-2 back to its match.
    if i < open + 4 || file.text_of(i - 2) != ")" {
        return false;
    }
    let mut depth = 0i32;
    let mut j = i - 2;
    loop {
        match file.text_of(j) {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == open {
            return false;
        }
        j -= 1;
    }
    j > open + 1 && POISON_METHODS.contains(&file.text_of(j - 1)) && file.text_of(j - 2) == "."
}

fn is_keyword(t: &str) -> bool {
    matches!(
        t,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "fn"
            | "let"
            | "mut"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "ref"
            | "move"
            | "unsafe"
            | "where"
            | "impl"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "self"
            | "Self"
            | "super"
            | "dyn"
            | "async"
            | "await"
    )
}

/// Resolve the receiver chain of a lock call at sig index `method_idx`
/// (the ident `lock`/`read`/…) into a stable lock id.
fn resolve_lock(
    file: &SourceFile,
    def: &FnDef,
    structs: &[StructDef],
    lock_fields: &HashMap<&str, Vec<usize>>,
    method_idx: usize,
    method: &str,
) -> Option<LockId> {
    // Walk back: `.`, then components (Ident|Number) separated by `.`.
    let mut components: Vec<&str> = Vec::new();
    let mut j = method_idx - 1; // the `.` before the method
    loop {
        if j == 0 {
            break;
        }
        let prev = j - 1;
        match file.kind_of(prev) {
            TokenKind::Ident | TokenKind::Number => {
                components.push(file.text_of(prev));
                if prev == 0 || file.text_of(prev - 1) != "." {
                    break;
                }
                j = prev - 1;
            }
            _ => break,
        }
    }
    components.reverse();
    // Last alphabetic component is the field name.
    let field = components
        .iter()
        .rev()
        .find(|c| {
            c.chars()
                .next()
                .is_some_and(|ch| ch == '_' || ch.is_alphabetic())
        })
        .copied()?;
    if field == "self" && components.len() == 1 {
        return None; // `self.lock()` — not a field access we understand
    }
    let root_is_self = components.first() == Some(&"self");

    let empty = Vec::new();
    let cands = lock_fields.get(field).unwrap_or(&empty);
    if cands.is_empty() {
        // Unknown field: only `lock`/`try_lock` are distinctive enough to
        // still count (std's read/write would drown the graph in noise).
        if method == "lock" || method == "try_lock" {
            return Some(format!("{}::{}", file.stem(), field));
        }
        return None;
    }
    // Prefer the impl context's struct for `self.…` receivers.
    if root_is_self {
        if let Some(ty) = &def.impl_type {
            if let Some(&si) = cands.iter().find(|&&si| &structs[si].name == ty) {
                return Some(format!("{}::{}", structs[si].name, field));
            }
        }
    }
    if cands.len() == 1 {
        return Some(format!("{}::{}", structs[cands[0]].name, field));
    }
    // Same-file struct wins; otherwise the field name is ambiguous and we
    // give it a per-file identity rather than conflating across files.
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&si| structs[si].file == def.file)
        .collect();
    if same_file.len() == 1 {
        return Some(format!("{}::{}", structs[same_file[0]].name, field));
    }
    Some(format!("{}::{}", file.stem(), field))
}
