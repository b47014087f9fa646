//! `lock-order`: the interprocedural lock-order graph must be acyclic.
//!
//! Every acquisition records the set of locks already held; holding `A`
//! while acquiring `B` adds the edge `A → B`. Calls propagate: holding
//! `A` across a call whose (transitive) body may acquire `B` also adds
//! `A → B`, attributed to the call site. A cycle in the resulting graph
//! is a deadlock-capable acquisition order — two threads walking the
//! cycle from different entry points can block each other forever.
//!
//! Suppression is per *site*: a `// anno-lint: allow(lock-order) -- …`
//! pragma on an acquisition or call site removes the edges created at
//! that site (the usual reason: the two acquisitions are provably on
//! different instances, which a static order graph cannot see).
//!
//! A direct self-edge (`A` acquired while `A` is already held, in one
//! function body) is reported as a reentrancy bug. Self-edges that only
//! arise through calls are **not** reported: across a call boundary the
//! two `A`s are usually different instances (leader vs. follower
//! datasets, two tenants), and std mutexes on different instances don't
//! interact.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use crate::model::{FnId, LockId, Model};
use crate::pragma::PragmaIndex;
use crate::Finding;

const RULE: &str = "lock-order";

#[derive(Clone)]
struct EdgeInfo {
    file: usize,
    offset: usize,
    via: Option<String>,
}

pub fn run(model: &Model, pragmas: &PragmaIndex) -> Vec<Finding> {
    let suppressed = |fn_file: usize, offset: usize| -> bool {
        let (line, _) = model.files[fn_file].line_col(offset);
        pragmas.allows(fn_file, line, RULE)
    };

    // Transitive acquisition sets per function (suppressed sites and
    // guard-returning acquisitions included — a returned guard is still
    // taken inside the callee).
    let mut acquires: Vec<BTreeSet<LockId>> = model
        .functions
        .iter()
        .map(|f| {
            f.acquisitions
                .iter()
                .filter(|a| !suppressed(f.file, a.offset))
                .map(|a| a.lock.clone())
                .collect()
        })
        .collect();
    // Fixpoint over the call graph.
    let resolved_calls: Vec<Vec<(FnId, usize)>> = model
        .functions
        .iter()
        .map(|f| {
            f.calls
                .iter()
                .filter_map(|c| model.resolve_call(f, c).map(|id| (id, c.offset)))
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for (id, calls) in resolved_calls.iter().enumerate() {
            for &(callee, _) in calls {
                if callee == id {
                    continue;
                }
                let add: Vec<LockId> = acquires[callee]
                    .iter()
                    .filter(|l| !acquires[id].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    acquires[id].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edge set, first-site-wins for reporting.
    let mut edges: BTreeMap<(LockId, LockId), EdgeInfo> = BTreeMap::new();
    let mut direct_self: Vec<(LockId, usize, usize)> = Vec::new();
    for f in &model.functions {
        for a in &f.acquisitions {
            if suppressed(f.file, a.offset) {
                continue;
            }
            for h in &a.held {
                if *h == a.lock {
                    direct_self.push((a.lock.clone(), f.file, a.offset));
                    continue;
                }
                edges
                    .entry((h.clone(), a.lock.clone()))
                    .or_insert(EdgeInfo {
                        file: f.file,
                        offset: a.offset,
                        via: None,
                    });
            }
        }
        for c in &f.calls {
            if c.held.is_empty() || suppressed(f.file, c.offset) {
                continue;
            }
            let Some(callee) = model.resolve_call(f, c) else {
                continue;
            };
            for h in &c.held {
                for l in &acquires[callee] {
                    if *h == *l {
                        continue; // cross-instance by default; see module doc
                    }
                    edges.entry((h.clone(), l.clone())).or_insert(EdgeInfo {
                        file: f.file,
                        offset: c.offset,
                        via: Some(format!("{}()", c.name)),
                    });
                }
            }
        }
    }

    // The size of the graph, on every run: refactors that shrink the lock
    // inventory cite these counts, and the CI job log keeps the history.
    let locks: BTreeSet<&LockId> = acquires.iter().flatten().collect();
    eprintln!("lock-order: {} locks, {} edges", locks.len(), edges.len());

    let mut findings = Vec::new();

    // Direct reentrancy.
    let mut seen_self: HashSet<LockId> = HashSet::new();
    for (lock, file, offset) in direct_self {
        if !seen_self.insert(lock.clone()) {
            continue;
        }
        findings.push(finding_at(
            model,
            file,
            offset,
            format!("lock `{lock}` acquired while already held in the same function: a std mutex self-deadlocks on reentry"),
        ));
    }

    // Cycles: adjacency + SCCs (Kosaraju, iterative).
    let nodes: BTreeSet<LockId> = edges
        .keys()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    let index: HashMap<&LockId, usize> = nodes.iter().enumerate().map(|(i, n)| (n, i)).collect();
    let node_list: Vec<&LockId> = nodes.iter().collect();
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        let (ia, ib) = (index[a], index[b]);
        fwd[ia].push(ib);
        rev[ib].push(ia);
    }
    let sccs = kosaraju(&fwd, &rev);
    for scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        let members: BTreeSet<usize> = scc.iter().copied().collect();
        // Reconstruct one concrete cycle inside the SCC for the report.
        let cycle = cycle_through(&fwd, &members, scc[0]);
        let mut desc = String::new();
        let mut first_site = None;
        for w in cycle.windows(2) {
            let (a, b) = (node_list[w[0]].clone(), node_list[w[1]].clone());
            let info = &edges[&(a.clone(), b.clone())];
            let (line, _) = model.files[info.file].line_col(info.offset);
            if first_site.is_none() {
                first_site = Some((info.file, info.offset));
            }
            let via = info
                .via
                .as_ref()
                .map(|v| format!(" via {v}"))
                .unwrap_or_default();
            desc.push_str(&format!(
                "\n    {a} -> {b}{via} at {}:{line}",
                model.files[info.file].path.display()
            ));
        }
        let (file, offset) = first_site.unwrap_or((0, 0));
        findings.push(finding_at(
            model,
            file,
            offset,
            format!(
                "lock-order cycle ({} locks): threads taking these locks in different orders can deadlock{desc}",
                members.len()
            ),
        ));
    }
    findings
}

fn finding_at(model: &Model, file: usize, offset: usize, message: String) -> Finding {
    let f = &model.files[file];
    let (line, col) = f.line_col(offset);
    Finding {
        rule: RULE,
        path: f.path.to_string_lossy().into_owned(),
        line,
        col,
        message,
    }
}

/// Iterative Kosaraju SCC.
fn kosaraju(fwd: &[Vec<usize>], rev: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = fwd.len();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        // Post-order DFS, iterative.
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if *ei < fwd[v].len() {
                let next = fwd[v][*ei];
                *ei += 1;
                if !seen[next] {
                    seen[next] = true;
                    stack.push((next, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut sccs = Vec::new();
    for &start in order.iter().rev() {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = sccs.len();
        let mut members = vec![start];
        comp[start] = id;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for &u in &rev[v] {
                if comp[u] == usize::MAX {
                    comp[u] = id;
                    members.push(u);
                    queue.push_back(u);
                }
            }
        }
        sccs.push(members);
    }
    sccs
}

/// A concrete cycle (node list, first == last) through `start`, staying
/// inside `members`.
fn cycle_through(fwd: &[Vec<usize>], members: &BTreeSet<usize>, start: usize) -> Vec<usize> {
    // BFS from each successor of `start` back to `start`.
    for &first in &fwd[start] {
        if !members.contains(&first) {
            continue;
        }
        if first == start {
            return vec![start, start];
        }
        let mut prev: HashMap<usize, usize> = HashMap::new();
        let mut queue = VecDeque::from([first]);
        prev.insert(first, start);
        while let Some(v) = queue.pop_front() {
            if v == start {
                break;
            }
            for &u in &fwd[v] {
                if members.contains(&u) && !prev.contains_key(&u) {
                    prev.insert(u, v);
                    queue.push_back(u);
                }
            }
        }
        if prev.contains_key(&start) {
            let mut path = vec![start];
            let mut at = start;
            loop {
                at = prev[&at];
                path.push(at);
                if at == start {
                    break;
                }
            }
            path.reverse();
            return path;
        }
    }
    vec![start, start]
}
