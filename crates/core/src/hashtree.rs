//! The Agrawal–Srikant hash tree for candidate support counting.
//!
//! Fig. 3 of the paper: "the algorithm uses breadth-first search and a hash
//! tree structure to count candidate item sets". Interior nodes hash the
//! transaction item at the current depth into a fixed fan-out; leaves hold
//! small candidate vectors that are checked by merge-walk. Counting a
//! transaction visits only the subtrees its own items hash into, which is
//! the structure's entire point.

use anno_store::Item;

use crate::itemset::ItemSet;

const FANOUT: usize = 8;
const LEAF_CAPACITY: usize = 24;

#[derive(Debug)]
enum Node {
    Leaf(Vec<usize>),
    Interior(Box<[Node; FANOUT]>),
}

impl Node {
    fn empty_leaf() -> Node {
        Node::Leaf(Vec::new())
    }
}

fn bucket(item: Item) -> usize {
    // Multiply-shift on the raw id: items are dense per namespace, so the
    // golden-ratio multiplier spreads consecutive ids across buckets.
    (item.raw().wrapping_mul(0x9E37_79B9) >> 16) as usize % FANOUT
}

/// A hash tree over equal-length candidate itemsets, with per-candidate
/// support counters.
#[derive(Debug)]
pub struct HashTree {
    root: Node,
    candidates: Vec<ItemSet>,
    counts: Vec<u64>,
    k: usize,
}

impl HashTree {
    /// Build a tree over `candidates`, all of which must have length `k`.
    pub fn new(candidates: Vec<ItemSet>, k: usize) -> HashTree {
        assert!(k > 0, "hash tree requires non-empty candidates");
        debug_assert!(candidates.iter().all(|c| c.len() == k));
        let mut tree = HashTree {
            root: Node::empty_leaf(),
            counts: vec![0; candidates.len()],
            candidates,
            k,
        };
        for idx in 0..tree.candidates.len() {
            Self::insert(&mut tree.root, &tree.candidates, idx, 0, tree.k);
        }
        tree
    }

    fn insert(node: &mut Node, candidates: &[ItemSet], idx: usize, depth: usize, k: usize) {
        match node {
            Node::Interior(children) => {
                let item = candidates[idx].items()[depth];
                Self::insert(&mut children[bucket(item)], candidates, idx, depth + 1, k);
            }
            Node::Leaf(slots) => {
                slots.push(idx);
                // Split overfull leaves while there are items left to hash.
                if slots.len() > LEAF_CAPACITY && depth < k {
                    let mut leaves: [Vec<usize>; FANOUT] = std::array::from_fn(|_| Vec::new());
                    for i in std::mem::take(slots) {
                        leaves[bucket(candidates[i].items()[depth])].push(i);
                    }
                    *node = Node::Interior(Box::new(leaves.map(Node::Leaf)));
                }
            }
        }
    }

    /// Count one transaction (sorted item slice) against all candidates it
    /// contains.
    pub fn count_transaction(&mut self, transaction: &[Item]) {
        if transaction.len() < self.k {
            return;
        }
        // Recursive descent: at depth d we may choose any not-yet-consumed
        // item as the d-th hashed item, mirroring subset choice. Leaves
        // verify candidates against the FULL transaction — the descent only
        // has to *reach* every leaf that might contain a match, and taking
        // the earliest position per bucket at each level guarantees that
        // (later positions only ever see a subset of the remaining items).
        Self::descend(
            &self.root,
            transaction,
            0,
            0,
            self.k,
            &self.candidates,
            &mut self.counts,
        );
    }

    fn descend(
        node: &Node,
        transaction: &[Item],
        start: usize,
        depth: usize,
        k: usize,
        candidates: &[ItemSet],
        counts: &mut [u64],
    ) {
        match node {
            Node::Leaf(slots) => {
                for &idx in slots {
                    if candidates[idx].is_subset_of(transaction) {
                        counts[idx] += 1;
                    }
                }
            }
            Node::Interior(children) => {
                // Need k - depth more items; positions must leave enough
                // suffix for the remaining hashes.
                let remaining = k - depth;
                if transaction.len() < start + remaining {
                    return;
                }
                let limit = transaction.len() - remaining;
                let mut visited = [false; FANOUT];
                for pos in start..=limit {
                    let b = bucket(transaction[pos]);
                    if visited[b] {
                        continue; // already descended via an earlier position
                    }
                    visited[b] = true;
                    Self::descend(
                        &children[b],
                        transaction,
                        pos + 1,
                        depth + 1,
                        k,
                        candidates,
                        counts,
                    );
                }
            }
        }
    }

    /// Consume the tree, returning `(candidate, support_count)` pairs.
    pub fn into_counts(self) -> Vec<(ItemSet, u64)> {
        self.candidates.into_iter().zip(self.counts).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> Item {
        Item::data(i)
    }

    fn set(items: &[u32]) -> ItemSet {
        ItemSet::from_unsorted(items.iter().copied().map(d).collect())
    }

    fn brute_force(candidates: &[ItemSet], transactions: &[Vec<Item>]) -> Vec<u64> {
        candidates
            .iter()
            .map(|c| transactions.iter().filter(|t| c.is_subset_of(t)).count() as u64)
            .collect()
    }

    #[test]
    fn counts_match_brute_force_small() {
        let candidates = vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3]), set(&[4, 5])];
        let transactions: Vec<Vec<Item>> = vec![
            vec![d(1), d(2), d(3)],
            vec![d(1), d(3)],
            vec![d(4), d(5)],
            vec![d(2)],
        ];
        let mut tree = HashTree::new(candidates.clone(), 2);
        for t in &transactions {
            tree.count_transaction(t);
        }
        let counts: Vec<u64> = tree.into_counts().into_iter().map(|(_, c)| c).collect();
        assert_eq!(counts, brute_force(&candidates, &transactions));
    }

    #[test]
    fn counts_match_brute_force_randomised() {
        // Deterministic pseudo-random stress: enough candidates to force
        // leaf splits at several depths.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let k = 3;
        let mut candidates: Vec<ItemSet> = Vec::new();
        while candidates.len() < 300 {
            let s = set(&[next() % 30, next() % 30, next() % 30]);
            if s.len() == k && !candidates.contains(&s) {
                candidates.push(s);
            }
        }
        let transactions: Vec<Vec<Item>> = (0..200)
            .map(|_| {
                let mut items: Vec<Item> = (0..(3 + next() % 8)).map(|_| d(next() % 30)).collect();
                items.sort_unstable();
                items.dedup();
                items
            })
            .collect();
        let mut tree = HashTree::new(candidates.clone(), k);
        for t in &transactions {
            tree.count_transaction(t);
        }
        let counts: Vec<u64> = tree.into_counts().into_iter().map(|(_, c)| c).collect();
        assert_eq!(counts, brute_force(&candidates, &transactions));
    }

    #[test]
    fn short_transactions_are_skipped() {
        let mut tree = HashTree::new(vec![set(&[1, 2, 3])], 3);
        tree.count_transaction(&[d(1), d(2)]);
        assert_eq!(tree.into_counts()[0].1, 0);
    }

    #[test]
    fn single_item_candidates() {
        let mut tree = HashTree::new(vec![set(&[1]), set(&[2])], 1);
        tree.count_transaction(&[d(1), d(3)]);
        tree.count_transaction(&[d(1), d(2)]);
        let counts: Vec<u64> = tree.into_counts().into_iter().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![2, 1]);
    }
}
