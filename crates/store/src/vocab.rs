//! Persistent, structurally shared name interner.
//!
//! The paper's annotation model assumes an *open* universe of annotation
//! names (Definition 4.1 never fixes the annotation domain), so real
//! ingest traffic is insert-heavy: most drains bring at least one name
//! the interner has never seen. The old [`Vocabulary`] was a flat
//! `Vec<String>` plus a `HashMap<String, u32>` per namespace — correct,
//! but copy-on-write *as a single unit*: with a published snapshot
//! holding the second `Arc`, the first intern of a drain deep-copied
//! every name ever seen (twice: the vector and the map keys),
//! O(#distinct names) per drain. That was the last whole-structure copy
//! left on the write path after the segment store (PR 2) made tuples and
//! postings delta-cost.
//!
//! This module replaces both halves with persistent structures:
//!
//! * **Name arena** — names live in fixed-capacity ([`VOCAB_CHUNK_CAP`])
//!   chunks behind `Arc`s, append-only. Cloning the arena is O(#chunks)
//!   pointer copies; interning copies at most the shared *tail* chunk
//!   (≤ [`VOCAB_CHUNK_CAP`] strings) once per drain, and fresh chunks are
//!   built in place, never copied. Full (non-tail) chunks are immutable
//!   forever, so every snapshot shares them with the live interner.
//! * **Hash-array-mapped index** — the name → index map is a HAMT keyed
//!   by a 64-bit name hash, 32-way branching, with *indices into the
//!   arena* at the leaves (names are never stored twice). Inserting
//!   path-copies O(log₃₂ N) nodes; lookups walk ≤ 13 levels and compare
//!   candidate names through the arena.
//!
//! Interning N fresh names into a vocabulary shared with a snapshot
//! therefore copies O(N/chunk + touched index nodes) — delta-scale —
//! instead of O(#distinct names). `benches/vocab.rs` measures the
//! difference; `BENCH_vocab.json` records it.
//!
//! Item ids are still assigned densely in interning order, so the
//! relation's binary encoding (which persists names in intern order,
//! `snapshot.rs`) re-interns to byte-identical [`Item`] ids — and with
//! them, identical chunk boundaries — across save/load and WAL replay.

use std::hash::Hasher;
use std::sync::Arc;

use crate::fxhash::FxHasher;
use crate::item::{Item, ItemKind};

/// log2 of [`VOCAB_CHUNK_CAP`]; index → (chunk, offset) is a shift + mask.
pub const VOCAB_CHUNK_BITS: u32 = 8;

/// Names per arena chunk. Small enough that copying one shared tail
/// chunk is delta-scale work; large enough that the spine stays short
/// (#names / 256 pointers).
pub const VOCAB_CHUNK_CAP: usize = 1 << VOCAB_CHUNK_BITS;

const CHUNK_OFFSET_MASK: u32 = (VOCAB_CHUNK_CAP - 1) as u32;

/// Stable, deterministic name hash (FxHasher over the UTF-8 bytes).
/// Determinism matters: WAL replay and snapshot reload must rebuild the
/// same index shape so sharing meters and walk order are reproducible.
fn hash_name(name: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

// ---------------------------------------------------------------------
// Name arena: Arc-chunked, append-only.
// ---------------------------------------------------------------------

/// Append-only string storage in `Arc`-shared fixed-capacity chunks.
/// Only the tail chunk is ever mutated (and therefore ever copied).
#[derive(Debug, Clone, Default)]
struct NameArena {
    chunks: Vec<Arc<Vec<String>>>,
    len: u32,
}

impl NameArena {
    fn len(&self) -> usize {
        self.len as usize
    }

    /// Append a name, returning its dense index. Copies the tail chunk
    /// iff it is shared with a snapshot; full chunks are never touched.
    fn push(&mut self, name: String) -> u32 {
        let idx = self.len;
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < VOCAB_CHUNK_CAP => Arc::make_mut(tail).push(name),
            _ => {
                let mut chunk = Vec::with_capacity(VOCAB_CHUNK_CAP);
                chunk.push(name);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
        idx
    }

    fn get(&self, idx: u32) -> Option<&str> {
        self.chunks
            .get((idx >> VOCAB_CHUNK_BITS) as usize)?
            .get((idx & CHUNK_OFFSET_MASK) as usize)
            .map(String::as_str)
    }

    fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunk positions physically shared (same `Arc`) with `other`.
    fn shared_chunks_with(&self, other: &NameArena) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Approximate heap bytes of one chunk: string headers + string data.
    fn chunk_bytes(chunk: &[String]) -> usize {
        std::mem::size_of_val(chunk) + chunk.iter().map(String::len).sum::<usize>()
    }

    fn heap_bytes(&self) -> usize {
        self.chunks.iter().map(|c| Self::chunk_bytes(c)).sum()
    }

    /// Heap bytes of chunks *not* shared with `other` — what a drain
    /// actually copied since the two diverged.
    fn unshared_bytes_with(&self, other: &NameArena) -> usize {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(i, c)| other.chunks.get(*i).is_none_or(|o| !Arc::ptr_eq(c, o)))
            .map(|(_, c)| Self::chunk_bytes(c))
            .sum()
    }
}

// ---------------------------------------------------------------------
// Persistent hash-array-mapped index.
// ---------------------------------------------------------------------

/// Bits consumed per HAMT level (32-way branching).
const HAMT_BITS: u32 = 5;
const HAMT_MASK: u64 = (1 << HAMT_BITS) - 1;
/// Deepest level start: shifts 0,5,…,60 cover all 64 hash bits, so two
/// distinct hashes always diverge at some shift ≤ 60.
const HAMT_MAX_SHIFT: u32 = 60;

#[derive(Debug)]
enum HamtNode {
    /// Interior node: `bitmap` marks populated 5-bit slots; `children`
    /// holds them densely in slot order.
    Branch {
        bitmap: u32,
        children: Vec<Arc<HamtNode>>,
    },
    /// Arena indices of all names sharing `hash` (full 64-bit collisions
    /// only — names themselves live in the arena, never here).
    Leaf { hash: u64, indices: Vec<u32> },
}

/// Persistent name → arena-index map. `Clone` is one `Arc` bump;
/// inserts path-copy O(depth) nodes and share the rest of the trie.
#[derive(Debug, Clone, Default)]
struct HamtIndex {
    root: Option<Arc<HamtNode>>,
}

impl HamtIndex {
    /// Look up `name` (pre-hashed) by walking the trie and confirming
    /// candidates against the arena.
    fn get(&self, arena: &NameArena, hash: u64, name: &str) -> Option<u32> {
        let mut node = self.root.as_deref()?;
        let mut shift = 0u32;
        loop {
            match node {
                HamtNode::Leaf { hash: h, indices } => {
                    if *h != hash {
                        return None;
                    }
                    return indices
                        .iter()
                        .copied()
                        .find(|&idx| arena.get(idx) == Some(name));
                }
                HamtNode::Branch { bitmap, children } => {
                    let bit = 1u32 << ((hash >> shift) & HAMT_MASK);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    let pos = (bitmap & (bit - 1)).count_ones() as usize;
                    node = &children[pos];
                    shift += HAMT_BITS;
                }
            }
        }
    }

    /// Insert `idx` for a name known to be absent. Path-copies the spine
    /// from the root to the touched leaf; untouched subtrees are shared.
    fn insert(&mut self, hash: u64, idx: u32) {
        self.root = Some(match self.root.take() {
            None => Arc::new(HamtNode::Leaf {
                hash,
                indices: vec![idx],
            }),
            Some(root) => Self::insert_rec(&root, 0, hash, idx),
        });
    }

    fn insert_rec(node: &Arc<HamtNode>, shift: u32, hash: u64, idx: u32) -> Arc<HamtNode> {
        match node.as_ref() {
            HamtNode::Leaf { hash: h, indices } if *h == hash => {
                let mut indices = indices.clone();
                indices.push(idx);
                Arc::new(HamtNode::Leaf { hash, indices })
            }
            HamtNode::Leaf { hash: h, .. } => Self::split(*h, Arc::clone(node), hash, idx, shift),
            HamtNode::Branch { bitmap, children } => {
                let bit = 1u32 << ((hash >> shift) & HAMT_MASK);
                let pos = (bitmap & (bit - 1)).count_ones() as usize;
                let mut children = children.clone();
                if bitmap & bit != 0 {
                    children[pos] = Self::insert_rec(&children[pos], shift + HAMT_BITS, hash, idx);
                    Arc::new(HamtNode::Branch {
                        bitmap: *bitmap,
                        children,
                    })
                } else {
                    children.insert(
                        pos,
                        Arc::new(HamtNode::Leaf {
                            hash,
                            indices: vec![idx],
                        }),
                    );
                    Arc::new(HamtNode::Branch {
                        bitmap: bitmap | bit,
                        children,
                    })
                }
            }
        }
    }

    /// Push an existing leaf and a new entry with a *different* hash down
    /// until their 5-bit slots diverge (guaranteed by shift ≤ 60).
    fn split(
        old_hash: u64,
        old_node: Arc<HamtNode>,
        hash: u64,
        idx: u32,
        shift: u32,
    ) -> Arc<HamtNode> {
        debug_assert_ne!(old_hash, hash, "equal hashes belong in one leaf");
        debug_assert!(shift <= HAMT_MAX_SHIFT, "hashes must diverge by shift 60");
        let old_slot = (old_hash >> shift) & HAMT_MASK;
        let new_slot = (hash >> shift) & HAMT_MASK;
        if old_slot == new_slot {
            let child = Self::split(old_hash, old_node, hash, idx, shift + HAMT_BITS);
            return Arc::new(HamtNode::Branch {
                bitmap: 1u32 << old_slot,
                children: vec![child],
            });
        }
        let new_leaf = Arc::new(HamtNode::Leaf {
            hash,
            indices: vec![idx],
        });
        let (bitmap, children) = if old_slot < new_slot {
            (
                (1u32 << old_slot) | (1u32 << new_slot),
                vec![old_node, new_leaf],
            )
        } else {
            (
                (1u32 << old_slot) | (1u32 << new_slot),
                vec![new_leaf, old_node],
            )
        };
        Arc::new(HamtNode::Branch { bitmap, children })
    }

    fn node_bytes(node: &HamtNode) -> usize {
        std::mem::size_of::<HamtNode>()
            + match node {
                HamtNode::Branch { children, .. } => {
                    children.len() * std::mem::size_of::<Arc<HamtNode>>()
                }
                HamtNode::Leaf { indices, .. } => indices.len() * std::mem::size_of::<u32>(),
            }
    }

    fn heap_bytes(&self) -> usize {
        fn walk(node: &HamtNode) -> usize {
            HamtIndex::node_bytes(node)
                + match node {
                    HamtNode::Branch { children, .. } => children.iter().map(|c| walk(c)).sum(),
                    HamtNode::Leaf { .. } => 0,
                }
        }
        self.root.as_deref().map_or(0, walk)
    }

    /// Heap bytes of nodes *not* physically shared with `other` — the
    /// path copies an insert sequence actually paid. Matching subtrees
    /// are compared by `Arc` identity, so shared structure costs nothing
    /// to skip.
    fn unshared_bytes_with(&self, other: &HamtIndex) -> usize {
        fn walk(a: &Arc<HamtNode>, b: Option<&Arc<HamtNode>>) -> usize {
            if let Some(b) = b {
                if Arc::ptr_eq(a, b) {
                    return 0;
                }
            }
            let own = HamtIndex::node_bytes(a);
            match (a.as_ref(), b.map(Arc::as_ref)) {
                (
                    HamtNode::Branch { bitmap, children },
                    Some(HamtNode::Branch {
                        bitmap: ob,
                        children: oc,
                    }),
                ) => {
                    // Match children by slot through both bitmaps.
                    let mut sum = own;
                    for slot in 0..32u32 {
                        let bit = 1u32 << slot;
                        if bitmap & bit == 0 {
                            continue;
                        }
                        let pos = (bitmap & (bit - 1)).count_ones() as usize;
                        let opos = (ob & (bit - 1)).count_ones() as usize;
                        let peer = (ob & bit != 0).then(|| &oc[opos]);
                        sum += walk(&children[pos], peer);
                    }
                    sum
                }
                (HamtNode::Branch { children, .. }, _) => {
                    own + children.iter().map(|c| walk(c, None)).sum::<usize>()
                }
                (HamtNode::Leaf { .. }, _) => own,
            }
        }
        match (&self.root, &other.root) {
            (Some(a), b) => walk(a, b.as_ref()),
            (None, _) => 0,
        }
    }
}

// ---------------------------------------------------------------------
// The vocabulary: one (arena, index) pair per namespace.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Namespace {
    arena: NameArena,
    index: HamtIndex,
}

impl Namespace {
    fn get(&self, name: &str) -> Option<u32> {
        self.index.get(&self.arena, hash_name(name), name)
    }

    fn intern(&mut self, name: &str) -> u32 {
        let hash = hash_name(name);
        if let Some(idx) = self.index.get(&self.arena, hash, name) {
            return idx;
        }
        let idx = self.arena.push(name.to_owned());
        self.index.insert(hash, idx);
        idx
    }
}

/// Bidirectional name ↔ [`Item`] interner, one table per namespace.
///
/// `Clone` is the snapshot operation: O(#chunks) `Arc` bumps for the
/// arenas plus one per index root. A clone and its origin then diverge
/// chunk-by-chunk and node-by-node as fresh names are interned — full
/// arena chunks and untouched index subtrees stay physically shared
/// forever, which is what makes insert-heavy drains delta-proportional
/// (see the module docs and [`Vocabulary::shared_chunks_with`]).
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    namespaces: [Namespace; 3],
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Intern `name` in `kind`'s namespace, returning the (new or existing)
    /// item. Ids are dense and assigned in interning order.
    pub fn intern(&mut self, kind: ItemKind, name: &str) -> Item {
        let idx = self.namespaces[kind as usize].intern(name);
        assert!(idx < (1 << 30), "vocabulary overflow in namespace {kind:?}");
        Item::new(kind, idx)
    }

    /// Intern a data value.
    pub fn data(&mut self, name: &str) -> Item {
        self.intern(ItemKind::Data, name)
    }

    /// Intern a raw annotation.
    pub fn annotation(&mut self, name: &str) -> Item {
        self.intern(ItemKind::Annotation, name)
    }

    /// Intern a concept label.
    pub fn label(&mut self, name: &str) -> Item {
        self.intern(ItemKind::Label, name)
    }

    /// Look up an existing item by name without interning. Read-only:
    /// never copies any shared structure.
    pub fn get(&self, kind: ItemKind, name: &str) -> Option<Item> {
        self.namespaces[kind as usize]
            .get(name)
            .map(|idx| Item::new(kind, idx))
    }

    /// The name of an item. Panics on an item from a different vocabulary
    /// with an out-of-range index.
    #[expect(
        clippy::expect_used,
        reason = "documented contract: items come from this vocabulary"
    )]
    pub fn name(&self, item: Item) -> &str {
        self.namespaces[item.kind() as usize]
            .arena
            .get(item.index())
            .expect("item index beyond this vocabulary")
    }

    /// `true` iff `item` was interned here, so [`Vocabulary::name`]
    /// resolves it.
    pub fn contains(&self, item: Item) -> bool {
        (item.index() as usize) < self.count(item.kind())
    }

    /// Number of interned names in a namespace.
    pub fn count(&self, kind: ItemKind) -> usize {
        self.namespaces[kind as usize].arena.len()
    }

    /// Iterate all items of a namespace in interning order.
    pub fn items(&self, kind: ItemKind) -> impl Iterator<Item = Item> + '_ {
        (0..self.count(kind) as u32).map(move |i| Item::new(kind, i))
    }

    /// Render a slice of items as a human-readable list.
    pub fn render(&self, items: &[Item]) -> String {
        let mut out = String::new();
        for (i, &item) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(self.name(item));
        }
        out
    }

    // -- structural-sharing meters ------------------------------------

    /// Arena chunks in `kind`'s namespace.
    pub fn chunk_count(&self, kind: ItemKind) -> usize {
        self.namespaces[kind as usize].arena.chunk_count()
    }

    /// Arena chunks across all namespaces.
    pub fn total_chunks(&self) -> usize {
        ItemKind::ALL.iter().map(|&k| self.chunk_count(k)).sum()
    }

    /// How many arena chunks `self` physically shares (same `Arc`) with
    /// `other`, across all namespaces — the chunk-level sharing meter.
    /// A fresh clone shares everything; interning unshares at most the
    /// tail chunk per touched namespace, so after any drain
    /// `shared ≥ full (non-tail) chunks of the pre-drain snapshot`.
    pub fn shared_chunks_with(&self, other: &Vocabulary) -> usize {
        self.namespaces
            .iter()
            .zip(&other.namespaces)
            .map(|(a, b)| a.arena.shared_chunks_with(&b.arena))
            .sum()
    }

    /// Chunks of `kind`'s namespace physically shared with `other`.
    pub fn shared_chunks_with_kind(&self, kind: ItemKind, other: &Vocabulary) -> usize {
        self.namespaces[kind as usize]
            .arena
            .shared_chunks_with(&other.namespaces[kind as usize].arena)
    }

    /// Approximate heap footprint: arena chunks (headers + name bytes)
    /// plus index nodes. This is what a monolithic copy-on-write
    /// interner would copy *per insert-heavy drain*.
    pub fn approx_heap_bytes(&self) -> usize {
        self.namespaces
            .iter()
            .map(|ns| ns.arena.heap_bytes() + ns.index.heap_bytes())
            .sum()
    }

    /// Approximate heap bytes of structure *not* shared with `other`:
    /// unshared arena chunks plus unshared index nodes. After a drain
    /// against a pre-drain snapshot, this is what the drain actually
    /// copied or built — the delta-proportionality claim in bytes
    /// (`benches/vocab.rs` records it in `BENCH_vocab.json`).
    pub fn unshared_bytes_with(&self, other: &Vocabulary) -> usize {
        self.namespaces
            .iter()
            .zip(&other.namespaces)
            .map(|(a, b)| {
                a.arena.unshared_bytes_with(&b.arena) + a.index.unshared_bytes_with(&b.index)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        let a1 = v.annotation("Annot_1");
        let a2 = v.annotation("Annot_1");
        assert_eq!(a1, a2);
        assert_eq!(v.count(ItemKind::Annotation), 1);
        assert_eq!(v.name(a1), "Annot_1");
    }

    #[test]
    fn namespaces_are_disjoint() {
        let mut v = Vocabulary::new();
        let d = v.data("42");
        let a = v.annotation("42");
        assert_ne!(d, a);
        assert_eq!(v.name(d), "42");
        assert_eq!(v.name(a), "42");
    }

    #[test]
    fn get_does_not_intern() {
        let mut v = Vocabulary::new();
        assert_eq!(v.get(ItemKind::Data, "x"), None);
        let d = v.data("x");
        assert_eq!(v.get(ItemKind::Data, "x"), Some(d));
    }

    #[test]
    fn items_iterates_in_interning_order() {
        let mut v = Vocabulary::new();
        let a = v.annotation("a");
        let b = v.annotation("b");
        assert_eq!(
            v.items(ItemKind::Annotation).collect::<Vec<_>>(),
            vec![a, b]
        );
    }

    #[test]
    fn render_joins_names() {
        let mut v = Vocabulary::new();
        let x = v.data("28");
        let a = v.annotation("Annot_1");
        assert_eq!(v.render(&[x, a]), "28, Annot_1");
    }

    #[test]
    fn dense_ids_across_chunk_boundaries() {
        let mut v = Vocabulary::new();
        let n = VOCAB_CHUNK_CAP * 2 + 17;
        for i in 0..n {
            let item = v.annotation(&format!("name_{i}"));
            assert_eq!(item.index() as usize, i, "ids are dense in intern order");
        }
        assert_eq!(v.count(ItemKind::Annotation), n);
        assert_eq!(v.chunk_count(ItemKind::Annotation), 3);
        // Every name resolves both ways.
        for i in (0..n).step_by(97) {
            let name = format!("name_{i}");
            let item = v.get(ItemKind::Annotation, &name).unwrap();
            assert_eq!(item.index() as usize, i);
            assert_eq!(v.name(item), name);
        }
    }

    #[test]
    fn clone_shares_all_chunks_until_interned() {
        let mut v = Vocabulary::new();
        for i in 0..(VOCAB_CHUNK_CAP + 10) {
            v.annotation(&format!("a{i}"));
        }
        let snap = v.clone();
        assert_eq!(v.shared_chunks_with(&snap), 2, "fresh clone shares all");
        assert_eq!(v.unshared_bytes_with(&snap), 0);

        // Looking up existing names never unshares anything.
        assert!(v.get(ItemKind::Annotation, "a3").is_some());
        let mut w = v.clone();
        let known = w.annotation("a3");
        assert_eq!(known, v.get(ItemKind::Annotation, "a3").unwrap());
        assert_eq!(w.shared_chunks_with(&v), 2, "re-intern is read-only");

        // A fresh name copies only the partial tail chunk.
        v.annotation("fresh");
        assert_eq!(
            v.shared_chunks_with(&snap),
            1,
            "full chunk stays shared, tail copied"
        );
        // The snapshot's view never moves.
        assert!(snap.get(ItemKind::Annotation, "fresh").is_none());
        assert_eq!(snap.count(ItemKind::Annotation), VOCAB_CHUNK_CAP + 10);

        // Copied bytes are bounded by the tail chunk + index path, far
        // below the whole interner.
        let copied = v.unshared_bytes_with(&snap);
        assert!(copied > 0);
        assert!(
            copied < v.approx_heap_bytes() / 4,
            "copied {copied} bytes must be a small fraction of {}",
            v.approx_heap_bytes()
        );
    }

    #[test]
    fn full_chunks_survive_many_drains() {
        let mut v = Vocabulary::new();
        for i in 0..(VOCAB_CHUNK_CAP * 3) {
            v.data(&i.to_string());
        }
        let snap = v.clone();
        // Three insert-heavy "drains", each interning a fresh batch.
        for round in 0..3 {
            for i in 0..40 {
                v.data(&format!("fresh_{round}_{i}"));
            }
        }
        // All three full pre-drain chunks are still shared; only the
        // chunks appended after the snapshot differ.
        assert_eq!(v.shared_chunks_with(&snap), 3);
        v.check_shared_prefix(&snap);
    }

    #[test]
    fn hash_collisions_resolve_through_the_arena() {
        // Dense interning never unhashes a name incorrectly: every one of
        // many names resolves both ways through the trie + arena.
        let mut v = Vocabulary::new();
        let names: Vec<String> = (0..2000).map(|i| format!("n{i}")).collect();
        let items: Vec<Item> = names.iter().map(|n| v.label(n)).collect();
        for (name, &item) in names.iter().zip(&items) {
            assert_eq!(v.get(ItemKind::Label, name), Some(item));
            assert_eq!(v.name(item), name);
        }
        assert_eq!(v.get(ItemKind::Label, "absent"), None);
    }

    #[test]
    fn forced_full_hash_collisions_share_a_leaf_and_disambiguate() {
        // A genuine 64-bit FxHash collision is unconstructable by hand,
        // but `HamtIndex` takes the hash as a parameter — so force one
        // and exercise the multi-index leaf arms directly: the
        // equal-hash insert (leaf grows) and the lookup that must
        // compare candidate names through the arena.
        let mut arena = NameArena::default();
        let alpha = arena.push("alpha".to_owned());
        let beta = arena.push("beta".to_owned());
        let mut index = HamtIndex::default();
        let h = 0xDEAD_BEEF_DEAD_BEEFu64;
        index.insert(h, alpha);
        index.insert(h, beta);
        assert_eq!(index.get(&arena, h, "alpha"), Some(alpha));
        assert_eq!(index.get(&arena, h, "beta"), Some(beta));
        assert_eq!(index.get(&arena, h, "gamma"), None, "same hash, no name");

        // A different hash landing in the same 5-bit slots for several
        // levels forces the deep split path; both survive.
        let deep = arena.push("deep".to_owned());
        index.insert(h ^ (1 << 62), deep);
        assert_eq!(index.get(&arena, h ^ (1 << 62), "deep"), Some(deep));
        assert_eq!(index.get(&arena, h, "alpha"), Some(alpha));

        // The collision leaf is copied, not shared, when grown again
        // after a snapshot — and the snapshot's view never moves.
        let snap = index.clone();
        let gamma = arena.push("gamma".to_owned());
        index.insert(h, gamma);
        assert_eq!(index.get(&arena, h, "gamma"), Some(gamma));
        assert_eq!(snap.get(&arena, h, "gamma"), None);
        assert_eq!(snap.get(&arena, h, "beta"), Some(beta));
    }

    #[test]
    fn unshared_bytes_against_disjoint_vocab_counts_everything() {
        let mut a = Vocabulary::new();
        let mut b = Vocabulary::new();
        for i in 0..100 {
            a.annotation(&format!("a{i}"));
            b.annotation(&format!("b{i}"));
        }
        assert_eq!(a.shared_chunks_with(&b), 0);
        assert_eq!(a.unshared_bytes_with(&b), a.approx_heap_bytes());
    }

    impl Vocabulary {
        /// Test helper: ids in the shared prefix resolve identically in
        /// both vocabularies.
        fn check_shared_prefix(&self, snap: &Vocabulary) {
            for kind in ItemKind::ALL {
                for item in snap.items(kind) {
                    assert_eq!(self.name(item), snap.name(item), "{item:?} diverged");
                }
            }
        }
    }
}
