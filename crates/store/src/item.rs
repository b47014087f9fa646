//! Interned items: the universal element of annotated transactions.
//!
//! A tuple in an annotated relation (paper Definition 4.1) carries *data
//! values* and *annotations*; generalization (§4.1) adds a third population,
//! *concept labels*. All three are interned into a single 32-bit [`Item`]
//! with a 2-bit namespace tag, so transactions, itemsets, and rules are flat
//! integer slices with no string handling on the hot path.
//!
//! The tag occupies the top bits, which makes plain integer ordering sort
//! data values before raw annotations before labels — exactly the layout the
//! miner wants (LHS data prefix, annotation suffix).

use anno_semiring::Var;

/// The namespace an item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ItemKind {
    /// A data value (cell content) — Definition 4.1's `x_i`.
    Data = 0,
    /// A raw annotation — Definition 4.1's `a_j`.
    Annotation = 1,
    /// A generalization concept label (§4.1), e.g. "Invalidation".
    Label = 2,
}

impl ItemKind {
    /// All namespaces, in tag order.
    pub const ALL: [ItemKind; 3] = [ItemKind::Data, ItemKind::Annotation, ItemKind::Label];
}

const TAG_SHIFT: u32 = 30;
const INDEX_MASK: u32 = (1 << TAG_SHIFT) - 1;

/// An interned item: a data value, raw annotation, or concept label.
///
/// At most `2^30` distinct names per namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item(u32);

impl Item {
    /// Construct an item from a namespace and dense index.
    pub fn new(kind: ItemKind, index: u32) -> Item {
        assert!(index <= INDEX_MASK, "item index overflow: {index}");
        Item(((kind as u32) << TAG_SHIFT) | index)
    }

    /// A data-value item.
    pub fn data(index: u32) -> Item {
        Item::new(ItemKind::Data, index)
    }

    /// A raw-annotation item.
    pub fn annotation(index: u32) -> Item {
        Item::new(ItemKind::Annotation, index)
    }

    /// A concept-label item.
    pub fn label(index: u32) -> Item {
        Item::new(ItemKind::Label, index)
    }

    /// The namespace of this item.
    #[expect(
        clippy::unreachable,
        reason = "the tag is set only by the three constructors, and `from_raw` validates through this match; any other tag is corruption"
    )]
    pub fn kind(self) -> ItemKind {
        match self.0 >> TAG_SHIFT {
            0 => ItemKind::Data,
            1 => ItemKind::Annotation,
            2 => ItemKind::Label,
            tag => unreachable!("corrupt item tag {tag}"),
        }
    }

    /// The dense index within the namespace.
    pub fn index(self) -> u32 {
        self.0 & INDEX_MASK
    }

    /// `true` iff this is a data value.
    pub fn is_data(self) -> bool {
        self.kind() == ItemKind::Data
    }

    /// `true` iff this is a raw annotation or a concept label — the
    /// populations that may appear on the R.H.S. of the paper's rules.
    pub fn is_annotation_like(self) -> bool {
        !self.is_data()
    }

    /// The raw tagged representation (stable across runs for equal interns).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstruct from [`Item::raw`], or `None` if the tag names no
    /// namespace — the check for raw ids read from outside.
    pub fn try_from_raw(raw: u32) -> Option<Item> {
        (raw >> TAG_SHIFT <= ItemKind::Label as u32).then_some(Item(raw))
    }

    /// Reconstruct from [`Item::raw`].
    pub fn from_raw(raw: u32) -> Item {
        let item = Item(raw);
        let _ = item.kind(); // validate tag
        item
    }

    /// The provenance variable standing for this item in semiring-land.
    pub fn as_var(self) -> Var {
        Var(self.0)
    }

    /// Inverse of [`Item::as_var`].
    pub fn from_var(v: Var) -> Item {
        Item::from_raw(v.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_layout_orders_namespaces() {
        let d = Item::data(1000);
        let a = Item::annotation(0);
        let l = Item::label(0);
        assert!(d < a && a < l, "data < annotation < label");
        assert_eq!(d.kind(), ItemKind::Data);
        assert_eq!(a.kind(), ItemKind::Annotation);
        assert_eq!(l.kind(), ItemKind::Label);
        assert_eq!(d.index(), 1000);
    }

    #[test]
    fn annotation_like_covers_annotations_and_labels() {
        assert!(!Item::data(1).is_annotation_like());
        assert!(Item::annotation(1).is_annotation_like());
        assert!(Item::label(1).is_annotation_like());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn index_overflow_is_rejected() {
        let _ = Item::data(1 << 30);
    }

    #[test]
    fn raw_and_var_roundtrip() {
        let a = Item::annotation(77);
        assert_eq!(Item::from_raw(a.raw()), a);
        assert_eq!(Item::from_var(a.as_var()), a);
    }
}
