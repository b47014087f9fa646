//! Annotated tuples (paper Definition 4.1).
//!
//! A tuple `r = ⟨x1 … xn, a1 … ak⟩` holds `n` data values and a variable
//! number of annotations. Internally both live in a single sorted,
//! deduplicated `Vec<Item>`; the namespace tag in [`Item`] sorts all data
//! values before all annotation-like items, so the data prefix and
//! annotation suffix are recoverable in O(log n) via partition point.

use crate::item::Item;

/// Dense identifier of a tuple within one [`AnnotatedRelation`].
///
/// [`AnnotatedRelation`]: crate::relation::AnnotatedRelation
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u32);

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An annotated tuple: sorted, deduplicated items (data values first,
/// annotation-like items after).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Tuple {
    items: Vec<Item>,
}

impl Tuple {
    /// Build a tuple from arbitrary (unsorted, possibly duplicated) items.
    pub fn from_items(mut items: Vec<Item>) -> Tuple {
        items.sort_unstable();
        items.dedup();
        Tuple { items }
    }

    /// Build a tuple from separate data values and annotations.
    pub fn new<D, A>(data: D, annotations: A) -> Tuple
    where
        D: IntoIterator<Item = Item>,
        A: IntoIterator<Item = Item>,
    {
        let mut items: Vec<Item> = data.into_iter().collect();
        items.extend(annotations);
        debug_assert!(items.iter().all(|i| i.is_data() || i.is_annotation_like()),);
        Tuple::from_items(items)
    }

    /// All items (the mining *transaction*): sorted and deduplicated.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The data-value prefix.
    pub fn data(&self) -> &[Item] {
        &self.items[..self.annotation_boundary()]
    }

    /// The annotation-like suffix (raw annotations and labels).
    pub fn annotations(&self) -> &[Item] {
        &self.items[self.annotation_boundary()..]
    }

    fn annotation_boundary(&self) -> usize {
        self.items.partition_point(|i| i.is_data())
    }

    /// `true` iff the tuple carries no annotations (an *un-annotated*
    /// tuple, paper §4.3 Case 2).
    pub fn is_unannotated(&self) -> bool {
        self.annotations().is_empty()
    }

    /// Membership test (O(log n)).
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// `true` iff every item of the sorted slice `pattern` occurs in this
    /// tuple. `pattern` **must** be sorted; itemsets produced by the miner
    /// always are. Runs as a linear merge-walk.
    pub fn contains_all(&self, pattern: &[Item]) -> bool {
        debug_assert!(
            pattern.windows(2).all(|w| w[0] < w[1]),
            "pattern must be sorted"
        );
        let mut mine = self.items.iter();
        'outer: for want in pattern {
            for have in mine.by_ref() {
                match have.cmp(want) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Add an annotation-like item. Returns `false` (and leaves the tuple
    /// unchanged) if it was already present — "a data tuple can have a given
    /// label at most once" (paper §4.1.1).
    pub(crate) fn add_annotation(&mut self, ann: Item) -> bool {
        assert!(
            ann.is_annotation_like(),
            "cannot annotate with a data value"
        );
        match self.items.binary_search(&ann) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, ann);
                true
            }
        }
    }

    /// Remove an annotation-like item. Returns `false` if absent.
    pub(crate) fn remove_annotation(&mut self, ann: Item) -> bool {
        assert!(
            ann.is_annotation_like(),
            "cannot remove a data value as an annotation"
        );
        match self.items.binary_search(&ann) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

impl FromIterator<Item> for Tuple {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        Tuple::from_items(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[u32], anns: &[u32]) -> Tuple {
        Tuple::new(
            data.iter().map(|&d| Item::data(d)),
            anns.iter().map(|&a| Item::annotation(a)),
        )
    }

    #[test]
    fn items_are_sorted_and_deduplicated() {
        let tup = Tuple::from_items(vec![
            Item::annotation(1),
            Item::data(9),
            Item::data(2),
            Item::data(9),
        ]);
        assert_eq!(
            tup.items(),
            &[Item::data(2), Item::data(9), Item::annotation(1)]
        );
    }

    #[test]
    fn data_and_annotation_partition() {
        let tup = t(&[5, 1], &[2, 0]);
        assert_eq!(tup.data(), &[Item::data(1), Item::data(5)]);
        assert_eq!(
            tup.annotations(),
            &[Item::annotation(0), Item::annotation(2)]
        );
        assert!(!tup.is_unannotated());
        assert!(t(&[1], &[]).is_unannotated());
    }

    #[test]
    fn labels_count_as_annotations() {
        let tup = Tuple::new([Item::data(1)], [Item::label(3)]);
        assert_eq!(tup.annotations(), &[Item::label(3)]);
    }

    #[test]
    fn contains_and_contains_all() {
        let tup = t(&[1, 5, 9], &[2]);
        assert!(tup.contains(Item::data(5)));
        assert!(!tup.contains(Item::data(4)));
        assert!(tup.contains_all(&[Item::data(1), Item::data(9)]));
        assert!(tup.contains_all(&[Item::data(5), Item::annotation(2)]));
        assert!(!tup.contains_all(&[Item::data(1), Item::data(2)]));
        assert!(tup.contains_all(&[]));
    }

    #[test]
    fn add_annotation_is_set_semantics() {
        let mut tup = t(&[1], &[]);
        assert!(tup.add_annotation(Item::annotation(7)));
        assert!(!tup.add_annotation(Item::annotation(7)));
        assert_eq!(tup.annotations().len(), 1);
    }

    #[test]
    fn remove_annotation() {
        let mut tup = t(&[1], &[7]);
        assert!(tup.remove_annotation(Item::annotation(7)));
        assert!(!tup.remove_annotation(Item::annotation(7)));
        assert!(tup.is_unannotated());
    }

    #[test]
    #[should_panic(expected = "cannot annotate")]
    fn data_values_cannot_be_added_as_annotations() {
        let mut tup = t(&[1], &[]);
        tup.add_annotation(Item::data(2));
    }
}
