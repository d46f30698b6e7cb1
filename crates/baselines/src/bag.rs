//! The Leiserson–Schardl *bag* data structure (SPAA'10, §3).
//!
//! A **pennant** is a tree of `2^k` nodes whose root has exactly one
//! child, that child being the root of a complete binary tree of
//! `2^k − 1` nodes. Two pennants of equal size merge into one of twice
//! the size in O(1) (`union`), and the inverse `split` halves one in
//! O(1).
//!
//! A **bag** is a sparse array (*spine*) of pennants, at most one of each
//! size `2^k` — the binary-counter representation of its element count.
//! Insertion is binary increment (amortized O(1)), bag-union is binary
//! addition (O(log n)), bag-split is a right-shift (O(log n)).
//!
//! PBFS traverses a layer bag by handing each pennant to the fork-join
//! scheduler, recursively splitting large pennants into their two
//! complete subtrees.

use obfs_graph::VertexId;

/// A node of a pennant's binary tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PennantNode {
    /// The stored vertex.
    pub value: VertexId,
    /// Left subtree.
    pub left: Option<Box<PennantNode>>,
    /// Right subtree.
    pub right: Option<Box<PennantNode>>,
}

impl PennantNode {
    fn leaf(value: VertexId) -> Box<PennantNode> {
        Box::new(PennantNode { value, left: None, right: None })
    }

    /// Walk the subtree, invoking `f` on every value.
    pub fn for_each(&self, f: &mut impl FnMut(VertexId)) {
        f(self.value);
        if let Some(l) = &self.left {
            l.for_each(f);
        }
        if let Some(r) = &self.right {
            r.for_each(f);
        }
    }
}

/// A pennant of exactly `2^k` elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pennant {
    root: Box<PennantNode>,
    k: u32,
}

impl Pennant {
    /// Singleton pennant (`k = 0`).
    pub fn singleton(value: VertexId) -> Self {
        Self { root: PennantNode::leaf(value), k: 0 }
    }

    /// `log2` of the element count.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Element count (`2^k`).
    pub fn len(&self) -> usize {
        1usize << self.k
    }

    /// Always false: a pennant holds at least its root.
    pub fn is_empty(&self) -> bool {
        false // a pennant always holds at least its root
    }

    /// O(1) union of two equal-size pennants (SPAA'10 Fig. 2):
    /// `y` becomes the new left child of `x`'s root, inheriting `x`'s old
    /// child as its right subtree.
    pub fn union(mut x: Pennant, mut y: Pennant) -> Pennant {
        assert_eq!(x.k, y.k, "pennant union requires equal sizes");
        y.root.right = x.root.left.take();
        x.root.left = Some(y.root);
        x.k += 1;
        x
    }

    /// O(1) inverse of [`Pennant::union`]: halves this pennant, returning
    /// the detached half. Panics on a singleton.
    pub fn split(&mut self) -> Pennant {
        assert!(self.k > 0, "cannot split a singleton pennant");
        let mut y = self.root.left.take().expect("non-singleton pennant must have a child");
        self.root.left = y.right.take();
        self.k -= 1;
        Pennant { root: y, k: self.k }
    }

    /// Visit every element.
    pub fn for_each(&self, mut f: impl FnMut(VertexId)) {
        self.root.for_each(&mut f);
    }

    /// Consume into the root node (for task-parallel traversal) together
    /// with `k`.
    pub fn into_parts(self) -> (Box<PennantNode>, u32) {
        (self.root, self.k)
    }

    /// Collect elements into a vector (test helper).
    pub fn to_vec(&self) -> Vec<VertexId> {
        let mut v = Vec::with_capacity(self.len());
        self.for_each(|x| v.push(x));
        v
    }
}

/// A bag of vertices: at most one pennant per size class.
#[derive(Debug, Clone, Default)]
pub struct Bag {
    spine: Vec<Option<Pennant>>,
}

impl Bag {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements (sum of pennant sizes).
    pub fn len(&self) -> usize {
        self.spine.iter().enumerate().filter_map(|(k, s)| s.as_ref().map(|_| 1usize << k)).sum()
    }

    /// True when the bag holds no elements.
    pub fn is_empty(&self) -> bool {
        self.spine.iter().all(|s| s.is_none())
    }

    /// Binary-increment insertion: carry equal-size pennants upward.
    pub fn insert(&mut self, value: VertexId) {
        let mut carry = Pennant::singleton(value);
        let mut k = 0usize;
        loop {
            if k == self.spine.len() {
                self.spine.push(Some(carry));
                return;
            }
            match self.spine[k].take() {
                None => {
                    self.spine[k] = Some(carry);
                    return;
                }
                Some(existing) => {
                    carry = Pennant::union(existing, carry);
                    k += 1;
                }
            }
        }
    }

    /// Binary-addition union: merge `other` into `self` in O(log n).
    pub fn union(&mut self, other: Bag) {
        let max_len = self.spine.len().max(other.spine.len());
        self.spine.resize_with(max_len, || None);
        let mut other_spine = other.spine;
        other_spine.resize_with(max_len, || None);
        let mut carry: Option<Pennant> = None;
        for (a_slot, b_slot) in self.spine.iter_mut().zip(other_spine.iter_mut()) {
            let a = a_slot.take();
            let b = b_slot.take();
            let (res, new_carry) = full_adder(a, b, carry);
            *a_slot = res;
            carry = new_carry;
        }
        if let Some(c) = carry {
            self.spine.push(Some(c));
        }
    }

    /// Bag-split (SPAA'10 Fig. 4): right-shift the spine, splitting each
    /// pennant in half. `self` keeps one half; the returned bag gets the
    /// other. A leftover singleton (the former `2^0` pennant) stays in
    /// `self`, making the split sizes differ by at most one.
    pub fn split(&mut self) -> Bag {
        if self.spine.is_empty() {
            return Bag::new();
        }
        let leftover = self.spine[0].take();
        let mut other = Bag { spine: Vec::with_capacity(self.spine.len()) };
        for k in 1..self.spine.len() {
            match self.spine[k].take() {
                None => {
                    self.spine[k - 1] = None;
                    other.spine.push(None);
                }
                Some(mut p) => {
                    let half = p.split();
                    self.spine[k - 1] = Some(p);
                    other.spine.push(Some(half));
                }
            }
        }
        if let Some(l) = self.spine.last() {
            if l.is_none() {
                self.spine.pop();
            }
        }
        if let Some(single) = leftover {
            // Re-insert the odd element.
            let mut k = 0;
            let mut carry = single;
            loop {
                if k == self.spine.len() {
                    self.spine.push(Some(carry));
                    break;
                }
                match self.spine[k].take() {
                    None => {
                        self.spine[k] = Some(carry);
                        break;
                    }
                    Some(e) => {
                        carry = Pennant::union(e, carry);
                        k += 1;
                    }
                }
            }
        }
        other
    }

    /// Visit every element.
    pub fn for_each(&self, mut f: impl FnMut(VertexId)) {
        for p in self.spine.iter().flatten() {
            p.for_each(&mut f);
        }
    }

    /// Drain the spine's pennants (for task-parallel layer processing).
    pub fn take_pennants(&mut self) -> Vec<Pennant> {
        self.spine.drain(..).flatten().collect()
    }

    /// Collect into a sorted vector (test helper).
    pub fn to_sorted_vec(&self) -> Vec<VertexId> {
        let mut v = Vec::with_capacity(self.len());
        self.for_each(|x| v.push(x));
        v.sort_unstable();
        v
    }
}

/// One column of the binary addition in [`Bag::union`].
fn full_adder(
    a: Option<Pennant>,
    b: Option<Pennant>,
    carry: Option<Pennant>,
) -> (Option<Pennant>, Option<Pennant>) {
    match (a, b, carry) {
        (None, None, None) => (None, None),
        (Some(x), None, None) | (None, Some(x), None) | (None, None, Some(x)) => (Some(x), None),
        (Some(x), Some(y), None) | (Some(x), None, Some(y)) | (None, Some(x), Some(y)) => {
            (None, Some(Pennant::union(x, y)))
        }
        (Some(x), Some(y), Some(z)) => (Some(z), Some(Pennant::union(x, y))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structural_ok(p: &Pennant) -> bool {
        // A pennant of 2^k nodes: root has only a left child, which roots
        // a complete binary tree of 2^k - 1 nodes.
        fn complete_size(n: &PennantNode) -> Option<usize> {
            let l = n.left.as_ref().map_or(Some(0), |c| complete_size(c))?;
            let r = n.right.as_ref().map_or(Some(0), |c| complete_size(c))?;
            // complete trees here are the "full binomial" shape produced
            // by unions: left subtree has one more level than right.
            Some(1 + l + r)
        }
        if p.root.right.is_some() {
            return false;
        }
        complete_size(&p.root).is_some_and(|s| s == p.len())
    }

    /// Build a pennant of `2^k` elements `base..base+2^k` by tournament
    /// unions.
    fn build_pennant(base: u32, k: u32) -> Pennant {
        let mut layer: Vec<Pennant> =
            (0..1u32 << k).map(|i| Pennant::singleton(base + i)).collect();
        while layer.len() > 1 {
            layer = layer
                .chunks_exact(2)
                .map(|pair| {
                    let [a, b] = pair else { unreachable!() };
                    Pennant::union(a.clone(), b.clone())
                })
                .collect();
        }
        layer.pop().unwrap()
    }

    #[test]
    fn union_doubles_and_split_inverts() {
        let mut p = build_pennant(0, 4);
        assert_eq!(p.len(), 16);
        assert!(p.len().is_power_of_two());
        assert!(structural_ok(&p));
        let before: Vec<_> = {
            let mut v = p.to_vec();
            v.sort_unstable();
            v
        };
        let half = p.split();
        assert_eq!(p.len(), half.len());
        let mut after = p.to_vec();
        after.extend(half.to_vec());
        after.sort_unstable();
        assert_eq!(before, after, "split must preserve the element set");
    }

    #[test]
    fn split_then_union_roundtrip() {
        let mut p = Pennant::union(
            Pennant::union(Pennant::singleton(1), Pennant::singleton(2)),
            Pennant::union(Pennant::singleton(3), Pennant::singleton(4)),
        );
        let set_before = {
            let mut v = p.to_vec();
            v.sort_unstable();
            v
        };
        let y = p.split();
        let rejoined = Pennant::union(p, y);
        let mut set_after = rejoined.to_vec();
        set_after.sort_unstable();
        assert_eq!(set_before, set_after);
        assert_eq!(rejoined.len(), 4);
    }

    #[test]
    #[should_panic(expected = "equal sizes")]
    fn union_rejects_mismatched_sizes() {
        let a = Pennant::union(Pennant::singleton(1), Pennant::singleton(2));
        let b = Pennant::singleton(3);
        let _ = Pennant::union(a, b);
    }

    #[test]
    #[should_panic(expected = "singleton")]
    fn split_rejects_singleton() {
        let mut p = Pennant::singleton(1);
        let _ = p.split();
    }

    #[test]
    fn bag_insert_counts_like_binary_counter() {
        let mut b = Bag::new();
        for i in 0..100u32 {
            b.insert(i);
            assert_eq!(b.len(), i as usize + 1);
        }
        assert_eq!(b.to_sorted_vec(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bag_union_is_multiset_union() {
        let mut a = Bag::new();
        let mut b = Bag::new();
        for i in 0..37u32 {
            a.insert(i);
        }
        for i in 37..100u32 {
            b.insert(i);
        }
        a.union(b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.to_sorted_vec(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bag_union_with_empty() {
        let mut a = Bag::new();
        a.insert(5);
        a.union(Bag::new());
        assert_eq!(a.len(), 1);
        let mut e = Bag::new();
        e.union(a);
        assert_eq!(e.to_sorted_vec(), vec![5]);
    }

    #[test]
    fn bag_split_halves_and_preserves_elements() {
        for n in [1usize, 2, 3, 7, 8, 64, 100, 255] {
            let mut b = Bag::new();
            for i in 0..n as u32 {
                b.insert(i);
            }
            let other = b.split();
            assert_eq!(b.len() + other.len(), n, "n={n}");
            let diff = b.len().abs_diff(other.len());
            assert!(diff <= 1, "n={n}: split sizes {} / {}", b.len(), other.len());
            let mut all = b.to_sorted_vec();
            all.extend(other.to_sorted_vec());
            all.sort_unstable();
            assert_eq!(all, (0..n as u32).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn empty_bag_behaviour() {
        let mut b = Bag::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        let s = b.split();
        assert!(s.is_empty());
        assert_eq!(b.take_pennants().len(), 0);
    }

    #[test]
    fn take_pennants_drains() {
        let mut b = Bag::new();
        for i in 0..10u32 {
            b.insert(i);
        }
        let ps = b.take_pennants();
        assert!(b.is_empty());
        let total: usize = ps.iter().map(|p| p.len()).sum();
        assert_eq!(total, 10);
        // 10 = 0b1010: pennants of size 2 and 8
        let mut ks: Vec<u32> = ps.iter().map(|p| p.k()).collect();
        ks.sort_unstable();
        assert_eq!(ks, vec![1, 3]);
    }
}
