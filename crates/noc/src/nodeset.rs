//! Sets of node indices, 64 nodes to a `u64` word: the form of every
//! per-node bitset the network keeps and the endpoints read, so a loop
//! over the nodes in a set costs a word test per 64 nodes plus a visit
//! per member.

/// A set of node indices `0..nodes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// An empty set able to hold nodes `0..nodes`.
    pub fn new(nodes: usize) -> Self {
        NodeSet {
            words: vec![0; nodes.div_ceil(64)],
        }
    }

    /// Word index and mask of node `n`.
    fn at(n: usize) -> (usize, u64) {
        (n / 64, 1 << (n % 64))
    }

    /// Add node `n`.
    pub fn insert(&mut self, n: usize) {
        let (w, m) = Self::at(n);
        self.words[w] |= m;
    }

    /// Remove node `n`.
    pub fn remove(&mut self, n: usize) {
        let (w, m) = Self::at(n);
        self.words[w] &= !m;
    }

    /// Add node `n` when `on`, else remove it.
    pub fn set(&mut self, n: usize, on: bool) {
        if on {
            self.insert(n);
        } else {
            self.remove(n);
        }
    }

    /// Whether node `n` is in the set.
    pub fn contains(&self, n: usize) -> bool {
        let (w, m) = Self::at(n);
        self.words[w] & m != 0
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every node.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Make this set equal to `other`, reusing its storage.
    pub fn copy_from(&mut self, other: &NodeSet) {
        self.words.clone_from(&other.words);
    }

    /// Add every node of `other`.
    pub fn union_with(&mut self, other: &NodeSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Add every node that is in both `a` and `b`.
    pub fn union_with_both(&mut self, a: &NodeSet, b: &NodeSet) {
        for (s, (a, b)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *s |= a & b;
        }
    }

    /// Keep only the nodes that are also in `other`.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Remove every node of `other`.
    pub fn subtract(&mut self, other: &NodeSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words.iter(),
            base: 0,
            next_base: 0,
            bits: 0,
        }
    }
}

/// The members of a [`NodeSet`], ascending.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Node index of bit 0 of `bits`.
    base: usize,
    /// Node index of bit 0 of the next word.
    next_base: usize,
    /// The members of the current word not yet returned.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.base = self.next_base;
            self.next_base += 64;
        }
        let low = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + low)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(nodes: usize, members: &[usize]) -> NodeSet {
        let mut s = NodeSet::new(nodes);
        for &n in members {
            s.insert(n);
        }
        s
    }

    #[test]
    fn members_iterate_in_order_across_words() {
        let s = set_of(200, &[199, 0, 63, 64, 130]);
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 63, 64, 130, 199]);
        assert!(s.contains(64) && !s.contains(65));
        assert!(NodeSet::new(200).is_empty() && NodeSet::new(200).iter().next().is_none());
    }

    #[test]
    fn set_operations_act_per_node() {
        let a = set_of(130, &[1, 2, 70, 129]);
        let b = set_of(130, &[2, 3, 129]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), [1, 2, 3, 70, 129]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), [2, 129]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), [1, 70]);
        let mut both = set_of(130, &[5]);
        both.union_with_both(&a, &b);
        assert_eq!(both.iter().collect::<Vec<_>>(), [2, 5, 129]);
        let mut c = NodeSet::new(130);
        c.copy_from(&a);
        c.set(1, false);
        c.set(4, true);
        assert_eq!(c.iter().collect::<Vec<_>>(), [2, 4, 70, 129]);
        c.clear();
        assert!(c.is_empty());
    }
}
