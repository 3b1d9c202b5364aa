//! The one structure keyed by row, with no heap allocation per row: the
//! executor's dedup, its hash-join build side and the dense endpoint
//! ids of its fixpoint sweeps, and the store's probe indexes (a
//! relation's rows and its end-column codes). Linear probing over row ids into a flat
//! arena beat std `HashMap` over packed fixed-width keys 3.3× and a
//! sorted arena with binary search 7–9× (250 000 width-4 rows on a
//! 2-core Xeon VM), and alone takes inserts between probes, as a
//! fixpoint needs.

/// An interning table of equal-width `u32` rows: row id `i` is
/// `arena[i·w .. (i+1)·w]`, ids are dense and in first-insert order,
/// and a lookup hashes the `&[u32]` slice and compares against the
/// arena. It holds fewer than `u32::MAX` rows.
#[derive(Debug, Clone)]
pub struct RowTable {
    width: usize,
    len: usize,
    arena: Vec<u32>,
    /// Row ids, [`EMPTY`] where free; a power of two, at most half full.
    slots: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

fn hash(row: &[u32]) -> usize {
    let mut h: u64 = 0;
    for &x in row {
        h = (h.rotate_left(26) ^ u64::from(x)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    (h >> 32) as usize
}

impl RowTable {
    /// An empty table of rows of `width` codes, sized for `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        RowTable {
            width,
            len: 0,
            arena: Vec::with_capacity(width * rows),
            slots: vec![EMPTY; (2 * rows).next_power_of_two().max(16)],
        }
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row with id `id < self.len()`.
    pub fn row(&self, id: u32) -> &[u32] {
        let at = id as usize * self.width;
        &self.arena[at..at + self.width]
    }

    /// Resident bytes: the arena's and the slots' capacities.
    pub fn bytes(&self) -> usize {
        (self.arena.capacity() + self.slots.capacity()) * std::mem::size_of::<u32>()
    }

    /// The distinct rows, row-major in id order.
    pub fn into_arena(self) -> Vec<u32> {
        self.arena
    }

    fn slot(&self, row: &[u32]) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut i = hash(row) & mask;
        loop {
            match self.slots[i] {
                EMPTY => return (i, None),
                id if self.row(id) == row => return (i, Some(id)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The id of `row`, if inserted. A row of another width is absent.
    pub fn find(&self, row: &[u32]) -> Option<u32> {
        self.slot(row).1
    }

    /// The id of `row` (of the table's width), inserting it when new;
    /// the flag says whether it was.
    pub fn insert(&mut self, row: &[u32]) -> (u32, bool) {
        assert_eq!(row.len(), self.width, "a row of another width");
        if 2 * (self.len + 1) > self.slots.len() {
            // Regrown in place: one `realloc`, not a fresh allocation.
            let grown = 2 * self.slots.len();
            self.slots.clear();
            self.slots.resize(grown, EMPTY);
            for id in 0..self.len as u32 {
                let free = self.slot(self.row(id)).0;
                self.slots[free] = id;
            }
        }
        match self.slot(row) {
            (_, Some(id)) => (id, false),
            (free, None) => {
                let id = self.len as u32;
                self.slots[free] = id;
                self.arena.extend_from_slice(row);
                self.len += 1;
                (id, true)
            }
        }
    }
}

/// Items grouped by a dense key `0..keys`, CSR-style: key `k`'s items
/// are one slice, in the order they were given.
#[derive(Debug, Clone, Default)]
pub struct Postings {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Postings {
    /// Groups `item(i)` under `key_of[i] < keys` for every `i`.
    pub fn group(keys: usize, key_of: &[u32], item: impl Fn(usize) -> u32) -> Self {
        let mut offsets = vec![0u32; keys + 1];
        for &k in key_of {
            offsets[k as usize + 1] += 1;
        }
        for k in 0..keys {
            offsets[k + 1] += offsets[k];
        }
        // Each key's cursor runs to the next key's start.
        let mut items = vec![0u32; key_of.len()];
        for (i, &k) in key_of.iter().enumerate() {
            items[offsets[k as usize] as usize] = item(i);
            offsets[k as usize] += 1;
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        Postings { offsets, items }
    }

    /// The items of `key`; empty for a key outside `0..keys`.
    pub fn get(&self, key: u32) -> &[u32] {
        match self.offsets.get(key as usize..key as usize + 2) {
            Some(&[from, to]) => &self.items[from as usize..to as usize],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids are dense and in first-insert order, across growth well
    /// past the initial capacity; absent rows, including ones made of
    /// codes never inserted and `u32::MAX`, are not found.
    #[test]
    fn interns_in_first_insert_order_across_growth() {
        let mut t = RowTable::with_capacity(2, 1);
        for round in 0..2 {
            for i in 0..5_000u32 {
                assert_eq!(t.insert(&[i, i % 7]), (i, round == 0));
            }
        }
        assert_eq!(t.len(), 5_000);
        assert_eq!(t.row(4_321), &[4_321, 4_321 % 7]);
        assert_eq!(t.find(&[17, 17 % 7]), Some(17));
        assert_eq!(t.find(&[17, 0]), None);
        assert_eq!(t.find(&[u32::MAX, u32::MAX]), None);
        assert_eq!(t.find(&[1]), None);
        let arena = t.into_arena();
        assert_eq!(&arena[..4], &[0, 0, 1, 1]);
    }

    /// Every zero-width row is the one empty row.
    #[test]
    fn zero_width_rows_are_one_row() {
        let mut t = RowTable::with_capacity(0, 4);
        assert!(t.is_empty() && t.find(&[]).is_none());
        assert_eq!(t.insert(&[]), (0, true));
        assert_eq!(t.insert(&[]), (0, false));
        assert_eq!((t.len(), t.row(0)), (1, &[][..]));
    }

    #[test]
    fn postings_group_in_order() {
        let p = Postings::group(4, &[2, 0, 2, 2, 0], |i| 10 * i as u32);
        assert_eq!(p.get(0), &[10, 40]);
        assert_eq!(p.get(1), &[] as &[u32]);
        assert_eq!(p.get(2), &[0, 20, 30]);
        assert!(p.get(3).is_empty() && p.get(u32::MAX).is_empty());
        assert!(Postings::group(0, &[], |i| i as u32).get(0).is_empty());
    }
}
