//! The ordered, copy-on-write `u32 → V` map the three tables of a
//! [`Configuration`](crate::Configuration) are made of.
//!
//! Ids that agree on `id >> CHUNK_BITS` share a **chunk**: an id-sorted
//! `Vec` behind an [`Arc`].  The map is the chunk-key-sorted list of its
//! chunks, so
//!
//! * `clone` and `drop` touch one reference count per chunk, never an entry;
//! * a write ([`ChunkMap::get_mut`], [`ChunkMap::insert`],
//!   [`ChunkMap::remove`]) copies the one chunk it lands in, and only while a
//!   clone still shares it (`Arc::make_mut`); a lookup that misses, like every
//!   read, copies nothing;
//! * two maps are compared — `==`, [`ChunkMap::diff`] — chunk by chunk,
//!   and a pair of chunks that is one allocation is skipped unread;
//! * iteration is in ascending id order.
//!
//! No chunk is ever left empty, so which chunks exist is a function of the
//! ids held: equal contents compare equal whatever sequence of writes built
//! them.

use std::cmp::Ordering;
use std::sync::Arc;

/// Ids sharing `id >> CHUNK_BITS` live in one chunk of at most
/// `1 << CHUNK_BITS` entries: what one write to a shared map copies.
const CHUNK_BITS: u32 = 8;

/// Entries sorted by id, all of one chunk key.
type Chunk<V> = Vec<(u32, V)>;

#[derive(Debug, Clone)]
pub(crate) struct ChunkMap<V> {
    /// `(id >> CHUNK_BITS, chunk)` sorted by key; no chunk is empty.
    chunks: Vec<(u32, Arc<Chunk<V>>)>,
    len: usize,
}

/// Position of `key` among `entries` (sorted, keys unique).  `hint` is where
/// it sits when no smaller key is missing — dense ids, the usual case, are
/// found without a search.
fn locate<T>(entries: &[(u32, T)], key: u32, hint: u32) -> Result<usize, usize> {
    match entries.get(hint as usize) {
        Some(entry) if entry.0 == key => Ok(hint as usize),
        _ => entries.binary_search_by_key(&key, |entry| entry.0),
    }
}

/// Walk two key-sorted slices in step: both entries of a key both hold, one
/// and `None` for a key only one side holds, in ascending key order.
struct Aligned<'a, T> {
    left: &'a [(u32, T)],
    right: &'a [(u32, T)],
}

impl<'a, T> Iterator for Aligned<'a, T> {
    type Item = (Option<&'a (u32, T)>, Option<&'a (u32, T)>);

    fn next(&mut self) -> Option<Self::Item> {
        let order = match (self.left.first(), self.right.first()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(l), Some(r)) => l.0.cmp(&r.0),
        };
        let left = order.is_le().then(|| take_first(&mut self.left));
        let right = order.is_ge().then(|| take_first(&mut self.right));
        Some((left, right))
    }
}

/// Where `id` sits in a chunk that holds every id of its range.
fn slot(id: u32) -> u32 {
    id & ((1 << CHUNK_BITS) - 1)
}

fn take_first<'a, T>(entries: &mut &'a [T]) -> &'a T {
    let (first, rest) = entries.split_first().expect("checked non-empty");
    *entries = rest;
    first
}

impl<V> ChunkMap<V> {
    pub(crate) fn new() -> Self {
        ChunkMap {
            chunks: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn chunk_at(&self, id: u32) -> Result<usize, usize> {
        let key = id >> CHUNK_BITS;
        locate(&self.chunks, key, key)
    }

    /// Where `id` is: `(chunk, entry)` positions.
    fn position(&self, id: u32) -> Option<(usize, usize)> {
        let chunk = self.chunk_at(id).ok()?;
        let entry = locate(&self.chunks[chunk].1, id, slot(id)).ok()?;
        Some((chunk, entry))
    }

    pub(crate) fn contains_key(&self, id: u32) -> bool {
        self.position(id).is_some()
    }

    pub(crate) fn get(&self, id: u32) -> Option<&V> {
        let (chunk, entry) = self.position(id)?;
        Some(&self.chunks[chunk].1[entry].1)
    }

    /// Every `(id, value)` in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        let entries = self.chunks.iter().flat_map(|(_, chunk)| chunk.iter());
        entries.map(|(id, value)| (*id, value))
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(id, _)| id)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, value)| value)
    }
}

impl<V: PartialEq> ChunkMap<V> {
    /// Every id whose value differs between `self` and `other`, or that only
    /// one of them holds, with its value on each side, in ascending id
    /// order: one aligned walk, no lookup.  Chunks the two maps share are
    /// skipped: the cost is the number of chunks plus the entries of the
    /// chunks that were written on either side since one was cloned from the
    /// other.
    pub(crate) fn diff<'a>(
        &'a self,
        other: &'a Self,
    ) -> impl Iterator<Item = (u32, Option<&'a V>, Option<&'a V>)> + 'a {
        let chunks = Aligned {
            left: &self.chunks,
            right: &other.chunks,
        };
        chunks
            .filter(|pair| !matches!(pair, (Some(l), Some(r)) if Arc::ptr_eq(&l.1, &r.1)))
            .flat_map(|(left, right)| Aligned {
                left: left.map_or(&[][..], |chunk| &chunk.1[..]),
                right: right.map_or(&[][..], |chunk| &chunk.1[..]),
            })
            .filter_map(|pair| match pair {
                (Some(l), Some(r)) if l.1 == r.1 => None,
                (left, right) => {
                    let id = left.or(right)?.0;
                    Some((id, left.map(|entry| &entry.1), right.map(|entry| &entry.1)))
                }
            })
    }

    /// The ids [`ChunkMap::diff`] lists, at its cost.
    pub(crate) fn changed<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = u32> + 'a {
        self.diff(other).map(|(id, _, _)| id)
    }
}

impl<V: Clone> ChunkMap<V> {
    /// Mutable access to the value of `id`; the chunk holding it stops being
    /// shared.  Ask only to write: compare through [`ChunkMap::get`] first.
    pub(crate) fn get_mut(&mut self, id: u32) -> Option<&mut V> {
        let (chunk, entry) = self.position(id)?;
        Some(&mut Arc::make_mut(&mut self.chunks[chunk].1)[entry].1)
    }

    /// Insert or overwrite; returns the value `id` had.
    pub(crate) fn insert(&mut self, id: u32, value: V) -> Option<V> {
        let chunk = match self.chunk_at(id) {
            Ok(chunk) => Arc::make_mut(&mut self.chunks[chunk].1),
            Err(at) => {
                let fresh = (id >> CHUNK_BITS, Arc::new(vec![(id, value)]));
                self.chunks.insert(at, fresh);
                self.len += 1;
                return None;
            }
        };
        match locate(chunk, id, slot(id)) {
            Ok(at) => Some(std::mem::replace(&mut chunk[at].1, value)),
            Err(at) => {
                chunk.insert(at, (id, value));
                self.len += 1;
                None
            }
        }
    }

    /// Remove `id`; a chunk that held nothing else goes with it.
    pub(crate) fn remove(&mut self, id: u32) -> Option<V> {
        let (chunk, entry) = self.position(id)?;
        let entries = Arc::make_mut(&mut self.chunks[chunk].1);
        let (_, value) = entries.remove(entry);
        if entries.is_empty() {
            self.chunks.remove(chunk);
        }
        self.len -= 1;
        Some(value)
    }
}

/// Equal contents: which chunks exist follows from the ids, so the chunk
/// lists align, and a pair that is one allocation is equal unread.
impl<V: PartialEq> PartialEq for ChunkMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.chunks.len() == other.chunks.len()
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(l, r)| l.0 == r.0 && (Arc::ptr_eq(&l.1, &r.1) || l.1 == r.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(map: &ChunkMap<u32>, other: &ChunkMap<u32>) -> usize {
        let pairs = map.chunks.iter().zip(&other.chunks);
        pairs.filter(|(l, r)| Arc::ptr_eq(&l.1, &r.1)).count()
    }

    #[test]
    fn a_write_unshares_one_chunk_and_a_read_none() {
        let mut map = ChunkMap::new();
        for id in 0..1024 {
            assert_eq!(map.insert(id, id), None);
        }
        let copy = map.clone();
        assert_eq!(shared(&map, &copy), 4);
        assert_eq!(map.get(300), Some(&300));
        assert!(map.get_mut(5000).is_none() && map.remove(5000).is_none());
        assert_eq!(shared(&map, &copy), 4, "reads and misses copy nothing");
        *map.get_mut(300).unwrap() = 7;
        assert_eq!(shared(&map, &copy), 3);
        assert_eq!(copy.get(300), Some(&300), "the clone keeps its value");
        let changed: Vec<u32> = map.changed(&copy).collect();
        assert_eq!(changed, vec![300]);
        *map.get_mut(300).unwrap() = 300;
        assert_eq!(map, copy, "equal contents are equal, shared or not");
    }

    #[test]
    fn no_empty_chunk_is_left_behind() {
        let mut map = ChunkMap::new();
        map.insert(3, 'a');
        let untouched = map.clone();
        map.insert(u32::MAX, 'b');
        map.insert(70_000, 'c');
        let keys: Vec<u32> = map.keys().collect();
        assert_eq!(keys, vec![3, 70_000, u32::MAX]);
        assert_eq!(map.insert(70_000, 'd'), Some('c'));
        assert_eq!(map.remove(70_000), Some('d'));
        assert_eq!(map.remove(u32::MAX), Some('b'));
        assert_eq!(map.len(), 1);
        assert_eq!(map, untouched);
        assert_eq!(map.chunks.len(), 1);
    }

    #[test]
    fn changed_lists_one_sided_ids_from_either_side() {
        let mut left = ChunkMap::new();
        let mut right = ChunkMap::new();
        for id in [1, 2, 3, 600] {
            left.insert(id, id);
        }
        for id in [2, 3, 4, 9000] {
            right.insert(id, id.max(3));
        }
        let changed: Vec<u32> = left.changed(&right).collect();
        assert_eq!(changed, vec![1, 2, 4, 600, 9000]);
        assert_eq!(right.changed(&left).collect::<Vec<_>>(), changed);
        let diff: Vec<(u32, Option<&u32>, Option<&u32>)> = left.diff(&right).collect();
        let both = (2, Some(&2), Some(&3));
        let one_sided = [(1, Some(&1), None), (4, None, Some(&4))];
        assert_eq!(diff[..3], [one_sided[0], both, one_sided[1]]);
        assert_eq!(
            diff[3..],
            [(600, Some(&600), None), (9000, None, Some(&9000))]
        );
    }
}
