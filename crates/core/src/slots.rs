//! The monitor's instance slot store: a chunked, copy-on-write array.
//!
//! Slot indices are semantics-bearing (they break effect-ordering ties and
//! the free-list decides which one the next spawn reuses), so the store is
//! a plain index-addressed array of `Option<Instance>`. It is cut into
//! fixed-size chunks, each behind an [`Arc`]:
//!
//! - cloning the store (what [`Monitor::snapshot`](crate::Monitor::snapshot)
//!   does) copies only the chunk pointers, O(slots / [`CHUNK`]);
//! - a write goes through [`Arc::make_mut`], so the first write to a chunk
//!   a snapshot still shares copies that one chunk, and every later write to
//!   it is in place. Writes never touch a chunk they do not address.
//!
//! Reads are one extra pointer hop over a flat `Vec`. A write that finds
//! its slot empty (a stale timer or effect) returns before `make_mut`, so it
//! never copies a shared chunk for nothing.

use crate::engine::Instance;
use std::sync::Arc;

/// Slots per chunk: the unit a checkpoint shares and a write copies.
pub(crate) const CHUNK: usize = 64;

type Chunk = [Option<Instance>; CHUNK];

fn empty_chunk() -> Arc<Chunk> {
    Arc::new(std::array::from_fn(|_| None))
}

/// Index-addressed instance slots; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slots {
    chunks: Vec<Arc<Chunk>>,
    /// Slots allocated so far; `len..chunks.len() * CHUNK` are unused and
    /// always `None`.
    len: usize,
}

impl Slots {
    /// Slots allocated so far (live or free).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The instance in slot `idx`, if the slot exists and is occupied.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> Option<&Instance> {
        self.chunks.get(idx / CHUNK)?[idx % CHUNK].as_ref()
    }

    /// Mutable access to an occupied slot, copying its chunk first if a
    /// snapshot shares it.
    #[inline]
    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut Instance> {
        let chunk = self.chunks.get_mut(idx / CHUNK)?;
        chunk[idx % CHUNK].as_ref()?;
        Arc::make_mut(chunk)[idx % CHUNK].as_mut()
    }

    /// Empty slot `idx`, returning what it held.
    pub(crate) fn take(&mut self, idx: usize) -> Option<Instance> {
        let chunk = self.chunks.get_mut(idx / CHUNK)?;
        chunk[idx % CHUNK].as_ref()?;
        Arc::make_mut(chunk)[idx % CHUNK].take()
    }

    /// Fill slot `idx`, which must already be allocated.
    pub(crate) fn put(&mut self, idx: usize, inst: Instance) {
        assert!(idx < self.len, "slot {idx} is not allocated");
        Arc::make_mut(&mut self.chunks[idx / CHUNK])[idx % CHUNK] = Some(inst);
    }

    /// Allocate one more (empty) slot and return its index.
    pub(crate) fn grow(&mut self) -> usize {
        if self.len == self.chunks.len() * CHUNK {
            self.chunks.push(empty_chunk());
        }
        self.len += 1;
        self.len - 1
    }

    /// Every allocated slot, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<&Instance>> + '_ {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len).map(Option::as_ref)
    }

    /// The occupied slots with their indices, in index order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (usize, &Instance)> + '_ {
        self.iter().enumerate().filter_map(|(i, s)| s.map(|inst| (i, inst)))
    }
}

impl FromIterator<Option<Instance>> for Slots {
    fn from_iter<I: IntoIterator<Item = Option<Instance>>>(iter: I) -> Self {
        let mut slots = Slots::default();
        for inst in iter {
            let idx = slots.grow();
            if let Some(inst) = inst {
                slots.put(idx, inst);
            }
        }
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Bindings;

    fn inst(uid: u64) -> Instance {
        Instance {
            uid,
            awaiting: 1,
            bindings: Bindings::new(),
            stage_ids: std::iter::once(None).collect(),
            history: Vec::new(),
            timer: None,
            cell: None,
        }
    }

    fn uids(s: &Slots) -> Vec<Option<u64>> {
        s.iter().map(|i| i.map(|i| i.uid)).collect()
    }

    #[test]
    fn grows_across_chunks_and_addresses_by_index() {
        let mut s = Slots::default();
        for i in 0..(2 * CHUNK + 3) {
            assert_eq!(s.grow(), i);
        }
        s.put(0, inst(10));
        s.put(CHUNK, inst(20));
        s.put(2 * CHUNK + 2, inst(30));
        assert_eq!(s.len(), 2 * CHUNK + 3);
        assert_eq!(s.iter().count(), s.len());
        let live: Vec<_> = s.live().map(|(i, inst)| (i, inst.uid)).collect();
        assert_eq!(live, vec![(0, 10), (CHUNK, 20), (2 * CHUNK + 2, 30)]);
        assert!(s.get(1).is_none() && s.get(s.len()).is_none() && s.get(usize::MAX).is_none());
        assert_eq!(s.take(CHUNK).map(|i| i.uid), Some(20));
        assert!(s.take(CHUNK).is_none());
        assert!(s.get_mut(CHUNK).is_none());
    }

    #[test]
    fn clones_share_chunks_until_written() {
        let mut s: Slots = (0..3 * CHUNK as u64).map(|u| Some(inst(u))).collect();
        let snap = s.clone();
        assert!(s.chunks.iter().zip(&snap.chunks).all(|(a, b)| Arc::ptr_eq(a, b)));
        s.get_mut(CHUNK + 1).expect("occupied").uid = 999;
        // Only the written chunk was copied.
        let shared: Vec<bool> =
            s.chunks.iter().zip(&snap.chunks).map(|(a, b)| Arc::ptr_eq(a, b)).collect();
        assert_eq!(shared, vec![true, false, true]);
        assert_eq!(snap.get(CHUNK + 1).map(|i| i.uid), Some(CHUNK as u64 + 1));
        assert_eq!(s.get(CHUNK + 1).map(|i| i.uid), Some(999));
        // A write that misses (empty slot) copies nothing.
        let mut t: Slots = [None, Some(inst(1))].into_iter().collect();
        let t_snap = t.clone();
        assert!(t.get_mut(0).is_none() && t.take(0).is_none());
        assert!(Arc::ptr_eq(&t.chunks[0], &t_snap.chunks[0]));
        assert_eq!(uids(&t), uids(&t_snap));
    }
}
