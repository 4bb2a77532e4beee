//! A `packet id -> V` table stored densely: slot `id - first`.
//!
//! Every network hands out consecutive ids ([`Network::inject`]), so the
//! ids of one run, or of one network's packets in flight, are one
//! contiguous window — shifted from zero when the network was used
//! before — and recording the next one is a push. The harness never
//! removes an entry (a late delivery may still ask for any of them); the
//! delivery ledger removes an id once it is settled, which retires the
//! settled front, so its window is as long as the span from the oldest
//! live id to the newest. The slots are std's ring buffer: retiring
//! moves nothing and a steady-state window never allocates.
//!
//! [`Network::inject`]: crate::network::Network::inject

use std::collections::VecDeque;

/// The window. An empty slot is an id never recorded, or removed.
#[derive(Debug, Default)]
pub(crate) struct IdWindow<V> {
    /// The id slot 0 stands for.
    first: u64,
    slots: VecDeque<Option<V>>,
}

impl<V> IdWindow<V> {
    /// Records `id -> value`. An id past the next consecutive one leaves
    /// empty slots behind it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is below the oldest id the window holds.
    pub(crate) fn insert(&mut self, id: u64, value: V) {
        if self.slots.is_empty() {
            self.first = id;
        }
        let slot = id
            .checked_sub(self.first)
            .expect("packet ids never fall below the oldest one in the window")
            as usize;
        if slot < self.slots.len() {
            self.slots[slot] = Some(value);
        } else {
            self.slots.resize_with(slot, || None);
            self.slots.push_back(Some(value));
        }
    }

    /// Looks up an id; `None` for one never recorded, or removed.
    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<&V> {
        let slot = id.checked_sub(self.first)?;
        self.slots.get(slot as usize)?.as_ref()
    }

    /// [`get`](Self::get), mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let slot = id.checked_sub(self.first)?;
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// Forgets `id`, an id inside the window, then retires every empty
    /// slot at the front: the window starts at the oldest id it still
    /// holds, or is empty.
    pub(crate) fn remove(&mut self, id: u64) {
        self.slots[(id - self.first) as usize] = None;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.first += 1;
        }
    }

    /// Slots from the oldest id held to the newest recorded.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Slots allocated.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}
