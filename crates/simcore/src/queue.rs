//! The kernel's event queue: an indexed binary min-heap over a slot slab.
//!
//! The heap holds small `(time, seq, slot)` keys ordered by `(time, seq)`;
//! each event's payload lives in a slab slot that also records where its
//! key sits in the heap. Every sift writes a moved key's position back
//! into its slot, so an event can be removed from the middle of the heap
//! in O(log n) without a search. Removal is eager: a cancelled event
//! leaves the queue at once instead of waiting, as a tombstone, for its
//! instant to come round.
//!
//! A [`Ticket`] names one pushed event by slot and generation. Freeing a
//! slot (on pop or removal) bumps its generation, so a ticket whose event
//! has fired or been removed, or whose slot has since been reused, names
//! nothing: removing through it is a no-op. A slot whose generation
//! reaches `u32::MAX` is retired instead of reused, so no `(slot, gen)`
//! pair is ever issued twice; that costs one slot per 2^32 events through
//! it. Tickets are 8 bytes so that an [`EventHandle`](crate::EventHandle),
//! which every pending `Delay` holds inline in its task's future, stays
//! at 16.
//!
//! Pop order depends only on the keys. Callers keep `(time, seq)` unique
//! among live events (the kernel's seq counter does), so the order of
//! pops does not depend on the heap's shape or on which events were
//! removed before.

use crate::time::SimTime;

/// Names one event pushed onto an [`EventQueue`]. Stays harmless after
/// the event fired or was removed; it only ever names the event it was
/// issued for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    slot: u32,
    gen: u32,
}

/// One heap entry: the ordering key and the slot holding the payload.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    #[inline]
    fn precedes(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// One slab slot. `action` is `None` while the slot is free or retired.
/// `gen` is bumped each time the slot is freed and never wraps.
struct Slot<A> {
    gen: u32,
    pos: u32,
    action: Option<A>,
}

/// Min-heap of events ordered by `(time, seq)`, with O(log n) removal by
/// [`Ticket`]. The slab grows to the peak number of live events and its
/// slots are reused through a free list.
pub struct EventQueue<A> {
    heap: Vec<Key>,
    slots: Vec<Slot<A>>,
    free: Vec<u32>,
}

impl<A> Default for EventQueue<A> {
    fn default() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<A> EventQueue<A> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (pushed, not yet popped or removed) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no event is live.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Add an event at `(at, seq)`.
    pub fn push(&mut self, at: SimTime, seq: u64, action: A) -> Ticket {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].action = Some(action);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 queued events");
                self.slots.push(Slot {
                    gen: 0,
                    pos: 0,
                    action: Some(action),
                });
                slot
            }
        };
        self.heap.push(Key { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        Ticket {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Instant of the earliest live event.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.at)
    }

    /// Remove and return the earliest live event as `(at, seq, action)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, A)> {
        if self.heap.is_empty() {
            return None;
        }
        let (key, action) = self.remove_at(0);
        Some((key.at, key.seq, action))
    }

    /// Remove the event `ticket` names and return its action, or `None`
    /// when it already fired or was removed.
    pub fn remove(&mut self, ticket: Ticket) -> Option<A> {
        if !self.is_live(ticket) {
            return None;
        }
        let pos = self.slots[ticket.slot as usize].pos;
        Some(self.remove_at(pos as usize).1)
    }

    /// True while the event `ticket` names is still queued.
    pub fn is_live(&self, ticket: Ticket) -> bool {
        self.slots
            .get(ticket.slot as usize)
            .is_some_and(|s| s.gen == ticket.gen && s.action.is_some())
    }

    /// Panic unless the heap is ordered, every key's slot records the
    /// key's heap position, and every slot is either live in the heap or
    /// on the free list. For tests.
    pub fn check_index(&self) {
        for (pos, key) in self.heap.iter().enumerate() {
            let slot = &self.slots[key.slot as usize];
            assert_eq!(
                slot.pos as usize, pos,
                "slot {} records a stale heap position",
                key.slot
            );
            assert!(
                slot.action.is_some(),
                "heap key points at free slot {}",
                key.slot
            );
            if pos > 0 {
                assert!(
                    !key.precedes(&self.heap[(pos - 1) / 2]),
                    "heap order broken at {pos}"
                );
            }
        }
        assert!(self
            .free
            .iter()
            .all(|&s| self.slots[s as usize].action.is_none()));
        let retired = self.slots.iter().filter(|s| s.gen == u32::MAX).count();
        assert_eq!(
            self.heap.len() + self.free.len() + retired,
            self.slots.len()
        );
    }

    /// Take the key at `pos` out of the heap and free its slot.
    fn remove_at(&mut self, pos: usize) -> (Key, A) {
        let key = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            // The former last key now sits at `pos`: restore order around it.
            if pos > 0 && self.heap[pos].precedes(&self.heap[(pos - 1) / 2]) {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        let slot = &mut self.slots[key.slot as usize];
        let action = slot
            .action
            .take()
            .expect("a heap key always owns a live slot");
        slot.gen += 1;
        if slot.gen < u32::MAX {
            self.free.push(key.slot);
        }
        (key, action)
    }

    /// Write `key` at heap position `pos` and record `pos` in its slot.
    #[inline]
    fn place(&mut self, pos: usize, key: Key) {
        self.slots[key.slot as usize].pos = pos as u32;
        self.heap[pos] = key;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if !key.precedes(&above) {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, key);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        let n = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1].precedes(&self.heap[child]) {
                child += 1;
            }
            let below = self.heap[child];
            if !below.precedes(&key) {
                break;
            }
            self.place(pos, below);
            pos = child;
        }
        self.place(pos, key);
    }
}
