//! Event representation and the bucketed calendar queue.
//!
//! The engine used to keep every pending event in one global `BinaryHeap`
//! keyed by `(time, global_seq)`. That had two scaling problems: the heap
//! is `O(log n)` per operation with poor locality at million-event
//! populations, and a *global* sequence number makes event identity depend
//! on execution order, which rules out sharded execution.
//!
//! This module replaces both:
//!
//! * Every [`Event`] carries an **intrinsic key** `(at, origin, seq)`
//!   where `origin` is the device that spawned it and `seq` is that
//!   device's private spawn counter. The key is a pure function of the
//!   spawning device's history, so it is identical for every shard count
//!   — the foundation of the sharded engine's bit-exact determinism.
//! * The [`CalendarQueue`] buckets events into fixed-width time cells
//!   (cell width = the engine's lookahead). Pushes are amortised `O(1)`;
//!   only the minimum cell is ever sorted, and in windowed execution it
//!   isn't sorted at all — the whole cell is handed to the executor as a
//!   batch. Emptied cell buffers are pooled and reused, so steady-state
//!   scheduling performs no allocation.
//! * Events far in the future (hour-scale churn toggles, crash plans) wait
//!   in a single far-tier heap past a moving horizon instead of each
//!   claiming a calendar cell, and migrate into cells as time nears them.

use crate::actor::TimerToken;
use crate::fault::CrashCause;
use crate::time::SimTime;
use edgelet_util::ids::DeviceId;
use edgelet_util::Payload;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// What a scheduled event does when it pops.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Run the actor's `on_start` on the device.
    Start(DeviceId),
    /// Hand a message to the receiving device.
    Deliver {
        /// Receiver.
        to: DeviceId,
        /// Sender.
        from: DeviceId,
        /// Message bytes.
        payload: Payload,
        /// When the sender submitted it (for delay accounting).
        sent_at: SimTime,
    },
    /// Fire a timer on the device.
    Timer {
        /// Owning device.
        device: DeviceId,
        /// Token returned by `set_timer`.
        token: TimerToken,
    },
    /// Flip the device's availability (up <-> down).
    ChurnToggle(DeviceId),
    /// Crash-stop the device.
    Crash(DeviceId, CrashCause),
}

impl EventKind {
    /// The device this event executes on; its shard owns the event.
    pub fn target(&self) -> DeviceId {
        match *self {
            EventKind::Start(d) => d,
            EventKind::Deliver { to, .. } => to,
            EventKind::Timer { device, .. } => device,
            EventKind::ChurnToggle(d) => d,
            EventKind::Crash(d, _) => d,
        }
    }

    /// Churn toggles don't count toward quiescence: on their own they
    /// cannot create protocol work.
    pub fn is_churn(&self) -> bool {
        matches!(self, EventKind::ChurnToggle(_))
    }
}

/// A scheduled event with its globally unique, shard-independent key.
#[derive(Debug)]
pub(crate) struct Event {
    /// Virtual time at which the event executes.
    pub at: SimTime,
    /// Raw id of the device whose processing spawned this event.
    pub origin: u64,
    /// The origin device's private spawn counter at spawn time.
    pub seq: u64,
    /// What happens when the event pops.
    pub kind: EventKind,
}

impl Event {
    /// Canonical total order: `(time, origin, seq)`. `(origin, seq)` is
    /// unique per event, so ties cannot occur and the order is the same
    /// under any shard layout.
    pub fn key(&self) -> (SimTime, u64, u64) {
        (self.at, self.origin, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so `BinaryHeap<Event>` is a min-heap on the key.
        other.key().cmp(&self.key())
    }
}

/// How many calendar cells the near tier spans past the cell that last
/// moved the horizon. Events further out wait in the far heap.
const NEAR_CELLS: u64 = 1024;

/// A bucketed calendar queue: pending events grouped into fixed-width
/// time cells, in two tiers.
///
/// The **near tier** holds the cells before a moving `horizon`. Cells other
/// than the minimum are unsorted `Vec`s (push is an amortised `O(1)`
/// append). For one-at-a-time consumption ([`CalendarQueue::pop_min`],
/// used by the sequential fallback executor) the minimum cell is sorted
/// once, descending, and popped from the back. For windowed execution the
/// minimum cell is taken wholesale with [`CalendarQueue::take_cell`] and
/// never sorted here. Emptied buffers return to an internal pool.
///
/// The **far tier** is one binary heap holding every event at or past the
/// horizon: hour-scale churn toggles and crash plans would otherwise each
/// claim a map cell of their own. When the near tier empties, or
/// `take_cell` asks for a cell at or past the horizon, the horizon moves
/// to that cell plus [`NEAR_CELLS`] and the far events now before it
/// migrate into near cells. Order within a cell never matters: the
/// windowed executor heaps each taken cell and `pop_min` sorts it.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    width_us: u64,
    /// Near tier: cell index (`at_us / width_us`) -> pending events, for
    /// cells before `horizon`. Vecs in the map are never empty.
    cells: BTreeMap<u64, Vec<Event>>,
    /// The minimum cell, sorted descending by key (pop from the back).
    /// Invariant: when occupied, its index is <= every key in `cells`.
    cur: Option<(u64, Vec<Event>)>,
    /// First cell index of the far tier; only ever grows.
    horizon: u64,
    /// Far tier: events whose cell is `>= horizon`, as a min-heap on key.
    far: BinaryHeap<Event>,
    len: usize,
    /// Recycled cell buffers.
    pool: Vec<Vec<Event>>,
}

impl CalendarQueue {
    /// Creates a queue with the given cell width (clamped to >= 1 µs).
    pub fn new(width_us: u64) -> Self {
        CalendarQueue {
            width_us: width_us.max(1),
            cells: BTreeMap::new(),
            cur: None,
            horizon: NEAR_CELLS,
            far: BinaryHeap::new(),
            len: 0,
            pool: Vec::new(),
        }
    }

    /// Number of pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of occupied near-tier cells (the sorted cursor included).
    #[cfg(test)]
    fn near_cells(&self) -> usize {
        self.cells.len()
            + self
                .cur
                .as_ref()
                .map_or(0, |(_, v)| usize::from(!v.is_empty()))
    }

    fn cell_of(&self, ev: &Event) -> u64 {
        ev.at.as_micros() / self.width_us
    }

    /// Schedules an event.
    pub fn push(&mut self, ev: Event) {
        self.len += 1;
        let cell = self.cell_of(&ev);
        if cell >= self.horizon {
            self.far.push(ev);
            return;
        }
        match self.cur.as_mut() {
            Some((ci, vec)) if *ci == cell => {
                // Keep the minimum cell sorted (descending) so pop_min
                // stays O(1); in-cell inserts are rare and small.
                let key = ev.key();
                let pos = vec.partition_point(|e| e.key() > key);
                vec.insert(pos, ev);
                return;
            }
            Some((ci, _)) if cell < *ci => {
                // The minimum moved earlier: demote the current cell
                // back into the map (it stays sorted; harmless).
                if let Some((old_ci, old_vec)) = self.cur.take() {
                    self.cells.insert(old_ci, old_vec);
                }
            }
            _ => {}
        }
        self.cells
            .entry(cell)
            .or_insert_with(|| self.pool.pop().unwrap_or_default())
            .push(ev);
    }

    /// Drains `buf` into the queue, amortising the per-event cell lookup
    /// by batching consecutive same-cell runs: the destination cell's
    /// buffer is taken out of the map once per run instead of once per
    /// event. Barrier mailboxes and window remainders arrive in key
    /// order, so their runs are long. Leaves `buf` empty (capacity
    /// kept) for reuse.
    pub fn push_batch(&mut self, buf: &mut Vec<Event>) {
        if self.cur.is_some() {
            // The sorted cursor is live (fallback executor): route
            // through `push` so in-cursor inserts stay ordered.
            for ev in buf.drain(..) {
                self.push(ev);
            }
            return;
        }
        self.len += buf.len();
        self.file_runs(buf.drain(..));
    }

    /// Files already-counted events into the cell map, or into the far
    /// heap when at or past the horizon. The destination cell's buffer
    /// is taken out of the map once per same-cell run instead of once
    /// per event. Never touches the sorted cursor, so callers keep every
    /// filed cell after it.
    fn file_runs(&mut self, events: impl Iterator<Item = Event>) {
        let mut run: Option<(u64, Vec<Event>)> = None;
        for ev in events {
            let cell = self.cell_of(&ev);
            if cell >= self.horizon {
                self.far.push(ev);
                continue;
            }
            match run.as_mut() {
                Some((ci, vec)) if *ci == cell => vec.push(ev),
                _ => {
                    if let Some((ci, vec)) = run.take() {
                        self.cells.insert(ci, vec);
                    }
                    let mut vec = self
                        .cells
                        .remove(&cell)
                        .unwrap_or_else(|| self.pool.pop().unwrap_or_default());
                    vec.push(ev);
                    run = Some((cell, vec));
                }
            }
        }
        if let Some((ci, vec)) = run.take() {
            self.cells.insert(ci, vec);
        }
    }

    /// Moves the horizon to `cell + NEAR_CELLS` and migrates every far
    /// event now before it into the near tier. Every migrated cell is at
    /// or past the old horizon, so after the sorted cursor. The heap pops
    /// in key order, so migrated events arrive cell-grouped.
    fn advance_horizon(&mut self, cell: u64) {
        self.horizon = self.horizon.max(cell.saturating_add(NEAR_CELLS));
        let mut due = Vec::new();
        while self
            .far
            .peek()
            .is_some_and(|top| self.cell_of(top) < self.horizon)
        {
            due.extend(self.far.pop());
        }
        self.file_runs(due.into_iter());
    }

    /// Promotes the minimum map cell to `cur` (sorted) if `cur` is empty,
    /// first refilling the near tier from the far heap when it ran dry.
    fn refill(&mut self) {
        if let Some((_, vec)) = self.cur.as_ref() {
            if !vec.is_empty() {
                return;
            }
        }
        if let Some((_, vec)) = self.cur.take() {
            self.pool.push(vec);
        }
        if self.cells.is_empty() {
            if let Some(cell) = self.far.peek().map(|e| self.cell_of(e)) {
                self.advance_horizon(cell);
            }
        }
        if let Some((ci, mut vec)) = self.cells.pop_first() {
            vec.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.cur = Some((ci, vec));
        }
    }

    /// Key of the earliest pending event, if any (sorts the minimum cell).
    pub fn peek_min_key(&mut self) -> Option<(SimTime, u64, u64)> {
        self.refill();
        self.cur
            .as_ref()
            .and_then(|(_, vec)| vec.last().map(Event::key))
    }

    /// Removes and returns the earliest pending event.
    pub fn pop_min(&mut self) -> Option<Event> {
        self.refill();
        let (_, vec) = self.cur.as_mut()?;
        let ev = vec.pop()?;
        self.len -= 1;
        Some(ev)
    }

    /// Earliest pending event *time* without sorting or migrating
    /// anything: scans only the minimum near cell, or peeks the far heap
    /// when the near tier is empty. Used by the windowed executor to
    /// decide which cell to open next.
    pub fn peek_min_at(&mut self) -> Option<SimTime> {
        if let Some((_, vec)) = self.cur.as_ref() {
            if let Some(m) = vec.iter().map(|e| e.at).min() {
                return Some(m);
            }
        }
        match self.cells.iter().next() {
            Some((_, vec)) => vec.iter().map(|e| e.at).min(),
            None => self.far.peek().map(|e| e.at),
        }
    }

    /// Removes the whole cell at `idx`, unsorted. Returns `None` when the
    /// cell has no events. A cell at or past the horizon first moves the
    /// horizon beyond it.
    pub fn take_cell(&mut self, idx: u64) -> Option<Vec<Event>> {
        if idx >= self.horizon {
            self.advance_horizon(idx);
        }
        if let Some((ci, _)) = self.cur.as_ref() {
            if *ci == idx {
                if let Some((_, vec)) = self.cur.take() {
                    if vec.is_empty() {
                        self.pool.push(vec);
                        return None;
                    }
                    self.len -= vec.len();
                    return Some(vec);
                }
            }
        }
        if let Some(vec) = self.cells.remove(&idx) {
            self.len -= vec.len();
            return Some(vec);
        }
        None
    }

    /// Returns an emptied cell buffer to the allocation pool.
    pub fn recycle(&mut self, mut vec: Vec<Event>) {
        vec.clear();
        self.pool.push(vec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, origin: u64, seq: u64) -> Event {
        Event {
            at: SimTime::from_micros(at_us),
            origin,
            seq,
            kind: EventKind::ChurnToggle(DeviceId::new(origin)),
        }
    }

    #[test]
    fn pops_in_key_order_across_cells() {
        let mut q = CalendarQueue::new(1_000);
        let keys = [
            (5_000, 1, 0),
            (100, 0, 0),
            (100, 0, 1),
            (2_500, 7, 2),
            (100, 2, 0),
            (999, 9, 9),
            (1_000, 0, 3),
        ];
        for (at, o, s) in keys {
            q.push(ev(at, o, s));
        }
        assert_eq!(q.len(), keys.len());
        let mut sorted: Vec<_> = keys
            .iter()
            .map(|&(at, o, s)| (SimTime::from_micros(at), o, s))
            .collect();
        sorted.sort();
        let mut popped = Vec::new();
        while let Some(e) = q.pop_min() {
            popped.push(e.key());
        }
        assert_eq!(popped, sorted);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_below_current_cell_is_seen_first() {
        let mut q = CalendarQueue::new(1_000);
        q.push(ev(5_000, 0, 0));
        assert_eq!(q.peek_min_key(), Some((SimTime::from_micros(5_000), 0, 0)));
        // cur now holds cell 5; a push into an earlier cell must win.
        q.push(ev(100, 1, 0));
        assert_eq!(q.peek_min_key(), Some((SimTime::from_micros(100), 1, 0)));
        assert_eq!(q.pop_min().map(|e| e.at.as_micros()), Some(100));
        assert_eq!(q.pop_min().map(|e| e.at.as_micros()), Some(5_000));
    }

    #[test]
    fn take_cell_returns_whole_bucket() {
        let mut q = CalendarQueue::new(1_000);
        q.push(ev(1_100, 0, 0));
        q.push(ev(1_900, 1, 0));
        q.push(ev(2_000, 2, 0));
        assert_eq!(q.peek_min_at(), Some(SimTime::from_micros(1_100)));
        let cell = q.take_cell(1).map(|v| v.len());
        assert_eq!(cell, Some(2));
        assert_eq!(q.len(), 1);
        assert!(q.take_cell(1).is_none());
        assert_eq!(q.peek_min_at(), Some(SimTime::from_micros(2_000)));
    }

    #[test]
    fn take_cell_grabs_the_sorted_cursor_too() {
        let mut q = CalendarQueue::new(1_000);
        q.push(ev(1_100, 0, 0));
        q.push(ev(1_200, 1, 0));
        // Sorting promotes cell 1 into the cursor.
        let _ = q.peek_min_key();
        let cell = q.take_cell(1).map(|v| v.len());
        assert_eq!(cell, Some(2));
        assert_eq!(q.len(), 0);
        assert!(q.pop_min().is_none());
    }

    #[test]
    fn push_batch_is_equivalent_to_push() {
        let keys = [
            (100, 0, 0),
            (150, 0, 1),
            (1_200, 1, 0),
            (1_300, 1, 1),
            (100, 2, 0),
            (7_000, 3, 0),
            (1_250, 4, 0),
        ];
        let mut a = CalendarQueue::new(1_000);
        let mut b = CalendarQueue::new(1_000);
        for (at, o, s) in keys {
            a.push(ev(at, o, s));
        }
        let mut buf: Vec<Event> = keys.iter().map(|&(at, o, s)| ev(at, o, s)).collect();
        b.push_batch(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(a.len(), b.len());
        loop {
            let (x, y) = (a.pop_min().map(|e| e.key()), b.pop_min().map(|e| e.key()));
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
        // Batching into a queue with a live sorted cursor keeps order.
        let mut c = CalendarQueue::new(1_000);
        c.push(ev(500, 9, 0));
        let _ = c.peek_min_key();
        let mut buf: Vec<Event> = vec![ev(400, 8, 0), ev(600, 8, 1), ev(2_000, 8, 2)];
        c.push_batch(&mut buf);
        let popped: Vec<u64> =
            std::iter::from_fn(|| c.pop_min().map(|e| e.at.as_micros())).collect();
        assert_eq!(popped, vec![400, 500, 600, 2_000]);
    }

    #[test]
    fn mixed_peek_and_pop_after_windowed_use() {
        let mut q = CalendarQueue::new(500);
        for i in 0..100u64 {
            q.push(ev(i * 137 % 5_000, i, 0));
        }
        // Windowed-style consumption of the two earliest cells.
        let mut drained = 0;
        for _ in 0..2 {
            if let Some(min) = q.peek_min_at() {
                if let Some(v) = q.take_cell(min.as_micros() / 500) {
                    drained += v.len();
                    q.recycle(Vec::new());
                }
            }
        }
        // Remaining events still pop in order.
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some(e) = q.pop_min() {
            assert!(e.at >= last);
            last = e.at;
            popped += 1;
        }
        assert_eq!(drained + popped, 100);
    }

    /// Removes from `reference` and returns, in order, the keys that fall
    /// in `cell` (cell width `w` µs).
    fn take_from_reference(
        reference: &mut std::collections::BTreeSet<(SimTime, u64, u64)>,
        cell: u64,
        w: u64,
    ) -> Vec<(SimTime, u64, u64)> {
        let due: Vec<_> = reference
            .iter()
            .filter(|k| k.0.as_micros() / w == cell)
            .copied()
            .collect();
        for k in &due {
            reference.remove(k);
        }
        due
    }

    #[test]
    fn mixed_operations_across_the_horizon_match_a_sorted_reference() {
        use edgelet_util::rng::DetRng;
        use std::collections::BTreeSet;
        let w = 100u64;
        // Times span three horizons, so the run crosses it repeatedly.
        let span = 3 * NEAR_CELLS * w;
        let mut rng = DetRng::new(17);
        let mut q = CalendarQueue::new(w);
        let mut reference: BTreeSet<(SimTime, u64, u64)> = BTreeSet::new();
        let mut seq = 0u64;
        let mut fresh = |rng: &mut DetRng, floor: u64| {
            seq += 1;
            ev(floor + rng.range(0..span), rng.range(0..64u64), seq)
        };
        let mut floor = 0u64;
        for step in 0..4_000 {
            match rng.range(0..5u32) {
                0 | 1 => {
                    let e = fresh(&mut rng, floor);
                    reference.insert(e.key());
                    q.push(e);
                }
                2 => {
                    let mut buf: Vec<Event> = (0..rng.range(1..20usize))
                        .map(|_| fresh(&mut rng, floor))
                        .collect();
                    reference.extend(buf.iter().map(Event::key));
                    q.push_batch(&mut buf);
                    assert!(buf.is_empty());
                }
                3 => {
                    let want = reference.pop_first();
                    assert_eq!(q.pop_min().map(|e| e.key()), want, "step {step}");
                    if let Some(k) = want {
                        floor = k.0.as_micros();
                    }
                }
                _ => {
                    // Either the minimum cell (windowed use) or an
                    // arbitrary one, possibly far past the horizon.
                    let cell = if rng.chance(0.5) {
                        q.peek_min_at().map_or(0, |t| t.as_micros() / w)
                    } else {
                        (floor + rng.range(0..span)) / w
                    };
                    let mut got: Vec<_> = q
                        .take_cell(cell)
                        .map(|v| v.iter().map(Event::key).collect())
                        .unwrap_or_default();
                    got.sort();
                    assert_eq!(got, take_from_reference(&mut reference, cell, w));
                }
            }
            assert_eq!(q.len(), reference.len(), "step {step}");
            assert_eq!(
                q.peek_min_at(),
                reference.iter().next().map(|k| k.0),
                "step {step}"
            );
        }
        assert!(
            q.horizon > 2 * NEAR_CELLS,
            "the run never crossed the horizon"
        );
        let drained: Vec<_> = std::iter::from_fn(|| q.pop_min().map(|e| e.key())).collect();
        assert_eq!(drained, reference.into_iter().collect::<Vec<_>>());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn take_cell_past_the_horizon() {
        let w = 1_000u64;
        let mut q = CalendarQueue::new(w);
        let far_cell = 5 * NEAR_CELLS;
        q.push(ev(3 * w, 0, 0));
        q.push(ev(far_cell * w + 10, 1, 0));
        q.push(ev(far_cell * w + 20, 2, 0));
        q.push(ev((far_cell + 1) * w, 3, 0));
        assert_eq!(q.near_cells(), 1);
        let cell = q.take_cell(far_cell).map(|v| v.len());
        assert_eq!(cell, Some(2));
        assert_eq!(q.len(), 2);
        assert!(q.horizon > far_cell);
        // The near cell before the old horizon survives the move.
        assert_eq!(q.pop_min().map(|e| e.at.as_micros()), Some(3 * w));
        assert_eq!(
            q.pop_min().map(|e| e.at.as_micros()),
            Some((far_cell + 1) * w)
        );
        assert!(q.pop_min().is_none());
        assert!(q.take_cell(10 * NEAR_CELLS).is_none());
    }

    #[test]
    fn migration_covers_every_cell_before_the_new_horizon() {
        let w = 1_000u64;
        let mut q = CalendarQueue::new(w);
        let base = 5 * NEAR_CELLS;
        let new_horizon = base + NEAR_CELLS;
        for (i, cell) in [base, new_horizon - 1, new_horizon].into_iter().enumerate() {
            q.push(ev(cell * w, i as u64, 0));
        }
        assert_eq!(q.take_cell(base).map(|v| v.len()), Some(1));
        assert_eq!(q.horizon, new_horizon);
        // The last near cell migrated; the horizon cell stayed far.
        assert_eq!(q.near_cells(), 1);
        assert_eq!(q.take_cell(new_horizon - 1).map(|v| v.len()), Some(1));
        assert_eq!(q.near_cells(), 0);
        assert_eq!(q.take_cell(new_horizon).map(|v| v.len()), Some(1));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_min_at_with_only_far_events() {
        let w = 1_000u64;
        let mut q = CalendarQueue::new(w);
        let base = 2 * NEAR_CELLS * w;
        q.push(ev(base + 700, 0, 0));
        q.push(ev(base + 300, 1, 0));
        q.push(ev(base + 9 * w, 2, 0));
        assert_eq!(q.near_cells(), 0);
        assert_eq!(q.peek_min_at(), Some(SimTime::from_micros(base + 300)));
        // Peeking the time migrates nothing; peeking the key does.
        assert_eq!(q.near_cells(), 0);
        assert_eq!(
            q.peek_min_key(),
            Some((SimTime::from_micros(base + 300), 1, 0))
        );
        assert_eq!(q.near_cells(), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn hour_scale_churn_stays_out_of_the_near_map() {
        use edgelet_util::rng::DetRng;
        let w = 10_000u64; // a 10 ms lookahead
        let hour = 3_600_000_000u64;
        let mut q = CalendarQueue::new(w);
        let mut rng = DetRng::new(3);
        for d in 0..20_000u64 {
            q.push(ev(rng.range(hour / 2..3 * hour), d, 0));
        }
        assert_eq!(q.len(), 20_000);
        assert!(q.near_cells() <= NEAR_CELLS as usize);
        // Windowed-style consumption migrates one horizon at a time.
        let mut taken = 0;
        for _ in 0..200 {
            let Some(min) = q.peek_min_at() else { break };
            if let Some(v) = q.take_cell(min.as_micros() / w) {
                taken += v.len();
                q.recycle(v);
            }
            assert!(q.near_cells() <= NEAR_CELLS as usize);
        }
        assert!(taken >= 200);
        assert_eq!(q.len(), 20_000 - taken);
    }
}
