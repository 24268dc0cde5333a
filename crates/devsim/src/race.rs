//! Dynamic race detection for the simulated device.
//!
//! The interpreter executes parallel loops sequentially, so a data
//! race never corrupts results here the way it would on hardware —
//! but it *would* on the machines the paper used, which is exactly
//! what the static dependence analysis (`paccport_ir::deps`) is meant
//! to predict. This module records a shadow log of every global- and
//! local-memory access during functional execution, tagged with the
//! logical thread that performed it (the parallel-loop iteration
//! vector, or the group/lane pair for work-group kernels), and flags
//! cross-thread read-write and write-write conflicts.
//!
//! Synchronization model, mirroring the simulator and the analysis:
//!
//! - Distinct iterations of a parallel loop nest run unordered: any
//!   conflicting pair is a race.
//! - Lanes of one work group are ordered *across phases* (an implicit
//!   barrier separates phases, like CUDA `__syncthreads()`), so only
//!   same-phase conflicts race — unless the schedule dropped the
//!   barriers ([`RaceTracker::new`]'s `barriers_dropped`).
//! - Lanes of *different* groups are never ordered, in any phase.
//! - `Stmt::Atomic` updates synchronize (the same modeling choice
//!   `deps.rs` makes): atomic-atomic pairs never race, and the atomic
//!   side of an atomic/read pair is treated as ordered. A *plain*
//!   write against any other thread's access still races.
//!
//! Detection is online: each access is checked against the shadow
//! cell's recorded first plain writer, first atomic writer and (up to
//! two distinct) readers. Shadow memory is flat: every array gets a
//! dense vector of cells, one per element, sized from the array's real
//! length and allocated zeroed on the array's first in-bounds access,
//! so logging an access costs an index computation and a few compares.
//! A cell is four 8-byte slots, `(thread + 1) << 32 | epoch` each, so a
//! touched array costs 32 bytes per element for the launch. Local
//! arrays keep one such vector per array, after the global ones,
//! cleared when the next group starts. An index outside its array
//! (which the executor is about to reject with a bounds panic) goes to
//! a small sparse map instead, so a wild index never sizes an
//! allocation. Diagnostics name the kernel, the array, the element
//! index, and both conflicting iteration ids; names and [`ThreadId`]s
//! are only built when a race is recorded.
//!
//! Accesses arrive one at a time ([`RaceTracker::log_read`],
//! [`RaceTracker::log_write`]) from the scalar executors, or a whole
//! batch at once ([`RaceTracker::log_batch`]) from the batch VM, which
//! runs a loop's lanes op-major and records each memory op once on a
//! [`Tape`]. The batch entry point logs the tape lane-major — lane 0's
//! accesses in program order, then lane 1's, and so on — which is the
//! order the scalar path would have logged them in, so both paths
//! leave the same cells, reader slots and races. It takes one borrow
//! for the whole batch, interns the batch's new lanes as one run of
//! consecutive threads (a run records its iteration prefix, or its
//! group, once, so a lane costs the thread table nothing) and reads
//! each tape entry's array and index straight off the entry. A
//! thread's run is found by binary search; logging needs it only to
//! check an access against another thread's, and to compare a new
//! iteration with the latest one, which sits in the latest run.
//!
//! The tracker relies on the order in which the executors run
//! threads, and `debug_assert!`s it:
//!
//! - iteration vectors arrive in increasing lexicographic order, so a
//!   new one is always a new thread (repeating the current one is
//!   allowed); a batch's lanes are iterations `outer ++ [lo + lane]`,
//!   so they too arrive in order;
//! - groups run one after another in increasing order, each finishing
//!   all its phases, lane accesses and local accesses before the next
//!   group starts; lane ids are non-negative. A grouped batch is one
//!   phase of one group, at the epoch set for it.

use crate::memory::MemLoc;
use paccport_ir::MemSpace;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Logical identity of one simulated device thread.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThreadId {
    /// Iteration vector of a simple kernel's parallel loop nest.
    Iter(Vec<i64>),
    /// One lane of a work group (grouped kernels).
    Lane { group: i64, lane: i64 },
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadId::Iter(v) => {
                write!(f, "iteration (")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            ThreadId::Lane { group, lane } => write!(f, "group {group} lane {lane}"),
        }
    }
}

/// Kind of conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceKind {
    WriteWrite,
    ReadWrite,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceKind::WriteWrite => write!(f, "write-write"),
            RaceKind::ReadWrite => write!(f, "read-write"),
        }
    }
}

/// One detected cross-thread conflict.
#[derive(Debug, Clone, PartialEq)]
pub struct Race {
    pub kernel: String,
    pub array: String,
    pub space: MemSpace,
    pub index: i64,
    pub kind: RaceKind,
    /// The earlier access (simulation order).
    pub first: ThreadId,
    /// The later, conflicting access.
    pub second: ThreadId,
    /// Parallel-loop nest level the conflict is attributed to: the
    /// first level where the two iteration vectors differ. Grouped
    /// kernels' cross-group conflicts map to level 0 (their single
    /// parallel loop); same-group lane conflicts have no level (they
    /// sit *below* the parallel loop the static analysis judges).
    pub level: Option<usize>,
}

impl Race {
    /// Human-readable diagnostic naming the array, the element, and
    /// the two conflicting iterations.
    pub fn describe(&self) -> String {
        format!(
            "{} race on `{}`[{}] between {} and {} of kernel `{}`",
            self.kind, self.array, self.index, self.first, self.second, self.kernel
        )
    }
}

/// One recorded access: `(thread + 1) << 32 | epoch`, 0 when empty.
/// The epoch is the phase index for grouped kernels, 0 otherwise.
type Slot = u64;

fn slot(thread: u32, epoch: u32) -> Slot {
    (thread as u64) << 32 | epoch as u64
}

fn slot_thread(s: Slot) -> u32 {
    (s >> 32) as u32
}

fn slot_epoch(s: Slot) -> u32 {
    s as u32
}

/// Shadow state of one element. Which slot holds an access says what
/// it was: `[WRITER]` the first plain writer, `[ATOMIC_WRITER]` the
/// first atomic writer, `[READERS]` up to two readers from distinct
/// threads (latest epoch each).
type ShadowCell = [Slot; 4];
const WRITER: usize = 0;
const ATOMIC_WRITER: usize = 1;
const READERS: std::ops::Range<usize> = 2..4;

/// A run of interned threads with consecutive ids: one scalar thread,
/// or the lanes of one batch. [`Threads::id`] rebuilds a thread's
/// [`ThreadId`].
#[derive(Debug, Clone, Copy)]
enum Run {
    /// One thread: iteration `Threads::iters[start..start + len]`.
    Iter { start: u32, len: u32 },
    /// Thread `first + b`: iteration `iters[start..start + len] ++
    /// [lo + b]`.
    Iters { start: u32, len: u32, lo: i64 },
    /// Thread `first + b`: lane `lo + b` of work group `group`.
    Lanes { group: i64, lo: i64 },
}

/// Interned threads, numbered from 1 (a slot's 0 means "empty").
#[derive(Default)]
struct Threads {
    /// Each run's first thread, ascending; `runs` holds the runs.
    firsts: Vec<u32>,
    runs: Vec<Run>,
    /// The latest thread interned (0: none yet).
    last: u32,
    /// Arena holding iteration vectors (a run's common prefix) back to
    /// back.
    iters: Vec<i64>,
    /// The latest iteration thread (0: none yet).
    last_iter: u32,
    /// The group whose lanes `lanes` maps to threads.
    lane_group: Option<i64>,
    /// Lane id → thread (0: not seen yet in `lane_group`).
    lanes: Vec<u32>,
}

impl Threads {
    /// Thread `t`'s run and its offset in it.
    fn get(&self, t: u32) -> (Run, i64) {
        // The latest run first: it holds the latest iteration thread.
        let r = match self.firsts.last() {
            Some(&first) if first <= t => self.firsts.len() - 1,
            _ => self.firsts.partition_point(|&first| first <= t) - 1,
        };
        (self.runs[r], (t - self.firsts[r]) as i64)
    }

    /// Intern `n` threads as one run; returns the first one.
    fn push(&mut self, run: Run, n: usize) -> u32 {
        let first = self.last + 1;
        self.last = u32::try_from(n)
            .ok()
            .and_then(|n| self.last.checked_add(n))
            .expect("thread count fits in u32");
        self.firsts.push(first);
        self.runs.push(run);
        first
    }

    /// Append `v` to the arena; returns where it starts.
    fn store(&mut self, v: &[i64]) -> (u32, u32) {
        let start = u32::try_from(self.iters.len()).expect("iteration arena fits in u32");
        self.iters.extend_from_slice(v);
        (start, v.len() as u32)
    }

    /// Iteration thread `t`'s vector.
    fn iteration(&self, t: u32) -> impl Iterator<Item = i64> + '_ {
        let ((start, len), last) = match self.get(t) {
            (Run::Iter { start, len }, _) => ((start, len), None),
            (Run::Iters { start, len, lo }, b) => ((start, len), Some(lo + b)),
            (Run::Lanes { .. }, _) => unreachable!("not an iteration thread"),
        };
        let prefix = &self.iters[start as usize..][..len as usize];
        prefix.iter().copied().chain(last)
    }

    /// Is `head ++ tail` the latest iteration thread's vector? It must
    /// not come before it.
    fn repeats_last(&self, head: &[i64], tail: &[i64]) -> bool {
        if self.last_iter == 0 {
            return false;
        }
        let iter = || head.iter().chain(tail).copied();
        debug_assert!(
            self.iteration(self.last_iter).le(iter()),
            "iteration {:?} arrived after {:?}",
            iter().collect::<Vec<_>>(),
            self.iteration(self.last_iter).collect::<Vec<_>>()
        );
        self.iteration(self.last_iter).eq(iter())
    }

    fn intern_iteration(&mut self, iter: &[i64]) -> u32 {
        if !self.repeats_last(iter, &[]) {
            let (start, len) = self.store(iter);
            self.last_iter = self.push(Run::Iter { start, len }, 1);
        }
        self.last_iter
    }

    /// Intern the iterations `outer ++ [lo + b]` of a batch's lanes `b`
    /// in `0..n`, appending their threads to `ids`: lane 0 as
    /// [`Threads::intern_iteration`] would, and every new lane (each
    /// follows lane 0) in one run.
    fn intern_iterations(&mut self, outer: &[i64], lo: i64, n: usize, ids: &mut Vec<u32>) {
        let repeat = self.repeats_last(outer, &[lo]);
        if repeat {
            ids.push(self.last_iter);
        }
        let new = n - repeat as usize;
        if new > 0 {
            let (start, len) = self.store(outer);
            let lo = lo + repeat as i64;
            let first = self.push(Run::Iters { start, len, lo }, new);
            ids.extend(first..=self.last);
            self.last_iter = self.last;
        }
    }

    /// Make `lanes` map `group`'s lanes, starting empty for a new group.
    fn enter_lane_group(&mut self, group: i64) {
        if self.lane_group != Some(group) {
            debug_assert!(
                self.lane_group.is_none_or(|g| g < group),
                "group {group} ran after group {:?}",
                self.lane_group
            );
            self.lane_group = Some(group);
            self.lanes.clear();
        }
    }

    fn intern_lane(&mut self, group: i64, lane: i64) -> u32 {
        self.enter_lane_group(group);
        let l = usize::try_from(lane).expect("lane ids are non-negative");
        if l >= self.lanes.len() {
            self.lanes.resize(l + 1, 0);
        }
        if self.lanes[l] == 0 {
            self.lanes[l] = self.push(Run::Lanes { group, lo: lane }, 1);
        }
        self.lanes[l]
    }

    /// Intern lanes `0..n` of work group `group`, appending their
    /// threads to `ids`: in one run when the group has none yet.
    fn intern_group(&mut self, group: i64, n: usize, ids: &mut Vec<u32>) {
        self.enter_lane_group(group);
        if self.lanes.iter().all(|&t| t == 0) {
            let first = self.push(Run::Lanes { group, lo: 0 }, n);
            self.lanes.clear();
            self.lanes.extend(first..=self.last);
            ids.extend_from_slice(&self.lanes);
        } else {
            ids.extend((0..n as i64).map(|l| self.intern_lane(group, l)));
        }
    }

    /// Are two recorded accesses by different threads unordered (hence
    /// racy if conflicting)?
    fn unordered(&self, a: Slot, b: Slot, barriers_dropped: bool) -> bool {
        let (ta, tb) = (slot_thread(a), slot_thread(b));
        if ta == tb {
            return false;
        }
        match (self.get(ta).0, self.get(tb).0) {
            (Run::Lanes { group: g1, .. }, Run::Lanes { group: g2, .. }) if g1 == g2 => {
                // Same group: phases are barrier-separated unless the
                // (miscompiled) schedule dropped them.
                barriers_dropped || slot_epoch(a) == slot_epoch(b)
            }
            _ => true,
        }
    }

    /// Nest level of a conflict between threads `a` and `b` (see
    /// [`Race::level`]).
    fn level(&self, a: u32, b: u32) -> Option<usize> {
        match (self.get(a).0, self.get(b).0) {
            (Run::Lanes { group: g1, .. }, Run::Lanes { group: g2, .. }) => (g1 != g2).then_some(0),
            // Mixed kinds never occur within one kernel launch.
            (Run::Lanes { .. }, _) | (_, Run::Lanes { .. }) => Some(0),
            _ => self
                .iteration(a)
                .zip(self.iteration(b))
                .position(|(p, q)| p != q),
        }
    }

    fn id(&self, t: u32) -> ThreadId {
        match self.get(t) {
            (Run::Lanes { group, lo }, b) => ThreadId::Lane {
                group,
                lane: lo + b,
            },
            _ => ThreadId::Iter(self.iteration(t).collect()),
        }
    }
}

/// Shadow memory for one launch.
#[derive(Default)]
struct Shadow {
    /// Dense cells per array, numbered like [`RaceTracker`]'s `shapes`
    /// (the locals for the group `local_group` only), each empty until
    /// its array's first in-bounds access.
    dense: Vec<Vec<ShadowCell>>,
    local_group: Option<i64>,
    /// Out-of-bounds indices and unknown arrays.
    stray: BTreeMap<MemLoc, ShadowCell>,
}

impl Shadow {
    /// Make the local arrays, which start at `dense[locals]`, `group`'s
    /// instance: zeroed when `group` is new.
    fn enter_group(&mut self, group: i64, locals: usize) {
        if self.local_group != Some(group) {
            debug_assert!(
                self.local_group.is_none_or(|g| g < group),
                "group {group} touched local memory after group {:?}",
                self.local_group
            );
            self.local_group = Some(group);
            for cells in &mut self.dense[locals..] {
                cells.fill([0; 4]);
            }
        }
    }

    /// The cell for `loc`, whose array is `shapes[a]` (`a` is `None`
    /// for an array the tracker does not know).
    fn cell(&mut self, shapes: &[(&str, usize)], a: Option<usize>, loc: MemLoc) -> &mut ShadowCell {
        match (a, usize::try_from(loc.index)) {
            (Some(a), Ok(i)) if i < shapes[a].1 => {
                let cells = &mut self.dense[a];
                if cells.is_empty() {
                    *cells = vec![[0; 4]; shapes[a].1];
                }
                &mut cells[i]
            }
            _ => self.stray.entry(loc).or_default(),
        }
    }
}

/// Check an access by `now` against the accesses `cell` records,
/// call `race` for each one it conflicts with unordered, then record
/// it. The scalar and batch entry points share it, so both leave the
/// same cells, reader slots and races.
#[inline]
fn check(
    threads: &Threads,
    barriers_dropped: bool,
    cell: &mut ShadowCell,
    now: Slot,
    is_write: bool,
    atomic: bool,
    mut race: impl FnMut(Slot, RaceKind),
) {
    let mut conflict = |prior: Slot, kind: RaceKind| {
        if prior != 0 && threads.unordered(prior, now, barriers_dropped) {
            race(prior, kind);
        }
    };
    if is_write {
        // A plain write races with any other thread's prior access; an
        // atomic write only with prior plain writes.
        conflict(cell[WRITER], RaceKind::WriteWrite);
        if !atomic {
            conflict(cell[ATOMIC_WRITER], RaceKind::WriteWrite);
            for r in READERS {
                conflict(cell[r], RaceKind::ReadWrite);
            }
        }
        let first = &mut cell[if atomic { ATOMIC_WRITER } else { WRITER }];
        if *first == 0 {
            *first = now;
        }
    } else {
        conflict(cell[WRITER], RaceKind::ReadWrite);
        // Keep the latest epoch per thread: phases are processed in
        // order, so only the most recent read can still be unordered
        // with a later same-group write.
        let readers = &mut cell[READERS];
        let me = slot_thread(now);
        if let Some(r) = readers.iter_mut().find(|r| slot_thread(**r) == me) {
            *r = now;
        } else if let Some(r) = readers.iter_mut().find(|r| **r == 0) {
            *r = now;
        }
    }
}

/// What the tracker reports.
#[derive(Default)]
struct Log {
    races: Vec<Race>,
    /// One recorded race per (space, array, kind, level) keeps the
    /// report readable on large footprints; `conflicts` still counts
    /// every detected pair.
    seen: BTreeSet<(MemSpace, u32, RaceKind, Option<usize>)>,
    accesses: u64,
    /// Of `accesses`, those logged through [`RaceTracker::log_batch`].
    batched: u64,
    conflicts: u64,
}

#[derive(Default)]
struct Inner {
    threads: Threads,
    /// Thread subsequent accesses belong to (0: logging suspended).
    current: u32,
    epoch: u32,
    shadow: Shadow,
    log: Log,
    /// The threads of the batch being logged, by lane.
    lanes: Vec<u32>,
}

/// A batch's memory accesses for [`RaceTracker::log_batch`]: the batch
/// VM's access tape, each memory op recorded once for all the lanes
/// that perform it.
pub struct Tape<'t> {
    /// The threads lanes `0..lanes` are.
    pub threads: TapeThreads<'t>,
    pub lanes: usize,
    /// The accesses, in each lane's program order.
    pub entries: &'t [TapeEntry],
    /// `lanes` flags per lane mask, back to back: lane `b` performs an
    /// entry under mask `m` iff `masks[m * lanes + b]`.
    pub masks: &'t [bool],
    /// `lanes` element indices per [`TapeIndex::Lanes`] entry, back to
    /// back.
    pub lane_idx: &'t [i64],
}

/// Which threads a batch's lanes are.
#[derive(Debug, Clone, Copy)]
pub enum TapeThreads<'t> {
    /// Lane `b` is iteration `outer ++ [lo + b]` of a simple kernel's
    /// parallel loop nest. Such a batch touches no local array.
    Iterations { outer: &'t [i64], lo: i64 },
    /// Lane `b` is lane `b` of this work group, in the current epoch.
    Group(i64),
}

/// One memory op of a batch: each lane performing it reads or writes
/// (plainly) one element of one array.
#[derive(Debug, Clone, Copy)]
pub struct TapeEntry {
    /// The array, numbered like the tracker's: the global arrays
    /// first, then the local ones (local slot `s` is `globals + s`).
    pub array: u32,
    pub index: TapeIndex,
    pub write: bool,
    /// The lane mask ([`Tape::masks`]) of the lanes performing it;
    /// `None`: every lane.
    pub mask: Option<u32>,
}

/// Which element of its array each lane of a [`TapeEntry`] touches.
#[derive(Debug, Clone, Copy)]
pub enum TapeIndex {
    /// Lane `b` touches element `base + stride·b`.
    Affine { base: i64, stride: i64 },
    /// Lane `b` touches element `lane_idx[at + b]` ([`Tape::lane_idx`]).
    Lanes(u32),
}

/// Shadow-log collector for one kernel launch.
///
/// Interior-mutable so the interpreter can log loads from within
/// expression evaluation, which only holds `&Scope`. Single-threaded
/// by construction (one launch is interpreted on one thread).
pub struct RaceTracker<'a> {
    kernel: &'a str,
    /// `(name, element count)` of every global array, by `ArrayId`,
    /// then of every local array, by local slot.
    shapes: Vec<(&'a str, usize)>,
    /// How many of `shapes` are global arrays.
    n_globals: usize,
    barriers_dropped: bool,
    inner: RefCell<Inner>,
}

impl<'a> RaceTracker<'a> {
    pub fn new(
        kernel: &'a str,
        globals: Vec<(&'a str, usize)>,
        locals: Vec<(&'a str, usize)>,
        barriers_dropped: bool,
    ) -> RaceTracker<'a> {
        let n_globals = globals.len();
        let mut shapes = globals;
        shapes.extend(locals);
        let shadow = Shadow {
            dense: vec![Vec::new(); shapes.len()],
            ..Shadow::default()
        };
        RaceTracker {
            kernel,
            shapes,
            n_globals,
            barriers_dropped,
            inner: RefCell::new(Inner {
                shadow,
                ..Inner::default()
            }),
        }
    }

    /// Attribute subsequent accesses to the parallel-loop iteration
    /// `iter` of a simple kernel.
    pub fn set_iteration(&self, iter: &[i64]) {
        let inner = &mut *self.inner.borrow_mut();
        inner.current = inner.threads.intern_iteration(iter);
    }

    /// Attribute subsequent accesses to `lane` of work group `group`.
    pub fn set_lane(&self, group: i64, lane: i64) {
        let inner = &mut *self.inner.borrow_mut();
        inner.current = inner.threads.intern_lane(group, lane);
    }

    /// Suspend logging (loop-bound evaluation, region-reduction
    /// combines — synchronization points, not racy accesses).
    pub fn clear_thread(&self) {
        self.inner.borrow_mut().current = 0;
    }

    /// Set the barrier epoch (grouped kernels: the phase index).
    pub fn set_epoch(&self, e: u32) {
        self.inner.borrow_mut().epoch = e;
    }

    pub fn log_read(&self, loc: MemLoc) {
        self.log(loc, false, false);
    }

    pub fn log_write(&self, loc: MemLoc, atomic: bool) {
        self.log(loc, true, atomic);
    }

    fn log(&self, loc: MemLoc, is_write: bool, atomic: bool) {
        let Inner {
            threads,
            current,
            epoch,
            shadow,
            log,
            ..
        } = &mut *self.inner.borrow_mut();
        if *current == 0 {
            return;
        }
        log.accesses += 1;
        let now = slot(*current, *epoch);
        if loc.space == MemSpace::Local {
            shadow.enter_group(loc.group, self.n_globals);
        }
        let cell = shadow.cell(&self.shapes, self.array(&loc), loc);
        check(
            threads,
            self.barriers_dropped,
            cell,
            now,
            is_write,
            atomic,
            |prior, kind| self.record(threads, log, loc, prior, now, kind),
        );
    }

    /// Log a batch's accesses as the scalar path would have: lanes
    /// ascending, each lane's accesses in program order. The last
    /// lane's thread is the current one afterwards.
    pub fn log_batch(&self, tape: &Tape<'_>) {
        let n = tape.lanes;
        if n == 0 {
            return;
        }
        let Inner {
            threads,
            current,
            epoch,
            shadow,
            log,
            lanes,
        } = &mut *self.inner.borrow_mut();
        lanes.clear();
        let group = match tape.threads {
            TapeThreads::Iterations { outer, lo } => {
                threads.intern_iterations(outer, lo, n, lanes);
                debug_assert!(
                    tape.entries
                        .iter()
                        .all(|e| (e.array as usize) < self.n_globals),
                    "an iteration batch touched local memory"
                );
                -1
            }
            TapeThreads::Group(g) => {
                threads.intern_group(g, n, lanes);
                shadow.enter_group(g, self.n_globals);
                g
            }
        };
        let mut count = 0;
        for (b, &t) in lanes.iter().enumerate() {
            let now = slot(t, *epoch);
            for e in tape.entries {
                if e.mask.is_some_and(|m| !tape.masks[m as usize * n + b]) {
                    continue;
                }
                let i = match e.index {
                    TapeIndex::Affine { base, stride } => base + stride * b as i64,
                    TapeIndex::Lanes(at) => tape.lane_idx[at as usize + b],
                };
                count += 1;
                let a = e.array as usize;
                let cell = if (i as u64) < shadow.dense[a].len() as u64 {
                    &mut shadow.dense[a][i as usize]
                } else {
                    // The array's first access in the launch. (The
                    // batch VM proves every index in bounds, but an
                    // index outside would still land in the stray map.)
                    shadow.cell(&self.shapes, Some(a), self.loc(a, group, i))
                };
                check(
                    threads,
                    self.barriers_dropped,
                    cell,
                    now,
                    e.write,
                    false,
                    |prior, kind| {
                        self.record(threads, log, self.loc(a, group, i), prior, now, kind)
                    },
                );
            }
        }
        log.accesses += count;
        log.batched += count;
        *current = *lanes.last().expect("a batch has lanes");
    }

    /// The index in `shapes` of `loc`'s array, if the tracker knows it.
    fn array(&self, loc: &MemLoc) -> Option<usize> {
        let (a, n) = (loc.array as usize, self.n_globals);
        match loc.space {
            MemSpace::Global => (a < n).then_some(a),
            MemSpace::Local => (a < self.shapes.len() - n).then_some(n + a),
        }
    }

    /// The location of element `index` of `shapes[a]`, a local array
    /// of `group` or a global one.
    fn loc(&self, a: usize, group: i64, index: i64) -> MemLoc {
        match a.checked_sub(self.n_globals) {
            None => MemLoc::global(a as u32, index),
            Some(l) => MemLoc::local(l as u32, group, index),
        }
    }

    fn record(
        &self,
        threads: &Threads,
        log: &mut Log,
        loc: MemLoc,
        prior: Slot,
        now: Slot,
        kind: RaceKind,
    ) {
        log.conflicts += 1;
        let (first, second) = (slot_thread(prior), slot_thread(now));
        let level = threads.level(first, second);
        if !log.seen.insert((loc.space, loc.array, kind, level)) {
            return;
        }
        let array = self.array(&loc).map_or_else(
            || format!("#{}", loc.array),
            |a| self.shapes[a].0.to_string(),
        );
        log.races.push(Race {
            kernel: self.kernel.to_string(),
            array,
            space: loc.space,
            index: loc.index,
            kind,
            first: threads.id(first),
            second: threads.id(second),
            level,
        });
    }

    /// All recorded (deduplicated) races, earliest first.
    pub fn races(&self) -> Vec<Race> {
        self.inner.borrow().log.races.clone()
    }

    /// Total accesses logged.
    pub fn accesses(&self) -> u64 {
        self.inner.borrow().log.accesses
    }

    /// Of [`RaceTracker::accesses`], those logged a batch at a time
    /// ([`RaceTracker::log_batch`]).
    pub fn batched_accesses(&self) -> u64 {
        self.inner.borrow().log.batched
    }

    /// Total conflicting pairs detected (before deduplication).
    pub fn conflicts(&self) -> u64 {
        self.inner.borrow().log.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> RaceTracker<'static> {
        RaceTracker::new("k", vec![("a", 16), ("b", 16)], vec![("sdata", 16)], false)
    }

    #[test]
    fn disjoint_iterations_do_not_race() {
        let t = tracker();
        for i in 0..4 {
            t.set_iteration(&[i]);
            t.log_read(MemLoc::global(0, i));
            t.log_write(MemLoc::global(1, i), false);
        }
        assert!(t.races().is_empty());
        assert_eq!(t.accesses(), 8);
    }

    #[test]
    fn cross_iteration_read_write_is_flagged() {
        // iteration i reads a[i+1], writes a[i]: classic RW carried.
        let t = tracker();
        for i in 0..3 {
            t.set_iteration(&[i]);
            t.log_read(MemLoc::global(0, i + 1));
            t.log_write(MemLoc::global(0, i), false);
        }
        let races = t.races();
        assert!(!races.is_empty());
        let r = &races[0];
        assert_eq!(r.kind, RaceKind::ReadWrite);
        assert_eq!(r.array, "a");
        assert_eq!(r.level, Some(0));
        assert_ne!(r.first, r.second);
    }

    #[test]
    fn shared_accumulator_is_a_write_write_race() {
        let t = tracker();
        for i in 0..3 {
            t.set_iteration(&[i]);
            t.log_read(MemLoc::global(0, 0));
            t.log_write(MemLoc::global(0, 0), false);
        }
        let kinds: BTreeSet<RaceKind> = t.races().iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RaceKind::WriteWrite));
        assert!(kinds.contains(&RaceKind::ReadWrite));
        let ww = t
            .races()
            .into_iter()
            .find(|r| r.kind == RaceKind::WriteWrite)
            .unwrap();
        assert_eq!(ww.first, ThreadId::Iter(vec![0]));
        assert_eq!(ww.second, ThreadId::Iter(vec![1]));
        assert!(ww.describe().contains("`a`[0]"));
    }

    #[test]
    fn atomic_updates_synchronize() {
        let t = tracker();
        for i in 0..4 {
            t.set_iteration(&[i]);
            t.log_write(MemLoc::global(0, 0), true);
        }
        assert!(t.races().is_empty());
        // …but a plain write against them still races.
        t.set_iteration(&[9]);
        t.log_write(MemLoc::global(0, 0), false);
        assert_eq!(t.races()[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn barrier_separated_phases_do_not_race() {
        // Lane 0 writes sdata[1] in phase 0; lane 1 reads it in
        // phase 1 — the classic staged-reduction handoff.
        let t = tracker();
        t.set_epoch(0);
        t.set_lane(0, 0);
        t.log_write(MemLoc::local(0, 0, 1), false);
        t.set_epoch(1);
        t.set_lane(0, 1);
        t.log_read(MemLoc::local(0, 0, 1));
        assert!(t.races().is_empty());
    }

    #[test]
    fn same_phase_lane_conflict_is_flagged() {
        let t = tracker();
        t.set_epoch(0);
        t.set_lane(0, 0);
        t.log_write(MemLoc::local(0, 0, 1), false);
        t.set_lane(0, 1);
        t.log_read(MemLoc::local(0, 0, 1));
        let races = t.races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].array, "sdata");
        // Same group: below the parallel loop, no nest level.
        assert_eq!(races[0].level, None);
    }

    #[test]
    fn dropped_barriers_expose_phase_conflicts() {
        let t = RaceTracker::new("k", vec![("a", 16)], vec![("sdata", 16)], true);
        t.set_epoch(0);
        t.set_lane(0, 0);
        t.log_write(MemLoc::local(0, 0, 1), false);
        t.set_epoch(1);
        t.set_lane(0, 1);
        t.log_read(MemLoc::local(0, 0, 1));
        assert_eq!(t.races().len(), 1);
    }

    #[test]
    fn cross_group_conflicts_ignore_phases() {
        let t = tracker();
        t.set_epoch(0);
        t.set_lane(0, 0);
        t.log_write(MemLoc::global(0, 7), false);
        t.set_epoch(1);
        t.set_lane(1, 0);
        t.log_write(MemLoc::global(0, 7), false);
        let races = t.races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].level, Some(0));
    }

    #[test]
    fn local_shadow_starts_fresh_in_each_group() {
        // Same local element, different groups: distinct instances.
        let t = tracker();
        t.set_lane(0, 0);
        t.log_write(MemLoc::local(0, 0, 3), false);
        t.set_lane(1, 0);
        t.log_write(MemLoc::local(0, 1, 3), false);
        assert!(t.races().is_empty());
    }

    #[test]
    fn nest_level_attribution_uses_first_differing_component() {
        let t = tracker();
        t.set_iteration(&[2, 0]);
        t.log_write(MemLoc::global(0, 5), false);
        t.set_iteration(&[2, 1]);
        t.log_write(MemLoc::global(0, 5), false);
        assert_eq!(t.races()[0].level, Some(1));
    }

    #[test]
    fn accesses_outside_a_thread_are_not_logged() {
        let t = tracker();
        t.log_write(MemLoc::global(0, 0), false);
        t.set_iteration(&[0]);
        t.log_write(MemLoc::global(0, 0), false);
        t.clear_thread();
        t.log_write(MemLoc::global(0, 0), false);
        assert!(t.races().is_empty());
        assert_eq!(t.accesses(), 1);
    }

    #[test]
    fn out_of_bounds_indices_are_tracked_without_dense_storage() {
        let t = tracker();
        for (i, idx) in [16, -1, 1 << 40].into_iter().enumerate() {
            t.set_iteration(&[2 * i as i64]);
            t.log_write(MemLoc::global(0, idx), false);
            t.set_iteration(&[2 * i as i64 + 1]);
            t.log_write(MemLoc::global(0, idx), false);
        }
        assert_eq!(t.conflicts(), 3);
        let inner = t.inner.borrow();
        assert!(inner.shadow.dense.iter().all(Vec::is_empty));
        assert_eq!(inner.shadow.stray.len(), 3);
    }

    #[test]
    fn dedup_keeps_one_race_per_array_and_kind_but_counts_all() {
        let t = tracker();
        for i in 0..8 {
            t.set_iteration(&[i]);
            t.log_write(MemLoc::global(0, 0), false);
        }
        assert_eq!(t.races().len(), 1);
        assert_eq!(t.conflicts(), 7);
    }
}
