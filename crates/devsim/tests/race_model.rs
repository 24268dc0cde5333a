//! Differential test of the race detector's flat shadow memory.
//!
//! `reference` is the tracker as it was before the shadow memory
//! became dense: one `BTreeMap` cell per touched location and a
//! `BTreeMap`-interned thread table. It is kept here, unchanged, as the
//! model. Both trackers are driven with the same random schedule —
//! iteration threads, lanes, epochs, suspensions, plain and atomic
//! writes and reads on global and local arrays, in-bounds and wild
//! indices, barriers kept or dropped — and must agree on `accesses()`
//! and `conflicts()` after every step and on `races()` at the end.
//!
//! Schedules follow the executor order the tracker documents:
//! iteration vectors arrive in increasing lexicographic order, groups
//! run in increasing order and a group's lane and local accesses all
//! happen before the next group starts.
//!
//! Batch-shaped schedules drive the batch entry point
//! ([`RaceTracker::log_batch`]) against the same model, which logs
//! each tape one access at a time, lane-major, the order the batch VM
//! used to replay it in: masked, affine, lane-indexed and
//! one-element-for-every-lane entries, an element touched twice in
//! one lane, batches among scalar iterations of the same outer index,
//! and grouped phases run batched or lane by lane over three or more
//! groups with local arrays.

use paccport_devsim::{MemLoc, RaceTracker, Tape, TapeEntry, TapeIndex, TapeThreads, ThreadId};
use paccport_trace::rng::Rng;
use proptest::prelude::*;

/// The first draws of schedule 5, pinned so the generated schedules
/// never shift under the shared generator.
#[test]
fn schedule_stream_known_answer() {
    let mut rng = Rng::new(5);
    assert_eq!(rng.below(3), 2);
    assert!(rng.chance(50, 100));
    assert_eq!(
        [rng.range(1, 3), rng.range(-2, 2), rng.range(0, 999)],
        [3, 2, 461]
    );
}

/// Which kinds of threads a schedule uses.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Iterations,
    Lanes,
    Mixed,
}

/// An index into an array of length `len`: usually in bounds, sometimes
/// just outside it or far away.
fn index(rng: &mut Rng, len: usize) -> i64 {
    match rng.below(10) {
        0 => -1 - rng.range(0, 2),
        1 => len as i64 + rng.range(0, 1),
        2 => 1 << 40,
        3 => i64::MIN,
        _ if len > 0 => rng.range(0, len as i64 - 1),
        _ => 0,
    }
}

/// The next iteration vector, strictly after `last` in lexicographic
/// order: bump one component and redraw everything after it.
fn next_iteration(rng: &mut Rng, last: &[i64]) -> Vec<i64> {
    if last.is_empty() {
        // Rank 0 has a single iteration; extend it instead.
        return vec![rng.range(-2, 2)];
    }
    let mut v = last.to_vec();
    let p = rng.below(v.len() as u64) as usize;
    v[p] += rng.range(1, 2);
    for x in &mut v[p + 1..] {
        *x = rng.range(-2, 3);
    }
    v
}

/// Drive both trackers with one seeded schedule and compare them;
/// returns the conflict count they agree on.
fn check_schedule(seed: u64) -> Result<u64, String> {
    let mut rng = Rng::new(seed);
    let mode = match rng.below(3) {
        0 => Mode::Iterations,
        1 => Mode::Lanes,
        _ => Mode::Mixed,
    };
    let barriers_dropped = rng.chance(50, 100);
    let global_names = ["a", "b", "c"];
    let local_names = ["sdata", "tile"];
    let globals: Vec<(&str, usize)> = global_names[..rng.range(1, 3) as usize]
        .iter()
        .map(|n| (*n, rng.below(7) as usize))
        .collect();
    let locals: Vec<(&str, usize)> = local_names[..rng.below(3) as usize]
        .iter()
        .map(|n| (*n, rng.below(6) as usize))
        .collect();
    let names = |shapes: &[(&str, usize)]| -> Vec<String> {
        shapes.iter().map(|(n, _)| n.to_string()).collect()
    };
    let model = reference::RaceTracker::new("k", names(&globals), names(&locals), barriers_dropped);
    let flat = RaceTracker::new("k", globals.clone(), locals.clone(), barriers_dropped);

    let rank = rng.below(4) as usize;
    let mut iter: Vec<i64> = (0..rank).map(|_| rng.range(-2, 2)).collect();
    let mut group = rng.range(0, 2);
    let mut started = false;
    let steps = rng.below(160);
    for step in 0..steps {
        match rng.below(20) {
            0 => {
                model.set_thread(None);
                flat.clear_thread();
            }
            1 => {
                let e = rng.below(4) as u32;
                model.set_epoch(e);
                flat.set_epoch(e);
            }
            2..=5 if mode != Mode::Lanes => {
                if started && !rng.chance(15, 100) {
                    iter = next_iteration(&mut rng, &iter);
                }
                started = true;
                model.set_thread(Some(ThreadId::Iter(iter.clone())));
                flat.set_iteration(&iter);
            }
            2..=5 => {
                if rng.chance(20, 100) {
                    group += rng.range(1, 2);
                }
                let lane = rng.range(0, 4);
                model.set_thread(Some(ThreadId::Lane { group, lane }));
                flat.set_lane(group, lane);
            }
            6 if mode == Mode::Mixed => {
                if rng.chance(30, 100) {
                    group += 1;
                }
                let lane = rng.range(0, 2);
                model.set_thread(Some(ThreadId::Lane { group, lane }));
                flat.set_lane(group, lane);
            }
            _ => {
                let local = !locals.is_empty() && rng.chance(35, 100);
                let shapes = if local { &locals } else { &globals };
                // Now and then an array the tracker was not told about.
                let array = rng.below(shapes.len() as u64 + 1) as u32;
                let len = shapes.get(array as usize).map_or(0, |s| s.1);
                let i = index(&mut rng, len);
                let loc = if local {
                    MemLoc::local(array, group, i)
                } else {
                    MemLoc::global(array, i)
                };
                match rng.below(5) {
                    0 | 1 => {
                        model.log_read(loc);
                        flat.log_read(loc);
                    }
                    2 | 3 => {
                        model.log_write(loc, false);
                        flat.log_write(loc, false);
                    }
                    _ => {
                        model.log_write(loc, true);
                        flat.log_write(loc, true);
                    }
                }
            }
        }
        let (want, got) = (
            (model.accesses(), model.conflicts()),
            (flat.accesses(), flat.conflicts()),
        );
        if want != got {
            return Err(format!(
                "seed {seed} step {step}: (accesses, conflicts) {got:?}, model {want:?}"
            ));
        }
    }
    if model.races() != flat.races() {
        return Err(format!(
            "seed {seed}: races\n{:#?}\nmodel\n{:#?}",
            flat.races(),
            model.races()
        ));
    }
    Ok(model.conflicts())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn flat_shadow_matches_the_btreemap_model(seed in 0u64..1_000_000) {
        check_schedule(seed)?;
    }
}

/// Enough fixed seeds that every generator branch fires, including
/// conflicts, dedup hits and wild indices.
#[test]
fn fixed_seeds_agree_and_exercise_conflicts() {
    let mut racy = 0;
    for seed in 0..2000 {
        if check_schedule(seed).unwrap() > 0 {
            racy += 1;
        }
    }
    assert!(racy > 200, "only {racy} of 2000 schedules had a conflict");
}

/// A batch's tape under construction, over `lanes` lanes of arrays
/// `shapes` (the globals, then `locals` from `n_globals` on).
struct TapeBuilder<'s> {
    shapes: &'s [(&'s str, usize)],
    n_globals: usize,
    lanes: usize,
    entries: Vec<TapeEntry>,
    masks: Vec<bool>,
    lane_idx: Vec<i64>,
}

impl TapeBuilder<'_> {
    /// A random entry: affine, lane-indexed or one element for every
    /// lane, sometimes the previous entry's element again, sometimes
    /// under a lane mask, and now and then off the end of its array.
    fn push(&mut self, rng: &mut Rng, locals: bool) {
        let n = self.lanes as i64;
        let n_locals = self.shapes.len() - self.n_globals;
        let prev = self.entries.last().copied();
        let mut e = match prev {
            Some(p) if rng.chance(20, 100) => p,
            _ => {
                let array = if locals && n_locals > 0 && rng.chance(45, 100) {
                    self.n_globals + rng.below(n_locals as u64) as usize
                } else {
                    rng.below(self.n_globals as u64) as usize
                };
                let len = self.shapes[array].1 as i64;
                let wild = rng.chance(4, 100);
                let index = match rng.below(5) {
                    0 => {
                        let at = self.lane_idx.len() as u32;
                        for _ in 0..n {
                            let i = if wild && rng.chance(1, 2) {
                                len + rng.range(0, 2)
                            } else {
                                rng.range(0, (len - 1).max(0))
                            };
                            self.lane_idx.push(i);
                        }
                        TapeIndex::Lanes(at)
                    }
                    // Every lane on one element: its reader slots fill.
                    1 => TapeIndex::Affine {
                        base: rng.range(0, (len - 1).max(0)),
                        stride: 0,
                    },
                    _ => {
                        let stride: i64 = *rng.pick(&[1, 1, 2, -1]);
                        let span = stride.abs() * (n - 1);
                        let base = if wild || span >= len {
                            rng.range(-2, len + 1)
                        } else {
                            rng.range(0, len - 1 - span)
                        };
                        let base = if stride < 0 { base + span } else { base };
                        TapeIndex::Affine { base, stride }
                    }
                };
                TapeEntry {
                    array: array as u32,
                    index,
                    write: false,
                    mask: None,
                }
            }
        };
        e.write = rng.chance(40, 100);
        e.mask = None;
        if rng.chance(30, 100) {
            let count = (self.masks.len() / self.lanes) as u32;
            if count > 0 && rng.chance(1, 3) {
                e.mask = Some(rng.below(count as u64) as u32);
            } else {
                for _ in 0..n {
                    self.masks.push(rng.chance(60, 100));
                }
                e.mask = Some(count);
            }
        }
        self.entries.push(e);
    }

    /// Log the tape into both trackers: the batch entry point, and the
    /// model one access at a time, lane-major, each lane first made
    /// the model's current thread (`lane_thread(b)`).
    fn log(
        &self,
        model: &reference::RaceTracker,
        flat: &RaceTracker<'_>,
        threads: TapeThreads<'_>,
        group: i64,
    ) {
        for b in 0..self.lanes {
            let thread = match threads {
                TapeThreads::Iterations { outer, lo } => {
                    let mut v = outer.to_vec();
                    v.push(lo + b as i64);
                    ThreadId::Iter(v)
                }
                TapeThreads::Group(group) => ThreadId::Lane {
                    group,
                    lane: b as i64,
                },
            };
            model.set_thread(Some(thread));
            for e in &self.entries {
                if e.mask
                    .is_some_and(|m| !self.masks[m as usize * self.lanes + b])
                {
                    continue;
                }
                let i = match e.index {
                    TapeIndex::Affine { base, stride } => base + stride * b as i64,
                    TapeIndex::Lanes(at) => self.lane_idx[at as usize + b],
                };
                let a = e.array as usize;
                let loc = match a.checked_sub(self.n_globals) {
                    None => MemLoc::global(a as u32, i),
                    Some(l) => MemLoc::local(l as u32, group, i),
                };
                if e.write {
                    model.log_write(loc, false);
                } else {
                    model.log_read(loc);
                }
            }
        }
        flat.log_batch(&Tape {
            threads,
            lanes: self.lanes,
            entries: &self.entries,
            masks: &self.masks,
            lane_idx: &self.lane_idx,
        });
    }
}

/// One scalar access to a random global array (or a local one of
/// `group`), logged into both trackers.
fn scalar_access(
    rng: &mut Rng,
    model: &reference::RaceTracker,
    flat: &RaceTracker<'_>,
    shapes: &[(&str, usize)],
    n_globals: usize,
    group: Option<i64>,
) {
    let n_locals = shapes.len() - n_globals;
    let loc = match group {
        Some(g) if n_locals > 0 && rng.chance(40, 100) => {
            let l = rng.below(n_locals as u64) as usize;
            MemLoc::local(l as u32, g, index(rng, shapes[n_globals + l].1))
        }
        _ => {
            let a = rng.below(n_globals as u64) as usize;
            MemLoc::global(a as u32, index(rng, shapes[a].1))
        }
    };
    if rng.chance(40, 100) {
        model.log_write(loc, false);
        flat.log_write(loc, false);
    } else {
        model.log_read(loc);
        flat.log_read(loc);
    }
}

/// Drive the model and the batch entry point with one seeded
/// batch-shaped schedule and compare them, as [`check_schedule`] does;
/// returns the agreed conflict count.
///
/// Simple-kernel schedules interleave batches of an innermost loop with
/// scalar iterations of the same outer index (before a batch, after it
/// and repeating its last lane). Grouped schedules run three or more
/// groups whose phases each run batched or lane by lane, over global
/// and local arrays, with the barriers kept or dropped.
fn check_batch_schedule(seed: u64) -> Result<u64, String> {
    let mut rng = Rng::new(seed);
    let grouped = rng.chance(1, 2);
    let barriers_dropped = rng.chance(1, 2);
    let n_globals = rng.range(1, 3) as usize;
    let n_locals = if grouped { rng.below(3) as usize } else { 0 };
    let names = ["a", "b", "c", "sdata", "tile"];
    let mut shapes: Vec<(&str, usize)> = (0..n_globals)
        .map(|a| (names[a], rng.range(0, 12) as usize))
        .collect();
    shapes.extend((0..n_locals).map(|l| (names[3 + l], rng.range(0, 8) as usize)));
    let (globals, locals) = shapes.split_at(n_globals);
    let model = reference::RaceTracker::new(
        "k",
        globals.iter().map(|s| s.0.to_string()).collect(),
        locals.iter().map(|s| s.0.to_string()).collect(),
        barriers_dropped,
    );
    let flat = RaceTracker::new("k", globals.to_vec(), locals.to_vec(), barriers_dropped);
    let tape = |lanes: usize| TapeBuilder {
        shapes: &shapes,
        n_globals,
        lanes,
        entries: Vec::new(),
        masks: Vec::new(),
        lane_idx: Vec::new(),
    };
    let mut batched = 0;
    let agree = |step: &str| {
        let (want, got) = (
            (model.accesses(), model.conflicts()),
            (flat.accesses(), flat.conflicts()),
        );
        if want != got {
            return Err(format!(
                "seed {seed} {step}: (accesses, conflicts) {got:?}, model {want:?}"
            ));
        }
        Ok(())
    };
    if grouped {
        let lanes = rng.range(1, 6) as usize;
        let mut group = rng.range(0, 2);
        for _ in 0..rng.range(3, 5) {
            for phase in 0..rng.range(1, 4) {
                model.set_epoch(phase as u32);
                flat.set_epoch(phase as u32);
                if rng.chance(65, 100) {
                    let mut t = tape(lanes);
                    for _ in 0..rng.range(1, 6) {
                        t.push(&mut rng, true);
                    }
                    let before = model.accesses();
                    t.log(&model, &flat, TapeThreads::Group(group), group);
                    batched += model.accesses() - before;
                } else {
                    for lane in 0..lanes as i64 {
                        model.set_thread(Some(ThreadId::Lane { group, lane }));
                        flat.set_lane(group, lane);
                        for _ in 0..rng.below(4) {
                            scalar_access(&mut rng, &model, &flat, &shapes, n_globals, Some(group));
                        }
                    }
                }
                agree(&format!("group {group} phase {phase}"))?;
            }
            group += rng.range(1, 2);
        }
    } else {
        let mut outer: Vec<i64> = (0..rng.below(3)).map(|_| rng.range(-2, 2)).collect();
        // The latest inner index under `outer`: the next one repeats
        // it now and then, and otherwise follows it.
        let mut last: Option<i64> = None;
        let next = |rng: &mut Rng, last: Option<i64>| match last {
            None => rng.range(-2, 2),
            Some(l) if rng.chance(20, 100) => l,
            Some(l) => l + rng.range(1, 2),
        };
        for step in 0..rng.below(30) {
            match rng.below(6) {
                0 if !outer.is_empty() => {
                    outer = next_iteration(&mut rng, &outer);
                    last = None;
                }
                0 | 1 => {
                    // A scalar iteration, sometimes the latest again.
                    let j = next(&mut rng, last);
                    let mut iter = outer.clone();
                    iter.push(j);
                    model.set_thread(Some(ThreadId::Iter(iter.clone())));
                    flat.set_iteration(&iter);
                    last = Some(j);
                    for _ in 0..rng.below(4) {
                        scalar_access(&mut rng, &model, &flat, &shapes, n_globals, None);
                    }
                }
                2 => {
                    // Accesses by the current thread: the last lane of
                    // a batch, a scalar iteration's, or none.
                    if rng.chance(20, 100) {
                        model.set_thread(None);
                        flat.clear_thread();
                    }
                    scalar_access(&mut rng, &model, &flat, &shapes, n_globals, None);
                }
                _ => {
                    // A batch may start on the latest iteration.
                    let lo = next(&mut rng, last);
                    let lanes = rng.range(1, 6) as usize;
                    let mut t = tape(lanes);
                    for _ in 0..rng.range(1, 6) {
                        t.push(&mut rng, false);
                    }
                    let before = model.accesses();
                    let threads = TapeThreads::Iterations { outer: &outer, lo };
                    t.log(&model, &flat, threads, -1);
                    batched += model.accesses() - before;
                    last = Some(lo + lanes as i64 - 1);
                }
            }
            agree(&format!("step {step}"))?;
        }
    }
    if flat.batched_accesses() != batched {
        return Err(format!(
            "seed {seed}: {} batched accesses, {batched} logged by batches",
            flat.batched_accesses()
        ));
    }
    if model.races() != flat.races() {
        return Err(format!(
            "seed {seed}: races\n{:#?}\nmodel\n{:#?}",
            flat.races(),
            model.races()
        ));
    }
    Ok(model.conflicts())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn batch_entry_point_matches_the_btreemap_model(seed in 0u64..1_000_000) {
        check_batch_schedule(seed)?;
    }
}

/// Fixed batch-shaped seeds, racy and race-free ones both.
#[test]
fn fixed_batch_seeds_agree_and_exercise_conflicts() {
    let mut racy = 0;
    for seed in 0..2000 {
        if check_batch_schedule(seed).unwrap() > 0 {
            racy += 1;
        }
    }
    assert!(
        (200..1900).contains(&racy),
        "{racy} of 2000 batch schedules had a conflict"
    );
}

/// The tracker as it stood before the flat shadow memory, kept verbatim
/// as the model (only the imports are new).
mod reference {
    use paccport_devsim::{MemLoc, Race, RaceKind, ThreadId};
    use paccport_ir::MemSpace;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};

    fn level_of(a: &ThreadId, b: &ThreadId) -> Option<usize> {
        match (a, b) {
            (ThreadId::Iter(x), ThreadId::Iter(y)) => {
                x.iter().zip(y.iter()).position(|(p, q)| p != q)
            }
            (ThreadId::Lane { group: g1, .. }, ThreadId::Lane { group: g2, .. }) => {
                if g1 != g2 {
                    Some(0)
                } else {
                    None
                }
            }
            // Mixed kinds never occur within one kernel launch.
            _ => Some(0),
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Access {
        /// Index into `Inner::threads`.
        thread: usize,
        /// Phase index for grouped kernels; 0 for simple kernels.
        epoch: u32,
        atomic: bool,
    }

    #[derive(Debug, Default, Clone)]
    struct ShadowCell {
        /// First plain (non-atomic) writer.
        writer: Option<Access>,
        /// First atomic writer.
        atomic_writer: Option<Access>,
        /// Up to two readers from distinct threads (latest epoch each).
        readers: [Option<Access>; 2],
    }

    struct Inner {
        kernel: String,
        /// Global array names (by `ArrayId`) for diagnostics.
        global_names: Vec<String>,
        /// Local array names (by local slot) for diagnostics.
        local_names: Vec<String>,
        /// Interned thread ids; `Access::thread` indexes this.
        threads: Vec<ThreadId>,
        thread_index: BTreeMap<ThreadId, usize>,
        current: Option<usize>,
        epoch: u32,
        barriers_dropped: bool,
        shadow: BTreeMap<MemLoc, ShadowCell>,
        races: Vec<Race>,
        /// One recorded race per (space, array, kind, level) keeps the
        /// report readable on large footprints; `conflicts` still counts
        /// every detected pair.
        seen: BTreeSet<(MemSpace, u32, RaceKind, Option<usize>)>,
        accesses: u64,
        conflicts: u64,
    }

    /// Shadow-log collector for one kernel launch.
    ///
    /// Interior-mutable so the interpreter can log loads from within
    /// expression evaluation, which only holds `&Scope`. Single-threaded
    /// by construction (one launch is interpreted on one thread).
    pub struct RaceTracker {
        inner: RefCell<Inner>,
    }

    impl RaceTracker {
        pub fn new(
            kernel: &str,
            global_names: Vec<String>,
            local_names: Vec<String>,
            barriers_dropped: bool,
        ) -> RaceTracker {
            RaceTracker {
                inner: RefCell::new(Inner {
                    kernel: kernel.to_string(),
                    global_names,
                    local_names,
                    threads: Vec::new(),
                    thread_index: BTreeMap::new(),
                    current: None,
                    epoch: 0,
                    barriers_dropped,
                    shadow: BTreeMap::new(),
                    races: Vec::new(),
                    seen: BTreeSet::new(),
                    accesses: 0,
                    conflicts: 0,
                }),
            }
        }

        /// Set the logical thread subsequent accesses belong to. `None`
        /// suspends logging (loop-bound evaluation, region-reduction
        /// combines — synchronization points, not racy accesses).
        pub fn set_thread(&self, t: Option<ThreadId>) {
            let mut inner = self.inner.borrow_mut();
            let cur = t.map(|t| match inner.thread_index.get(&t) {
                Some(&i) => i,
                None => {
                    let i = inner.threads.len();
                    inner.threads.push(t.clone());
                    inner.thread_index.insert(t, i);
                    i
                }
            });
            inner.current = cur;
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
            let mut inner = self.inner.borrow_mut();
            let Some(thread) = inner.current else {
                return;
            };
            inner.accesses += 1;
            let acc = Access {
                thread,
                epoch: inner.epoch,
                atomic,
            };
            let cell = inner.shadow.entry(loc).or_default().clone();
            let mut found: Vec<(Access, RaceKind)> = Vec::new();
            if is_write {
                // A plain write races with any other thread's prior
                // access; an atomic write only with prior plain writes.
                if let Some(w) = cell.writer {
                    if conflicts(&inner, w, acc) {
                        found.push((w, RaceKind::WriteWrite));
                    }
                }
                if !atomic {
                    if let Some(w) = cell.atomic_writer {
                        if conflicts(&inner, w, acc) {
                            found.push((w, RaceKind::WriteWrite));
                        }
                    }
                    for r in cell.readers.iter().flatten() {
                        if conflicts(&inner, *r, acc) {
                            found.push((*r, RaceKind::ReadWrite));
                        }
                    }
                }
            } else if let Some(w) = cell.writer {
                if conflicts(&inner, w, acc) {
                    found.push((w, RaceKind::ReadWrite));
                }
            }
            for (prior, kind) in found {
                record(&mut inner, loc, prior, acc, kind);
            }
            // Update the shadow cell.
            let cell = inner.shadow.get_mut(&loc).expect("entry just created");
            if is_write {
                let slot = if atomic {
                    &mut cell.atomic_writer
                } else {
                    &mut cell.writer
                };
                if slot.is_none() {
                    *slot = Some(acc);
                }
            } else {
                // Keep the latest epoch per thread: phases are processed
                // in order, so only the most recent read can still be
                // unordered with a later same-group write.
                if let Some(r) = cell
                    .readers
                    .iter_mut()
                    .flatten()
                    .find(|r| r.thread == thread)
                {
                    r.epoch = acc.epoch;
                } else if let Some(slot) = cell.readers.iter_mut().find(|r| r.is_none()) {
                    *slot = Some(acc);
                }
            }
        }

        /// All recorded (deduplicated) races, earliest first.
        pub fn races(&self) -> Vec<Race> {
            self.inner.borrow().races.clone()
        }

        /// Total accesses logged.
        pub fn accesses(&self) -> u64 {
            self.inner.borrow().accesses
        }

        /// Total conflicting pairs detected (before deduplication).
        pub fn conflicts(&self) -> u64 {
            self.inner.borrow().conflicts
        }
    }

    /// Are two accesses by different threads unordered (hence racy if
    /// conflicting)?
    fn conflicts(inner: &Inner, a: Access, b: Access) -> bool {
        if a.thread == b.thread {
            return false;
        }
        match (&inner.threads[a.thread], &inner.threads[b.thread]) {
            (ThreadId::Lane { group: g1, .. }, ThreadId::Lane { group: g2, .. }) if g1 == g2 => {
                // Same group: phases are barrier-separated unless the
                // (miscompiled) schedule dropped them.
                inner.barriers_dropped || a.epoch == b.epoch
            }
            _ => true,
        }
    }

    fn record(inner: &mut Inner, loc: MemLoc, prior: Access, now: Access, kind: RaceKind) {
        inner.conflicts += 1;
        let first = inner.threads[prior.thread].clone();
        let second = inner.threads[now.thread].clone();
        let level = level_of(&first, &second);
        if !inner.seen.insert((loc.space, loc.array, kind, level)) {
            return;
        }
        let array = match loc.space {
            MemSpace::Global => inner.global_names.get(loc.array as usize),
            MemSpace::Local => inner.local_names.get(loc.array as usize),
        }
        .cloned()
        .unwrap_or_else(|| format!("#{}", loc.array));
        inner.races.push(Race {
            kernel: inner.kernel.clone(),
            array,
            space: loc.space,
            index: loc.index,
            kind,
            first,
            second,
            level,
        });
    }
}
