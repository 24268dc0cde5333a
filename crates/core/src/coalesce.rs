//! Request coalescing primitives for the experiment server.
//!
//! [`Singleflight`] is keyed in-flight deduplication: when N callers
//! ask for the same key concurrently, exactly one (the *leader*) runs
//! the computation and every other caller (*followers*) blocks until
//! the leader publishes its result, then shares it. Unlike the
//! [`paccport_compilers::ArtifactCache`] — which memoizes forever —
//! a flight lives only while its computation is running: once the
//! leader finishes, the key is vacant again and the next request for
//! it starts a fresh flight. That is exactly the semantics a serving
//! layer wants on top of a cache: the cache makes *repeated* work
//! cheap, the singleflight makes *concurrent duplicate* work free.
//!
//! A flight is one `OnceLock` slot in a keyed map, the same std wait
//! the artifact cache uses for its compile singleflight: the leader
//! runs its closure inside `get_or_init`, followers block in theirs.
//! If the leader panics, the slot stays empty and the next caller
//! blocked on it (or the next to arrive) runs its own closure and
//! leads instead.
//!
//! [`Gate`] is a test-only rendezvous: threads park on [`Gate::pass`]
//! until somebody calls [`Gate::open`]. The server threads it through
//! its request and run paths so integration tests can hold requests
//! mid-flight deterministically (fill the admission queue, pile
//! followers onto a flight) instead of racing against the scheduler.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// Keyed in-flight computation deduplication (see module docs).
pub struct Singleflight<V> {
    inflight: Mutex<HashMap<String, Slot<V>>>,
    /// Followers currently blocked on a flight (for observability;
    /// tests poll this through [`Singleflight::waiting`]).
    waiting: AtomicU64,
    coalesced: AtomicU64,
    led: AtomicU64,
}

impl<V> Default for Singleflight<V> {
    fn default() -> Self {
        Singleflight {
            inflight: Mutex::new(HashMap::new()),
            waiting: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            led: AtomicU64::new(0),
        }
    }
}

impl<V> Singleflight<V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` under `key`, coalescing with any in-flight computation
    /// for the same key. Returns the (shared) value and whether this
    /// caller's closure ran (`true`) or it shared another caller's
    /// value (`false`).
    pub fn run(&self, key: &str, f: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let mut map = self.inflight.lock().unwrap();
        let found = map.contains_key(key);
        let slot = Arc::clone(map.entry(key.to_string()).or_default());
        // A new flight keeps the map locked until its closure starts,
        // so no follower can take the slot first. A follower unlocks
        // before it waits.
        let held = (!found).then_some(map);
        if found {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            paccport_trace::metrics::counter_add("coalesce_waits_total", &[], 1);
            self.waiting.fetch_add(1, Ordering::Relaxed);
        }
        let mut led = false;
        let v = Arc::clone(slot.get_or_init(|| {
            drop(held);
            if found {
                // The leader died without publishing: this follower
                // runs its own closure and leads in its place.
                self.waiting.fetch_sub(1, Ordering::Relaxed);
            }
            led = true;
            self.led.fetch_add(1, Ordering::Relaxed);
            Arc::new(f())
        }));
        if led {
            // Published; vacate the key, so later requests start a
            // fresh flight (this is coalescing, not memoization).
            let mut map = self.inflight.lock().unwrap();
            if map.get(key).is_some_and(|cur| Arc::ptr_eq(cur, &slot)) {
                map.remove(key);
            }
        } else {
            self.waiting.fetch_sub(1, Ordering::Relaxed);
        }
        (v, led)
    }

    /// Followers currently blocked across all flights.
    pub fn waiting(&self) -> u64 {
        self.waiting.load(Ordering::Relaxed)
    }

    /// Total callers that found another caller's flight for their key.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Total flights led (computations actually run).
    pub fn led(&self) -> u64 {
        self.led.load(Ordering::Relaxed)
    }
}

/// A reusable test rendezvous: [`Gate::pass`] parks until
/// [`Gate::open`]; [`Gate::wait_parked`] lets the controlling thread
/// wait until `n` threads are parked before opening.
pub struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    open: bool,
    parked: usize,
}

impl Default for Gate {
    fn default() -> Self {
        Gate {
            state: Mutex::new(GateState {
                open: false,
                parked: 0,
            }),
            cv: Condvar::new(),
        }
    }
}

impl Gate {
    pub fn new() -> Arc<Gate> {
        Arc::new(Gate::default())
    }

    /// Park until the gate is opened (a no-op once open).
    pub fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.parked += 1;
        self.cv.notify_all();
        while !st.open {
            st = self.cv.wait(st).unwrap();
        }
        st.parked -= 1;
        self.cv.notify_all();
    }

    /// Open the gate, releasing every parked (and future) passer.
    pub fn open(&self) {
        let mut st = self.state.lock().unwrap();
        st.open = true;
        self.cv.notify_all();
    }

    /// Block until at least `n` threads are parked on the gate.
    pub fn wait_parked(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        while st.parked < n {
            st = self.cv.wait(st).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_runs_each_lead() {
        let sf: Singleflight<u32> = Singleflight::new();
        let (a, led_a) = sf.run("k", || 1);
        let (b, led_b) = sf.run("k", || 2);
        assert!(led_a && led_b, "non-overlapping flights both lead");
        assert_eq!((*a, *b), (1, 2), "no memoization across flights");
        assert_eq!(sf.coalesced(), 0);
        assert_eq!(sf.led(), 2);
    }

    #[test]
    fn concurrent_identical_keys_run_once() {
        let sf: Arc<Singleflight<u64>> = Arc::new(Singleflight::new());
        let runs = AtomicUsize::new(0);
        let gate = Gate::new();
        let runs = &runs;
        let results: Vec<(Arc<u64>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let sf = Arc::clone(&sf);
                    let gate = Arc::clone(&gate);
                    s.spawn(move || {
                        sf.run("same", || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open until every other
                            // thread has had a chance to pile on.
                            gate.pass();
                            42u64
                        })
                    })
                })
                .collect();
            // One thread leads and parks inside the computation; wait
            // for the other 7 to block on the flight, then release.
            gate.wait_parked(1);
            while sf.waiting() < 7 {
                std::thread::yield_now();
            }
            gate.open();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one leader ran");
        assert_eq!(results.iter().filter(|(_, led)| *led).count(), 1);
        assert!(results.iter().all(|(v, _)| **v == 42));
        assert_eq!(sf.coalesced(), 7);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf: Singleflight<String> = Singleflight::new();
        let (a, _) = sf.run("x", || "ax".to_string());
        let (b, _) = sf.run("y", || "by".to_string());
        assert_ne!(*a, *b);
        assert_eq!(sf.coalesced(), 0);
    }

    #[test]
    fn leader_panic_releases_followers_to_retry() {
        let sf: Arc<Singleflight<u32>> = Arc::new(Singleflight::new());
        let gate = Gate::new();
        let done = std::thread::scope(|s| {
            let leader = {
                let sf = Arc::clone(&sf);
                let gate = Arc::clone(&gate);
                s.spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sf.run("k", || {
                            gate.pass();
                            panic!("leader dies");
                        })
                    }));
                    assert!(r.is_err());
                })
            };
            gate.wait_parked(1);
            let follower = {
                let sf = Arc::clone(&sf);
                s.spawn(move || sf.run("k", || 7u32))
            };
            while sf.waiting() < 1 {
                std::thread::yield_now();
            }
            gate.open();
            leader.join().unwrap();
            follower.join().unwrap()
        });
        let (v, led) = done;
        assert_eq!(*v, 7, "follower retried and computed its own value");
        assert!(led, "the retry leads a fresh flight");
    }

    #[test]
    fn leader_panic_with_nobody_waiting_lets_the_next_caller_lead() {
        let sf: Singleflight<u32> = Singleflight::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sf.run("k", || panic!("leader dies"))
        }));
        assert!(r.is_err());
        let (v, led) = sf.run("k", || 9);
        assert_eq!(*v, 9, "the next caller computed its own value");
        assert!(led, "the next caller leads");
        assert_eq!(sf.led(), 2);
        assert_eq!(sf.waiting(), 0);
        let (v, led) = sf.run("k", || 10);
        assert_eq!((*v, led), (10, true), "the key was vacated after publish");
    }
}
