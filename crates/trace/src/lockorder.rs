//! Debug-build lock-order registry: a runtime deadlock detector.
//!
//! The static pass (`cargo xtask analyze`) proves ordering facts about the
//! *source*; this module watches the *execution*. Every instrumented lock
//! acquisition pushes a `&'static str` lock name onto a thread-local stack
//! and records the ordered pairs it observes (`A` held while acquiring
//! `B` ⇒ edge `A → B`) in a global table. If a new acquisition would close
//! a cycle in that table, the registry panics immediately — with **both**
//! stacks: the current thread's acquisition stack and the stack recorded
//! when the conflicting order was first observed. Every existing
//! concurrency test thereby doubles as a deadlock detector.
//!
//! Names are shared with the static analyzer's lock identities
//! (`server/catalog.slots`, `trace/lib.RING`, …), so a dynamic report and a
//! `lock-order` diagnostic point at the same thing.
//!
//! Costs and caveats:
//!
//! * Everything is `#[cfg(debug_assertions)]`; release builds compile the
//!   registry down to nothing (the [`Tracked`] wrapper keeps only its
//!   guard, [`acquired`] returns an inert token).
//! * Sharded locks share one name, and re-acquiring the *same* name is
//!   never an edge — a self-deadlock on one mutex is loud on its own,
//!   while two shards of one cache are legitimately taken in sequence.
//! * A thread parked in [`Tracked::wait`] hands its guard to the condvar;
//!   the registry pops the name for the wait and re-pushes it on wakeup,
//!   mirroring what the lock actually does.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, MutexGuard};

#[cfg(debug_assertions)]
mod registry {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, PoisonError};

    /// One observed acquisition order, with the stack that first saw it.
    struct Edge {
        from: &'static str,
        to: &'static str,
        /// The observing thread's held stack at first observation,
        /// including `to` (the acquisition that created the edge).
        stack: Vec<&'static str>,
    }

    /// All observed edges. Linear scans are fine: the set is tiny (one
    /// entry per ordered lock pair ever seen) and only grows on *new*
    /// pairs.
    static EDGES: Mutex<Vec<Edge>> = Mutex::new(Vec::new());
    /// Total registered acquisitions, so tests can assert the registry
    /// actually ran.
    static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// This thread's stack of held lock names.
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn register(name: &'static str) {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        let outers: Vec<&'static str> = HELD.with(|h| h.borrow().clone());
        if !outers.is_empty() {
            let mut current_stack = outers.clone();
            current_stack.push(name);
            let mut edges = EDGES.lock().unwrap_or_else(PoisonError::into_inner);
            for &outer in &outers {
                if outer == name || edges.iter().any(|e| e.from == outer && e.to == name) {
                    continue;
                }
                // Would `outer -> name` close a cycle? Only if `outer` is
                // already reachable *from* `name`.
                if let Some(path) = path_between(&edges, name, outer) {
                    let witness = edges
                        .iter()
                        .find(|e| e.from == path[0] && e.to == path[1])
                        .map(|e| e.stack.clone())
                        .unwrap_or_default();
                    let mut cycle: Vec<&str> = vec![outer];
                    cycle.extend(path.iter().copied());
                    // The panic is this detector's entire output channel
                    // (debug builds only; see lint-allow.toml).
                    panic!(
                        "lock-order inversion: acquiring {name:?} while holding {outers:?} \
                         would establish {outer:?} -> {name:?}, but the reverse order is \
                         already on record; cycle: {cycle:?}; this thread's stack: \
                         {current_stack:?}; conflicting order first observed with stack: \
                         {witness:?}"
                    );
                }
                edges.push(Edge { from: outer, to: name, stack: current_stack.clone() });
            }
        }
        HELD.with(|h| h.borrow_mut().push(name));
    }

    /// Shortest edge path from `from` to `to`, if one exists (BFS).
    fn path_between(
        edges: &[Edge],
        from: &'static str,
        to: &'static str,
    ) -> Option<Vec<&'static str>> {
        let mut frontier: Vec<Vec<&'static str>> = vec![vec![from]];
        let mut seen: Vec<&'static str> = vec![from];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for path in frontier {
                let tail = *path.last()?;
                for e in edges.iter().filter(|e| e.from == tail) {
                    if e.to == to {
                        let mut full = path.clone();
                        full.push(e.to);
                        return Some(full);
                    }
                    if !seen.contains(&e.to) {
                        seen.push(e.to);
                        let mut longer = path.clone();
                        longer.push(e.to);
                        next.push(longer);
                    }
                }
            }
            frontier = next;
        }
        None
    }

    pub(super) fn release(name: &'static str) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            // Pop the *last* matching name: guards may drop out of LIFO
            // order, and nested same-name holds must unwind innermost
            // first.
            if let Some(pos) = held.iter().rposition(|n| *n == name) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn acquisition_count() -> u64 {
        ACQUISITIONS.load(Ordering::Relaxed)
    }

    pub(super) fn edge_count() -> usize {
        EDGES.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// RAII token for one registered acquisition. Dropping it pops the name
/// from this thread's held stack. In release builds this is an inert
/// wrapper around the name.
#[derive(Debug)]
pub struct HeldLock {
    name: &'static str,
}

impl HeldLock {
    /// The lock name this token represents.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for HeldLock {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        registry::release(self.name);
    }
}

/// Registers an acquisition of `name` on this thread and returns the RAII
/// token holding it. Panics (debug builds only) if the acquisition closes
/// a cycle in the observed-order table — see the module docs for the
/// report format. Use this directly when a guard type cannot be wrapped;
/// otherwise prefer [`track`].
pub fn acquired(name: &'static str) -> HeldLock {
    #[cfg(debug_assertions)]
    registry::register(name);
    HeldLock { name }
}

/// Total acquisitions registered so far (0 in release builds). Lets
/// concurrency tests assert the registry was actually exercised.
pub fn acquisition_count() -> u64 {
    #[cfg(debug_assertions)]
    {
        registry::acquisition_count()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Number of distinct ordered lock pairs observed so far (0 in release
/// builds).
pub fn observed_edge_count() -> usize {
    #[cfg(debug_assertions)]
    {
        registry::edge_count()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// A guard bundled with its registry token: derefs to the guard, releases
/// the registry entry when dropped. Wrap any guard with [`track`].
pub struct Tracked<G> {
    guard: G,
    held: HeldLock,
}

impl<G> Tracked<G> {
    /// The registered lock name.
    pub fn lock_name(&self) -> &'static str {
        self.held.name()
    }
}

impl<G> Deref for Tracked<G> {
    type Target = G;

    fn deref(&self) -> &G {
        &self.guard
    }
}

impl<G> DerefMut for Tracked<G> {
    fn deref_mut(&mut self) -> &mut G {
        &mut self.guard
    }
}

impl<G> std::fmt::Debug for Tracked<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracked")
            .field("lock", &self.held.name())
            .finish_non_exhaustive()
    }
}

/// Wraps an already-acquired guard, registering the acquisition under
/// `name`. The registry entry lives exactly as long as the guard.
pub fn track<G>(name: &'static str, guard: G) -> Tracked<G> {
    let held = acquired(name);
    Tracked { guard, held }
}

impl<'a, T> Tracked<MutexGuard<'a, T>> {
    /// Waits on `condvar`, releasing and re-acquiring both the mutex and
    /// its registry entry (a parked thread does not hold the lock, and
    /// the registry mirrors that). Poisoning is recovered, matching the
    /// workspace idiom.
    pub fn wait(self, condvar: &Condvar) -> Tracked<MutexGuard<'a, T>> {
        let Tracked { guard, held } = self;
        let name = held.name();
        drop(held);
        let guard = condvar.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner);
        track(name, guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_push_and_pop_without_incident() {
        let before = acquisition_count();
        let a = acquired("lockorder-unit.a");
        let b = acquired("lockorder-unit.b");
        drop(b);
        drop(a);
        // Same order again: consistent, must not panic.
        let a = acquired("lockorder-unit.a");
        let b = acquired("lockorder-unit.b");
        drop(a); // out-of-LIFO drop is fine
        drop(b);
        // The registry — and so the counter — exists only under
        // `debug_assertions`; an optimised build just must not panic above.
        if cfg!(debug_assertions) {
            assert!(acquisition_count() >= before + 4);
        } else {
            assert_eq!(acquisition_count(), before);
        }
    }

    #[test]
    fn tracked_derefs_to_guard() {
        let m = std::sync::Mutex::new(41_u32);
        let mut g = track("lockorder-unit.tracked", m.lock().expect("fresh mutex"));
        **g += 1;
        assert_eq!(**g, 42);
        assert_eq!(g.lock_name(), "lockorder-unit.tracked");
    }

    #[test]
    fn same_name_nesting_is_not_an_edge() {
        let outer = acquired("lockorder-unit.same");
        let inner = acquired("lockorder-unit.same");
        drop(inner);
        drop(outer);
    }
}
