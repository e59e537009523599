//! Exercises the debug-build lock-order registry end to end: consistent
//! orders stay quiet, an injected inversion panics with both stacks, and
//! the condvar handoff in [`Tracked::wait`] releases the registry entry.
//!
//! All tests in this file run in one process against one global registry,
//! so every test uses its own lock names — edges recorded by one test must
//! not be able to interact with another's.

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![cfg(debug_assertions)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gks_trace::lockorder::{acquired, acquisition_count, observed_edge_count, track};

#[test]
fn consistent_order_is_quiet() {
    let before = acquisition_count();
    for _ in 0..3 {
        let outer = acquired("lo-quiet.outer");
        let inner = acquired("lo-quiet.inner");
        drop(inner);
        drop(outer);
    }
    assert!(acquisition_count() >= before + 6, "acquisitions must be counted");
    assert!(observed_edge_count() >= 1, "the outer->inner pair must be on record");
}

#[test]
fn injected_inversion_panics_with_both_stacks() {
    // Establish a -> b on record.
    {
        let a = acquired("lo-inv.a");
        let b = acquired("lo-inv.b");
        drop(b);
        drop(a);
    }
    // Now take them in the reverse order: the registry must refuse.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let b = acquired("lo-inv.b");
        let a = acquired("lo-inv.a");
        drop(a);
        drop(b);
    }));
    let panic = result.expect_err("reversed acquisition order must panic");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload must be a string");
    assert!(message.contains("lock-order inversion"), "got: {message}");
    assert!(message.contains("lo-inv.a") && message.contains("lo-inv.b"), "got: {message}");
    assert!(
        message.contains("this thread's stack") && message.contains("first observed with stack"),
        "report must carry both acquisition stacks; got: {message}"
    );
}

#[test]
fn transitive_inversion_is_caught() {
    // a -> b and b -> c on record; then c ... a must close the cycle even
    // though the pair (c, a) was never directly observed before.
    {
        let a = acquired("lo-trans.a");
        let b = acquired("lo-trans.b");
        drop(b);
        drop(a);
    }
    {
        let b = acquired("lo-trans.b");
        let c = acquired("lo-trans.c");
        drop(c);
        drop(b);
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        let c = acquired("lo-trans.c");
        let a = acquired("lo-trans.a");
        drop(a);
        drop(c);
    }));
    let message = result
        .expect_err("transitively inverted order must panic")
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload must be a String");
    assert!(message.contains("cycle:"), "report must show the cycle path; got: {message}");
    assert!(message.contains("lo-trans.b"), "cycle must pass through b; got: {message}");
}

#[test]
fn wait_releases_the_registry_entry_while_parked() {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let waiter = {
        let pair = Arc::clone(&pair);
        std::thread::spawn(move || {
            let (m, cv) = &*pair;
            let mut g = track("lo-wait.m", m.lock().expect("fresh mutex"));
            while !**g {
                g = g.wait(cv);
            }
            assert_eq!(g.lock_name(), "lo-wait.m", "identity survives the handoff");
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    {
        let (m, cv) = &*pair;
        let mut g = track("lo-wait.m", m.lock().expect("waiter is parked, not holding"));
        **g = true;
        drop(g);
        cv.notify_one();
    }
    waiter.join().expect("waiter must wake and exit cleanly");
}

#[test]
fn instrumented_server_locks_register_real_acquisitions() {
    // Drive the actual instrumented code paths rather than raw names:
    // the trace ring and a server queue both go through track().
    let before = acquisition_count();
    gks_trace::reset();
    let _ = gks_trace::recent_traces(4);
    assert!(
        acquisition_count() > before,
        "trace ring operations must register with the lock-order registry"
    );
}
