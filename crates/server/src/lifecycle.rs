//! The server's lifecycle: [`serve_catalog`] binds the listener and starts
//! the reactor, the request workers and the optional maintenance thread;
//! [`Server::shutdown`] drains them. The request workers are a bounded
//! [`gks_exec::WorkerPool`]: the reactor hands each miss over with
//! [`WorkerPool::try_submit`], and a full pool is the `503` admission
//! reject.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gks_core::engine::Engine;
use gks_exec::WorkerPool;

use crate::catalog::{self, IndexSpec};
use crate::error::ServeError;
use crate::{conn, micros_since, reactor, ServeConfig, ServeState};

/// Totals reported by [`Server::shutdown`] after the drain completes.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Requests fully served (a response was written).
    pub served: u64,
    /// Connections rejected by admission control.
    pub rejected: u64,
}

/// A running server: reactor thread + worker pool over a [`ServeState`].
#[derive(Debug)]
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    workers: Arc<WorkerPool>,
    shared: Arc<reactor::ReactorShared>,
    stop: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
}

/// Binds `config.addr` and spawns the accept loop and worker pool over a
/// single-index catalog. The returned [`Server`] is live until
/// [`Server::shutdown`].
pub fn serve(engine: Arc<Engine>, config: ServeConfig) -> Result<Server, ServeError> {
    let specs = vec![IndexSpec::with_engine(catalog::DEFAULT_INDEX_NAME, engine)];
    serve_catalog(specs, None, config)
}

/// Binds `config.addr` and spawns the accept loop and worker pool over a
/// catalog built from `specs` (`default` names the index bare `/search`
/// addresses; `None` → the first spec). The returned [`Server`] is live
/// until [`Server::shutdown`].
pub fn serve_catalog(
    specs: Vec<IndexSpec>,
    default: Option<&str>,
    config: ServeConfig,
) -> Result<Server, ServeError> {
    if config.workers == 0 {
        return Err(ServeError::BadConfig("workers must be > 0".into()));
    }
    if config.queue_depth == 0 {
        return Err(ServeError::BadConfig("queue must be > 0".into()));
    }
    if config.max_connections == 0 {
        return Err(ServeError::BadConfig("max-connections must be > 0".into()));
    }
    if config.watch_interval == Some(Duration::ZERO) {
        return Err(ServeError::BadConfig("watch-interval must be > 0".into()));
    }
    if config
        .compact_threshold
        .is_some_and(|n| n == 0 || config.watch_interval.is_none())
    {
        return Err(ServeError::BadConfig(
            "compact-threshold must be >= 1 and needs a watch interval (it runs on the watcher \
             tick)"
                .into(),
        ));
    }
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| ServeError::Bind { addr: config.addr.clone(), source: e })?;
    listener.set_nonblocking(true).map_err(ServeError::Io)?;
    let addr = listener.local_addr().map_err(ServeError::Io)?;
    let state = Arc::new(ServeState::with_catalog(specs, default, config.clone())?);
    let workers = Arc::new(
        WorkerPool::bounded("gks-worker", config.workers, config.queue_depth)
            .map_err(ServeError::Io)?,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let (wake_tx, wake_rx) = wake_pipe().map_err(ServeError::Io)?;
    let shared = Arc::new(reactor::ReactorShared::new(wake_tx));

    let reactor_handle = {
        let reactor = reactor::Reactor {
            listener,
            wake_rx,
            shared: Arc::clone(&shared),
            workers: Arc::clone(&workers),
            stop: Arc::clone(&stop),
            state: Arc::clone(&state),
        };
        std::thread::Builder::new()
            .name("gks-reactor".to_string())
            .spawn(move || reactor.run())
            .map_err(ServeError::Io)?
    };
    // The maintenance thread exists only when there is update-path work to
    // do: a watcher interval and at least one manifest-backed index.
    let maintenance = match config.watch_interval {
        Some(interval) if state.catalog().iter().any(|r| r.manifest_path().is_some()) => {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            Some(
                std::thread::Builder::new()
                    .name("gks-maintenance".to_string())
                    .spawn(move || maintenance_loop(&state, interval, &stop))
                    .map_err(ServeError::Io)?,
            )
        }
        _ => None,
    };

    Ok(Server { state, addr, workers, shared, stop, reactor: Some(reactor_handle), maintenance })
}

/// The reactor's wake channel: a loopback self-pipe `(tx, rx)`. Workers
/// write a byte to `tx` to pop the reactor out of poll(). Built before the
/// reactor starts — blocking connect/accept are fine there.
fn wake_pipe() -> std::io::Result<(TcpStream, TcpStream)> {
    let pipe = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(pipe.local_addr()?)?;
    let (rx, _) = pipe.accept()?;
    tx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// The background update loop: every `interval`, one
/// [`ResidentIndex::maintain`](crate::catalog::ResidentIndex::maintain)
/// tick per manifest-backed index — the `gks watch` policy, publishing
/// through the hot-swap protocol. Errors are deliberately non-fatal: a
/// mid-mutation corpus scan or a transient I/O failure is retried on the
/// next tick, and the serving set is never left inconsistent because every
/// publish goes through the manifest's atomic epoch bump. Sleeps in short
/// slices so shutdown stays prompt.
fn maintenance_loop(state: &ServeState, interval: Duration, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        for resident in state.catalog().iter().filter(|r| r.manifest_path().is_some()) {
            let _ = resident.maintain(state.config.compact_threshold);
        }
        let mut slept = Duration::ZERO;
        while slept < interval && !stop.load(Ordering::SeqCst) {
            let slice = (interval - slept).min(Duration::from_millis(10));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// The request job: one fully-read request the reactor admitted to the
/// worker pool. Routes it, then writes the response with nonblocking single
/// shots. The socket's final disposition goes back to the reactor: idle
/// for the next keep-alive request, a partial flush to finish, or dropped
/// on close. The job's counters are released by [`JobCounters`].
pub(crate) fn answer(
    state: &ServeState,
    shared: &reactor::ReactorShared,
    stop: &AtomicBool,
    item: conn::WorkItem,
) {
    let _job = JobCounters::enter(state, shared, stop);
    let conn::WorkItem { mut stream, request, accepted_at, residual, requests_served } = item;
    let response = state.handle(&request, accepted_at);
    // A drain closes keep-alive connections after their in-flight
    // response: honoring `keep_alive` would park them forever.
    let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
    let buf = state.finish(response, micros_since(accepted_at), keep_alive);
    let mut written = 0;
    match conn::write_some(&mut stream, &buf, &mut written) {
        conn::WriteOutcome::Done => {
            state.served.fetch_add(1, Ordering::Relaxed);
            if keep_alive {
                shared.retire(conn::Retired {
                    stream,
                    kind: conn::RetiredKind::Idle { residual },
                    requests_served: requests_served + 1,
                });
            }
        }
        conn::WriteOutcome::Blocked => {
            // Slow reader: park the remaining bytes on the reactor instead
            // of pinning this worker (it counts `served` when the flush
            // completes).
            shared.retire(conn::Retired {
                stream,
                kind: conn::RetiredKind::Flush { buf, written, keep_alive, residual },
                requests_served: requests_served + 1,
            });
        }
        conn::WriteOutcome::Closed => {}
    }
}

/// A request job's hold on `in_flight` and the reactor's `pending` count,
/// released on drop — also when `state.handle` panics and the pool catches
/// the unwind, so a later drain never waits for a job that is gone.
/// [`answer`] declares it first, so it drops last: the pending decrement
/// is strictly last, and the reactor's drain barrier counts on it coming
/// after the retired socket is visible.
struct JobCounters<'a> {
    state: &'a ServeState,
    shared: &'a reactor::ReactorShared,
    stop: &'a AtomicBool,
}

impl<'a> JobCounters<'a> {
    fn enter(
        state: &'a ServeState,
        shared: &'a reactor::ReactorShared,
        stop: &'a AtomicBool,
    ) -> JobCounters<'a> {
        state.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        JobCounters { state, shared, stop }
    }
}

impl Drop for JobCounters<'_> {
    fn drop(&mut self) {
        self.state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.shared.pending.fetch_sub(1, Ordering::SeqCst);
        // `retire()` wakes the reactor when a socket went back; a closed
        // socket needs no wake — except during a drain, where the reactor
        // may be parked in poll waiting for pending to hit zero.
        if self.stop.load(Ordering::SeqCst) {
            self.shared.wake();
        }
    }
}

impl Server {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (metrics, cache) — e.g. for in-process inspection.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, join all threads, and report totals. Idempotent by
    /// construction (consumes the server).
    pub fn shutdown(mut self) -> DrainReport {
        self.stop.store(true, Ordering::SeqCst);
        // No more admissions; workers drain the backlog, then exit.
        self.workers.close();
        // Pop the reactor out of poll() so it sees the stop flag; it exits
        // once every dispatched request has been answered and every
        // in-progress response flush has completed.
        self.shared.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        // The reactor's handle on the pool died with its thread, so this is
        // the last one: dropping it joins the (now idle) workers.
        drop(self.workers);
        if let Some(handle) = self.maintenance.take() {
            let _ = handle.join();
        }
        DrainReport {
            accepted: self.state.accepted.load(Ordering::Relaxed),
            served: self.state.served.load(Ordering::Relaxed),
            rejected: self.state.metrics.rejected_total.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_index::{Corpus, IndexOptions};

    #[test]
    fn empty_pools_and_connection_caps_are_config_errors() {
        let corpus = Corpus::from_named_strs([("d", "<r><a>alpha</a></r>")]).unwrap();
        let engine = Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap());
        let base = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
        let cases = [
            (ServeConfig { workers: 0, ..base.clone() }, "workers must be > 0"),
            (ServeConfig { queue_depth: 0, ..base.clone() }, "queue must be > 0"),
            (ServeConfig { max_connections: 0, ..base }, "max-connections must be > 0"),
        ];
        for (config, expected) in cases {
            match serve(Arc::clone(&engine), config) {
                Err(ServeError::BadConfig(message)) => assert_eq!(message, expected),
                Err(other) => panic!("expected {expected:?}, got {other}"),
                Ok(server) => {
                    server.shutdown();
                    panic!("expected {expected:?}, but the server started");
                }
            }
        }
    }

    #[test]
    fn a_panicking_job_releases_its_counters() {
        let corpus = Corpus::from_named_strs([("d", "<r><a>alpha</a></r>")]).unwrap();
        let engine = Arc::new(Engine::build(&corpus, IndexOptions::default()).unwrap());
        let specs = vec![IndexSpec::with_engine(catalog::DEFAULT_INDEX_NAME, engine)];
        let state = ServeState::with_catalog(specs, None, ServeConfig::default()).unwrap();
        let (wake_tx, _wake_rx) = wake_pipe().unwrap();
        let shared = reactor::ReactorShared::new(wake_tx);
        let counters = || {
            (
                state.metrics.in_flight.load(Ordering::SeqCst),
                shared.pending.load(Ordering::SeqCst),
            )
        };
        let before = counters();
        for stop in [false, true] {
            // What the reactor does before it submits the job.
            shared.pending.fetch_add(1, Ordering::SeqCst);
            let stop = AtomicBool::new(stop);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _job = JobCounters::enter(&state, &shared, &stop);
                assert_eq!(counters(), (before.0 + 1, before.1 + 1));
                panic!("a handler bug");
            }));
            assert!(outcome.is_err());
            assert_eq!(counters(), before, "stop = {}", stop.load(Ordering::SeqCst));
        }
    }
}
