//! The event-driven connection layer: one reactor thread owns **every**
//! client socket and multiplexes them with [`poller`] readiness (poll(2)
//! on Unix), so a slow or idle connection costs a poll-set entry instead
//! of a parked worker thread. A fully-read `/search` or `/suggest` whose
//! body the result cache already holds is answered on the spot — the hit
//! lane ([`ServeState::inline_hit`], [`ServeState::answer_hit`]): its
//! response is serialized into the connection's `Writing` state, which
//! flushes it and goes on to the next keep-alive request. Workers receive
//! only **misses** — and every other fully-read request — as
//! [`WorkItem`]s admitted to the bounded worker pool
//! ([`WorkerPool::try_submit`]); after answering
//! they either close the socket, hand it back idle for the next
//! keep-alive request, or hand back a partially-flushed response for the
//! reactor to finish ([`Retired`]). Slowloris-style readers and
//! slow-to-drain writers therefore cannot exhaust the worker pool.
//!
//! Both lanes feed every sink once per request: the request and cache
//! counters, the `request` span, and the one response tail
//! ([`ServeState::finish`]). The hit lane does no engine work and no file
//! I/O: it takes the catalog's generation read lock and one result-cache
//! shard mutex, in the workers' order (plus the `gks-trace` ring push when
//! the span is sampled), and closes while a query or slow log is
//! configured (the lane rule — those sinks write files).
//!
//! Invariants the reactor maintains:
//!
//! * Admission control sheds only work that needs a worker: a cache hit
//!   takes no queue slot and is answered even while the queue is full; a
//!   request that does not fit the bounded queue is answered
//!   `503 + Retry-After` immediately, counted in `rejected_total`, without
//!   touching a worker.
//! * The per-request deadline anchors at the **first byte** of the
//!   request (previously: at accept). A request that cannot finish
//!   arriving within the deadline is evicted with `408`; a connection
//!   idle past `idle_timeout` between requests is closed silently.
//! * Graceful drain: on stop the reactor stops polling the listener,
//!   closes idle and mid-read connections (no request was accepted on
//!   them), finishes every in-progress response flush, and exits only
//!   once every dispatched request has been answered — zero 5xx from
//!   the drain itself. A hit answered while stopping goes out with
//!   `Connection: close`.
//!
//! The reactor is the only thread allowed to block in `poll`; everything
//! it does to a socket is a nonblocking single shot. Workers wake it
//! through a loopback self-pipe ([`ReactorShared::wake`]) when they
//! retire a socket or finish the last pending request of a drain.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gks_exec::WorkerPool;
use gks_trace::lockorder::{self, Tracked};

use crate::conn::{self, ConnState, ReadOutcome, Retired, RetiredKind, WorkItem, WriteOutcome};
use crate::http::{self, HttpResponse};
use crate::poller::{self, Slot, Source};
use crate::{lifecycle, micros_since, ServeState};

/// Poll tick: bounds deadline-sweep latency and the portable fallback's
/// nap. Readiness and wakes interrupt it early on Unix.
const POLL_MS: i32 = 25;

/// Cache hits one [`Loop::drive`] pass answers inline. Past it, the
/// connection's next pipelined request takes the worker lane, whose retire
/// re-drives the socket a poll round later — so a client pipelining hits
/// back to back cannot hold the reactor away from every other socket.
const INLINE_HITS_PER_DRIVE: usize = 16;

/// State shared between the reactor and the workers: the hand-back list
/// of retired sockets, the count of dispatched-but-unanswered requests
/// (the drain barrier), and the write end of the reactor's wake pipe.
#[derive(Debug)]
pub(crate) struct ReactorShared {
    retired: Mutex<Vec<Retired>>,
    /// Requests handed to the worker queue whose final socket disposition
    /// (retire or drop) has not happened yet. Incremented by the reactor
    /// *before* enqueueing, decremented by the worker *after* retiring —
    /// so `pending == 0` implies every retired socket is already visible.
    pub(crate) pending: AtomicUsize,
    wake_tx: TcpStream,
}

/// Poison-tolerant, lock-order-tracked access to the retired list.
fn lock_retired(m: &Mutex<Vec<Retired>>) -> Tracked<MutexGuard<'_, Vec<Retired>>> {
    lockorder::track("server/reactor.retired", m.lock().unwrap_or_else(PoisonError::into_inner))
}

impl ReactorShared {
    pub(crate) fn new(wake_tx: TcpStream) -> ReactorShared {
        ReactorShared { retired: Mutex::new(Vec::new()), pending: AtomicUsize::new(0), wake_tx }
    }

    /// Nudges the reactor out of `poll` — one byte down the self-pipe.
    /// Best-effort: if the pipe is full the reactor is already waking.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Hands a socket back to the reactor and wakes it.
    pub(crate) fn retire(&self, retired: Retired) {
        lock_retired(&self.retired).push(retired);
        self.wake();
    }

    fn drain_retired(&self) -> Vec<Retired> {
        std::mem::take(&mut *lock_retired(&self.retired))
    }
}

/// A reactor-owned connection.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// When the connection entered its current state — the idle-timeout
    /// and flush-stall anchor (`ConnState::Reading::started` anchors the
    /// request deadline).
    since: Instant,
    /// Requests already answered on this connection.
    requests_served: u64,
}

/// What one readiness pass decided to do with a connection. Produced
/// inside the borrow of [`ConnState`], acted on outside it, so socket
/// ownership can move into a [`WorkItem`].
enum Step {
    Keep,
    Close,
    Dispatch {
        request: http::Request,
        residual: Vec<u8>,
        started: Instant,
    },
    Respond {
        response: HttpResponse,
        started: Option<Instant>,
        count_served: bool,
    },
    NextRequest {
        residual: Vec<u8>,
    },
}

/// The reactor thread's whole world; constructed by `serve_catalog`,
/// consumed by [`Reactor::run`].
#[derive(Debug)]
pub(crate) struct Reactor {
    pub listener: TcpListener,
    pub wake_rx: TcpStream,
    pub shared: Arc<ReactorShared>,
    pub workers: Arc<WorkerPool>,
    pub stop: Arc<AtomicBool>,
    pub state: Arc<ServeState>,
}

impl Reactor {
    pub(crate) fn run(self) {
        let Reactor { listener, wake_rx, shared, workers, stop, state } = self;
        let mut r = Loop { listener, wake_rx, shared, workers, stop, state, conns: Vec::new() };
        r.run();
    }
}

struct Loop {
    listener: TcpListener,
    wake_rx: TcpStream,
    shared: Arc<ReactorShared>,
    workers: Arc<WorkerPool>,
    stop: Arc<AtomicBool>,
    state: Arc<ServeState>,
    conns: Vec<Conn>,
}

impl Loop {
    fn run(&mut self) {
        loop {
            let stopping = self.stop.load(Ordering::SeqCst);
            // Read `pending` *before* draining the hand-back list: workers
            // decrement after pushing, so pending == 0 here means every
            // retired socket is in the drain we are about to take.
            let pending = self.shared.pending.load(Ordering::SeqCst);
            let retired = self.shared.drain_retired();
            let quiet = retired.is_empty();
            let now = Instant::now();
            for entry in retired {
                self.adopt(entry, stopping, now);
            }
            if stopping {
                // No request was accepted on an idle or mid-read
                // connection; closing them is the drain contract.
                self.conns.retain(|c| matches!(c.state, ConnState::Writing { .. }));
                if pending == 0 && quiet && self.conns.is_empty() {
                    break;
                }
            }
            self.publish_gauges();

            let accept_open = !stopping && self.conns.len() < self.state.config().max_connections;
            let mut slots = Vec::with_capacity(self.conns.len() + 2);
            if accept_open {
                slots.push(Slot { token: 0, src: Source::Listener(&self.listener), write: false });
            }
            slots.push(Slot { token: 1, src: Source::Stream(&self.wake_rx), write: false });
            for (i, c) in self.conns.iter().enumerate() {
                slots.push(Slot {
                    token: 2 + i,
                    src: Source::Stream(&c.stream),
                    write: matches!(c.state, ConnState::Writing { .. }),
                });
            }
            let mut ready = poller::wait(&slots, POLL_MS);
            drop(slots);
            let now = Instant::now();
            // Descending token order keeps swap_remove indices valid: a
            // removed slot is only ever backfilled from a higher index.
            ready.sort_unstable_by(|a, b| b.cmp(a));
            for token in ready {
                match token {
                    0 => self.accept_burst(now),
                    1 => self.drain_wake(),
                    t => {
                        let i = t - 2;
                        if i < self.conns.len() {
                            let c = self.conns.swap_remove(i);
                            if let Some(c) = self.drive(c, now) {
                                self.conns.push(c);
                            }
                        }
                    }
                }
            }
            self.sweep_deadlines(now);
        }
        self.publish_gauges();
    }

    /// Re-adopts a worker-retired socket: idle keep-alive connections go
    /// back to reading (the residual may already hold a pipelined
    /// request), partial flushes go back to writing. Driven immediately —
    /// the socket may be ready right now and must not wait a poll tick.
    fn adopt(&mut self, entry: Retired, stopping: bool, now: Instant) {
        let Retired { stream, kind, requests_served } = entry;
        let conn = match kind {
            RetiredKind::Idle { residual } => {
                if stopping {
                    return; // drain: close idle connections, no request is lost
                }
                Conn {
                    stream,
                    state: ConnState::Reading { buf: residual, started: None },
                    since: now,
                    requests_served,
                }
            }
            RetiredKind::Flush { buf, written, keep_alive, residual } => Conn {
                stream,
                state: ConnState::Writing {
                    buf,
                    written,
                    keep_alive: keep_alive && !stopping,
                    residual,
                    // The worker recorded status and latency but deferred
                    // the served count to flush completion.
                    count_served: true,
                },
                since: now,
                requests_served,
            },
        };
        if let Some(conn) = self.drive(conn, now) {
            self.conns.push(conn);
        }
    }

    fn accept_burst(&mut self, now: Instant) {
        let max = self.state.config().max_connections;
        while self.conns.len() < max {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.state.accepted.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let conn = Conn {
                        stream,
                        state: ConnState::Reading { buf: Vec::new(), started: None },
                        since: now,
                        requests_served: 0,
                    };
                    // On loopback the request bytes usually arrive with the
                    // connection itself; driving now dispatches in this poll
                    // round instead of waiting out another.
                    if let Some(conn) = self.drive(conn, now) {
                        self.conns.push(conn);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Advances one connection as far as it will go without blocking.
    /// Returns the connection to keep polling, or `None` when its socket
    /// moved to a worker or closed.
    fn drive(&mut self, mut conn: Conn, now: Instant) -> Option<Conn> {
        let mut inline_left = INLINE_HITS_PER_DRIVE;
        loop {
            let step = match &mut conn.state {
                ConnState::Reading { buf, started } => {
                    match conn::drive_read(&mut conn.stream, buf) {
                        ReadOutcome::NeedMore => {
                            if !buf.is_empty() && started.is_none() {
                                // First bytes of a request: start the clock.
                                *started = Some(now);
                            }
                            Step::Keep
                        }
                        ReadOutcome::Complete { request, residual } => {
                            Step::Dispatch { request, residual, started: started.unwrap_or(now) }
                        }
                        ReadOutcome::TooLarge => Step::Respond {
                            response: HttpResponse::error(400, "request too large"),
                            started: *started,
                            count_served: true,
                        },
                        ReadOutcome::Malformed(m) => Step::Respond {
                            response: HttpResponse::error(
                                400,
                                &format!("{}", http::HttpError::Malformed(m)),
                            ),
                            started: *started,
                            count_served: true,
                        },
                        ReadOutcome::Closed => Step::Close,
                    }
                }
                ConnState::Writing { buf, written, keep_alive, residual, count_served } => {
                    match conn::write_some(&mut conn.stream, buf, written) {
                        WriteOutcome::Done => {
                            if *count_served {
                                self.state.served.fetch_add(1, Ordering::Relaxed);
                            }
                            if *keep_alive {
                                Step::NextRequest { residual: std::mem::take(residual) }
                            } else {
                                Step::Close
                            }
                        }
                        WriteOutcome::Blocked => Step::Keep,
                        WriteOutcome::Closed => Step::Close,
                    }
                }
            };
            match step {
                Step::Keep => return Some(conn),
                Step::Close => return None,
                Step::NextRequest { residual } => {
                    conn.state = ConnState::Reading { buf: residual, started: None };
                    conn.since = now;
                    // The residual may already frame a pipelined request.
                }
                Step::Dispatch { request, residual, started } => {
                    let metrics = self.state.metrics();
                    let waited =
                        u64::try_from(now.duration_since(started).as_micros()).unwrap_or(u64::MAX);
                    metrics.conn_accept_to_dispatch_micros.record(waited);
                    if conn.requests_served > 0 {
                        metrics.conn_keepalive_requests_total.fetch_add(1, Ordering::Relaxed);
                    }
                    // The hit lane: answered here, no queue slot, so a hit
                    // is served even while the queue is full. `drive` then
                    // flushes it and goes on to the residual.
                    let hit = if inline_left > 0 {
                        self.state.inline_hit(&request)
                    } else {
                        None
                    };
                    if let Some(hit) = hit {
                        inline_left -= 1;
                        metrics.conn_reactor_hits_total.fetch_add(1, Ordering::Relaxed);
                        let response = self.state.answer_hit(&request, started, hit);
                        // While stopping, close after this response, as a
                        // worker does.
                        let keep_alive = request.keep_alive && !self.stop.load(Ordering::SeqCst);
                        let buf = self.state.finish(response, micros_since(started), keep_alive);
                        conn.requests_served += 1;
                        conn.state = ConnState::Writing {
                            buf,
                            written: 0,
                            keep_alive,
                            residual,
                            count_served: true,
                        };
                        conn.since = now;
                        continue;
                    }
                    // The miss lane. pending++ strictly before the submit: a
                    // worker may answer and decrement before try_submit even
                    // returns.
                    self.shared.pending.fetch_add(1, Ordering::SeqCst);
                    let item = WorkItem {
                        stream: conn.stream,
                        request,
                        accepted_at: started,
                        residual,
                        requests_served: conn.requests_served,
                    };
                    let (state, shared, stop) =
                        (Arc::clone(&self.state), Arc::clone(&self.shared), Arc::clone(&self.stop));
                    let job = move |item| lifecycle::answer(&state, &shared, &stop, item);
                    match self.workers.try_submit(item, job) {
                        Ok(()) => return None, // the worker owns the socket now
                        Err(_) if self.stop.load(Ordering::SeqCst) => {
                            // The pool was closed mid-round (stop is set
                            // strictly before workers.close()): this is the
                            // drain, not overload. Close instead of 503 —
                            // same outcome as a still-mid-read connection.
                            self.shared.pending.fetch_sub(1, Ordering::SeqCst);
                            return None;
                        }
                        Err(item) => {
                            // Admission reject: answer 503 without touching
                            // a worker (same contract as the old accept
                            // loop — rejected_total only, no status/latency
                            // accounting, not counted as served).
                            self.shared.pending.fetch_sub(1, Ordering::SeqCst);
                            metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
                            let buf = HttpResponse::error(503, "server overloaded, retry shortly")
                                .with_header("Retry-After", "1".to_string())
                                .serialize(false);
                            conn = Conn {
                                stream: item.stream,
                                state: ConnState::Writing {
                                    buf,
                                    written: 0,
                                    keep_alive: false,
                                    residual: Vec::new(),
                                    count_served: false,
                                },
                                since: now,
                                requests_served: conn.requests_served,
                            };
                        }
                    }
                }
                Step::Respond { response, started, count_served } => {
                    let buf = self.state.finish(response, started.map_or(0, micros_since), false);
                    conn.state = ConnState::Writing {
                        buf,
                        written: 0,
                        keep_alive: false,
                        residual: Vec::new(),
                        count_served,
                    };
                    conn.since = now;
                }
            }
        }
    }

    /// Applies the request deadline to mid-read connections (`408` and
    /// evict), the idle timeout to between-request connections (silent
    /// close), and a flush-stall bound to writers.
    fn sweep_deadlines(&mut self, now: Instant) {
        let deadline = self.state.config().deadline;
        let idle_timeout = self.state.config().idle_timeout;
        let mut evicted = 0u64;
        let mut timed_out = Vec::new();
        let mut i = 0;
        while i < self.conns.len() {
            let keep = match &self.conns[i].state {
                ConnState::Reading { started: Some(t), .. } => now.duration_since(*t) < deadline,
                ConnState::Reading { started: None, .. } => {
                    now.duration_since(self.conns[i].since) < idle_timeout
                }
                ConnState::Writing { .. } => now.duration_since(self.conns[i].since) < deadline,
            };
            if keep {
                i += 1;
                continue;
            }
            evicted += 1;
            let conn = self.conns.swap_remove(i);
            if let ConnState::Reading { started: Some(started), .. } = conn.state {
                // A request that started arriving but never completed:
                // tell the client its time is up before closing.
                timed_out.push((conn, started));
            }
            // Idle and flush-stalled connections just close.
        }
        if evicted > 0 {
            self.state.metrics().conn_evictions_total.fetch_add(evicted, Ordering::Relaxed);
        }
        for (mut conn, started) in timed_out {
            let response = HttpResponse::error(408, "request deadline exceeded while reading");
            let buf = self.state.finish(response, micros_since(started), false);
            conn.state = ConnState::Writing {
                buf,
                written: 0,
                keep_alive: false,
                residual: Vec::new(),
                count_served: true,
            };
            conn.since = now;
            if let Some(conn) = self.drive(conn, now) {
                self.conns.push(conn);
            }
        }
    }

    fn publish_gauges(&self) {
        let metrics = self.state.metrics();
        metrics.conn_open.store(self.conns.len() as u64, Ordering::Relaxed);
        let parked = self
            .conns
            .iter()
            .filter(|c| match &c.state {
                ConnState::Reading { started, .. } => started.is_some(),
                ConnState::Writing { .. } => true,
            })
            .count();
        metrics.conn_parked.store(parked as u64, Ordering::Relaxed);
        metrics.conn_queue_depth.store(self.workers.queued() as u64, Ordering::Relaxed);
    }
}
