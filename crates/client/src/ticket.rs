//! Completion handles for submitted requests — real futures.
//!
//! A [`Ticket`] is the client half of a one-shot channel filled in by a
//! backend's scheduler (or synchronously, by
//! [`InlineStore`](crate::InlineStore)); [`Resolver`] is the backend
//! half. A ticket is redeemable three ways, all equivalent:
//!
//! * [`wait`](Ticket::wait) blocks the calling thread (the classic
//!   shape);
//! * [`wait_for`](Ticket::wait_for) blocks with a timeout and hands the
//!   still-live ticket back on expiry;
//! * `Ticket<T>` implements [`std::future::Future`], waker-based and
//!   with **no async runtime in the dependency tree** — an executor
//!   polls it like any other future and is woken exactly once, when the
//!   backend resolves the request;
//! * [`on_resolve`](Ticket::on_resolve) hands the outcome to a callback
//!   on the resolving thread — the push-style shape serving front-ends
//!   (the `ddrs-net` response writer, for one) use to fan many
//!   concurrently in-flight tickets into one sink without a thread per
//!   request.
//!
//! Tickets also compose: [`map`](Ticket::map) /
//! [`map_outcome`](Ticket::map_outcome) project a ticket's value without
//! threads or polling loops, which is how the single-op convenience
//! methods of [`RangeStore`](crate::RangeStore) carve a `Ticket<u64>`
//! out of a whole-request `Ticket<Response>`.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use ddrs_check::{TrackedCondvar, TrackedMutex};
use ddrs_trace::{SpanId, Stage};

use crate::ServiceError;

/// A successfully committed response: the value plus the request's
/// position in the backend's serial commit order.
///
/// Commit sequence numbers are assigned densely in dispatch order; a
/// replay of all committed requests in ascending `seq` against a
/// sequential oracle reproduces every `value` exactly (the
/// batch-serializability contract, pinned by the differential tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit<T> {
    /// The response value.
    pub value: T,
    /// Position in the backend's serial commit order.
    pub seq: u64,
}

/// How a resolved ticket turned out: the committed response, or the
/// error that took its place.
pub type Outcome<T> = Result<Commit<T>, ServiceError>;

enum State<T> {
    /// Unresolved; holds the waker of the most recent poll, if any.
    Waiting(Option<Waker>),
    Done(Outcome<T>),
    Taken,
}

struct Shared<T> {
    /// Lock class `ticket.state` — the innermost lock of the whole
    /// stack: resolution paths take it with scheduler or shard locks
    /// already held, and it must never wrap around to any of them.
    state: TrackedMutex<State<T>>,
    cv: TrackedCondvar,
}

/// Store `outcome`, then wake every kind of waiter: parked `wait*`
/// callers via the condvar, and the latest polled waker via `wake`.
fn fire<T>(shared: &Shared<T>, outcome: Outcome<T>) {
    let waker = {
        let mut state = shared.state.lock();
        let prev = std::mem::replace(&mut *state, State::Done(outcome));
        shared.cv.notify_all();
        match prev {
            State::Waiting(w) => w,
            // `resolve` consumes the resolver and `Drop` checks for it,
            // so a second fire is impossible by construction.
            State::Done(_) | State::Taken => None,
        }
    };
    if let Some(w) = waker {
        w.wake();
    }
}

/// Result of [`Ticket::wait_for`]: either the resolved outcome, or the
/// still-live ticket riding back to the caller.
#[derive(Debug)]
pub enum WaitFor<T> {
    /// The backend resolved the request within the timeout.
    Ready(Outcome<T>),
    /// The timeout passed first. The ticket is returned intact — still
    /// registered with the backend, still resolvable; wait again, poll
    /// it, or drop it to abandon the response.
    TimedOut(Ticket<T>),
}

/// Erased inner node of a mapped ticket: lets `Ticket<U>` wrap a
/// `Ticket<T>` plus a projection without exposing `T` in the type.
trait Node<T>: Send {
    fn poll_take(&mut self, waker: &Waker) -> Poll<Outcome<T>>;
    fn wait(self: Box<Self>) -> Outcome<T>;
    fn wait_until(self: Box<Self>, deadline: Instant) -> Result<Outcome<T>, Box<dyn Node<T>>>;
    fn is_done(&self) -> bool;
}

type Projection<R, T> = Box<dyn FnOnce(Outcome<R>) -> Outcome<T> + Send>;

struct MapNode<R, T> {
    inner: Option<Ticket<R>>,
    f: Option<Projection<R, T>>,
}

impl<R: Send + 'static, T: 'static> MapNode<R, T> {
    fn project(&mut self, out: Outcome<R>) -> Outcome<T> {
        (self.f.take().expect("mapped ticket resolved twice"))(out)
    }
}

impl<R: Send + 'static, T: 'static> Node<T> for MapNode<R, T> {
    fn poll_take(&mut self, waker: &Waker) -> Poll<Outcome<T>> {
        let inner = self.inner.as_mut().expect("ticket polled after completion");
        match inner.poll_take(waker) {
            Poll::Ready(out) => Poll::Ready(self.project(out)),
            Poll::Pending => Poll::Pending,
        }
    }

    fn wait(mut self: Box<Self>) -> Outcome<T> {
        let out = self.inner.take().expect("ticket waited twice").wait();
        self.project(out)
    }

    fn wait_until(mut self: Box<Self>, deadline: Instant) -> Result<Outcome<T>, Box<dyn Node<T>>> {
        match self.inner.take().expect("ticket waited twice").wait_until(deadline) {
            WaitFor::Ready(out) => Ok(self.project(out)),
            WaitFor::TimedOut(t) => {
                self.inner = Some(t);
                Err(self)
            }
        }
    }

    fn is_done(&self) -> bool {
        self.inner.as_ref().is_some_and(Ticket::is_done)
    }
}

enum Repr<T> {
    Direct(Arc<Shared<T>>),
    Mapped(Box<dyn Node<T>>),
}

/// The client half: redeem it for the response with
/// [`wait`](Ticket::wait), [`wait_for`](Ticket::wait_for), or by
/// polling it as a [`Future`].
pub struct Ticket<T> {
    repr: Repr<T>,
    span: SpanId,
}

/// The backend half: resolves the paired [`Ticket`] exactly once.
///
/// Dropping an unresolved resolver resolves the ticket with
/// [`ServiceError::ShuttingDown`] — a safety net that keeps clients from
/// blocking forever if a scheduler abandons a request.
///
/// Public so serving front-ends (the scatter-gather router in
/// `ddrs-shard`, custom backends) can hand out
/// the same [`Ticket`] API without re-implementing the channel.
pub struct Resolver<T> {
    repr: ResolverRepr<T>,
    span: SpanId,
}

enum ResolverRepr<T> {
    Channel(Option<Arc<Shared<T>>>),
    /// Resolution is delivered to a callback instead of a channel — the
    /// plumbing that lets one multi-op [`Request`](crate::Request)
    /// aggregate many per-op resolutions into a single outer ticket.
    Callback(Option<Box<dyn FnOnce(Outcome<T>) + Send>>),
}

/// Create a connected ticket/resolver pair.
///
/// Public for the same reason as [`Resolver`]: front-ends mint tickets
/// with it.
pub fn ticket<T>() -> (Ticket<T>, Resolver<T>) {
    let shared = Arc::new(Shared {
        state: TrackedMutex::new("ticket.state", State::Waiting(None)),
        cv: TrackedCondvar::new(),
    });
    let span = SpanId::fresh();
    (
        Ticket { repr: Repr::Direct(Arc::clone(&shared)), span },
        Resolver { repr: ResolverRepr::Channel(Some(shared)), span },
    )
}

/// A resolver whose resolution is handed to `f` instead of a channel,
/// recording its lifecycle under `span` (pass the parent request's span
/// so every op of a request shares one trace identity).
pub(crate) fn callback_resolver<T>(
    span: SpanId,
    f: impl FnOnce(Outcome<T>) + Send + 'static,
) -> Resolver<T> {
    Resolver { repr: ResolverRepr::Callback(Some(Box::new(f))), span }
}

impl<T> Resolver<T> {
    /// Resolve the paired ticket and wake its waiter (parked thread or
    /// polled waker alike).
    pub fn resolve(mut self, outcome: Outcome<T>) {
        let t0 = ddrs_trace::now_ns();
        let err = outcome.is_err();
        match &mut self.repr {
            ResolverRepr::Channel(shared) => {
                fire(&shared.take().expect("resolver used twice"), outcome);
            }
            ResolverRepr::Callback(f) => (f.take().expect("resolver used twice"))(outcome),
        }
        ddrs_trace::complete(self.span, Stage::Resolve, t0, err);
    }

    /// The trace span this resolver reports under ([`SpanId::NONE`]
    /// when span recording is compiled out).
    pub fn span(&self) -> SpanId {
        self.span
    }
}

impl<T> std::fmt::Debug for Resolver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resolved = match &self.repr {
            ResolverRepr::Channel(s) => s.is_none(),
            ResolverRepr::Callback(c) => c.is_none(),
        };
        f.debug_struct("Resolver").field("resolved", &resolved).finish()
    }
}

impl<T> Drop for Resolver<T> {
    fn drop(&mut self) {
        let t0 = ddrs_trace::now_ns();
        let fired = match &mut self.repr {
            ResolverRepr::Channel(shared) => match shared.take() {
                Some(shared) => {
                    fire(&shared, Err(ServiceError::ShuttingDown));
                    true
                }
                None => false,
            },
            ResolverRepr::Callback(f) => match f.take() {
                Some(f) => {
                    f(Err(ServiceError::ShuttingDown));
                    true
                }
                None => false,
            },
        };
        if fired {
            // An abandoned request still closes its span — as an error.
            ddrs_trace::complete(self.span, Stage::Resolve, t0, true);
        }
    }
}

impl<T> Ticket<T> {
    /// Non-blocking take: `Ready` exactly once, else registers `waker`.
    fn poll_take(&mut self, waker: &Waker) -> Poll<Outcome<T>> {
        match &mut self.repr {
            Repr::Direct(shared) => {
                let mut state = shared.state.lock();
                match std::mem::replace(&mut *state, State::Taken) {
                    State::Done(out) => Poll::Ready(out),
                    State::Waiting(_) => {
                        *state = State::Waiting(Some(waker.clone()));
                        Poll::Pending
                    }
                    State::Taken => panic!("ticket polled after completion"),
                }
            }
            Repr::Mapped(node) => node.poll_take(waker),
        }
    }

    /// Block until the backend resolves this request.
    pub fn wait(self) -> Outcome<T> {
        match self.repr {
            Repr::Direct(shared) => {
                let mut state = shared.state.lock();
                loop {
                    match std::mem::replace(&mut *state, State::Taken) {
                        State::Done(outcome) => return outcome,
                        s @ State::Waiting(_) => {
                            *state = s;
                            state = shared.cv.wait(state);
                        }
                        State::Taken => unreachable!("ticket waited twice"),
                    }
                }
            }
            Repr::Mapped(node) => node.wait(),
        }
    }

    /// Block for at most `timeout`. On expiry the still-live ticket
    /// rides back inside [`WaitFor::TimedOut`]: it remains registered
    /// with the backend and resolvable, so the caller can wait again,
    /// poll it, or give up and drop it.
    pub fn wait_for(self, timeout: Duration) -> WaitFor<T> {
        self.wait_until(Instant::now() + timeout)
    }

    fn wait_until(self, deadline: Instant) -> WaitFor<T> {
        let span = self.span;
        match self.repr {
            Repr::Direct(shared) => {
                let mut state = shared.state.lock();
                loop {
                    match std::mem::replace(&mut *state, State::Taken) {
                        State::Done(outcome) => return WaitFor::Ready(outcome),
                        s @ State::Waiting(_) => {
                            *state = s;
                            let now = Instant::now();
                            if now >= deadline {
                                drop(state);
                                return WaitFor::TimedOut(Ticket {
                                    repr: Repr::Direct(shared),
                                    span,
                                });
                            }
                            state = shared.cv.wait_timeout(state, deadline - now).0;
                        }
                        State::Taken => unreachable!("ticket waited twice"),
                    }
                }
            }
            Repr::Mapped(node) => match node.wait_until(deadline) {
                Ok(out) => WaitFor::Ready(out),
                Err(node) => WaitFor::TimedOut(Ticket { repr: Repr::Mapped(node), span }),
            },
        }
    }

    /// Deliver this ticket's outcome to `f` the moment the backend
    /// resolves it, without parking a thread per request.
    ///
    /// The ticket is polled once at registration — an already-resolved
    /// ticket runs `f` synchronously on the calling thread — and
    /// otherwise parked behind a waker; when the backend fires, `f`
    /// runs on the resolving thread. Exactly-once either way, including
    /// the [`ServiceError::ShuttingDown`] outcome of an abandoned
    /// resolver. This is the hook network front-ends use to fan
    /// out-of-order resolutions into a per-connection writer.
    pub fn on_resolve(self, f: impl FnOnce(Outcome<T>) + Send + 'static)
    where
        T: Send + 'static,
    {
        Watch::arm(self, Box::new(f));
    }

    /// The trace span every lifecycle event of this request is recorded
    /// under — pass it to [`ddrs_trace::Trace::span_events`] to pull one
    /// request's history out of a capture. [`SpanId::NONE`] when span
    /// recording is compiled out; mapping a ticket preserves the span.
    pub fn span(&self) -> SpanId {
        self.span
    }

    /// True once the backend has resolved this request (`wait` will not
    /// block and polling returns `Ready`).
    pub fn is_done(&self) -> bool {
        match &self.repr {
            Repr::Direct(shared) => !matches!(*shared.state.lock(), State::Waiting(_)),
            Repr::Mapped(node) => node.is_done(),
        }
    }

    /// Project the whole outcome — commit and error arms alike — into a
    /// new ticket, without threads or polling. The projection runs at
    /// redemption time, on whichever thread redeems the ticket.
    pub fn map_outcome<U: 'static>(
        self,
        f: impl FnOnce(Outcome<T>) -> Outcome<U> + Send + 'static,
    ) -> Ticket<U>
    where
        T: Send + 'static,
    {
        let span = self.span;
        Ticket {
            repr: Repr::Mapped(Box::new(MapNode { inner: Some(self), f: Some(Box::new(f)) })),
            span,
        }
    }

    /// Project a committed value, leaving the sequence number and the
    /// error arm untouched.
    pub fn map<U: 'static>(self, f: impl FnOnce(T) -> U + Send + 'static) -> Ticket<U>
    where
        T: Send + 'static,
    {
        self.map_outcome(move |out| out.map(|c| Commit { value: f(c.value), seq: c.seq }))
    }
}

type OnResolve<T> = Box<dyn FnOnce(Outcome<T>) + Send>;

/// The engine behind [`Ticket::on_resolve`]: a self-waking cell that
/// holds the parked ticket and its callback until the backend fires.
///
/// Built on [`std::task::Wake`], so it needs no async runtime: arming
/// polls the ticket once (registering the watch as its waker), and the
/// backend's `fire` wakes the watch, which re-polls and runs the
/// callback with the outcome.
struct Watch<T> {
    /// Lock class `ticket.watch` — held while polling, so it nests
    /// *outside* `ticket.state` and must stay ranked before it.
    watch: TrackedMutex<Option<(Ticket<T>, OnResolve<T>)>>,
}

impl<T: Send + 'static> Watch<T> {
    fn arm(ticket: Ticket<T>, f: OnResolve<T>) {
        let watch = Arc::new(Watch { watch: TrackedMutex::new("ticket.watch", Some((ticket, f))) });
        watch.poll_cell();
    }

    fn poll_cell(self: &Arc<Self>) {
        let waker = std::task::Waker::from(Arc::clone(self));
        let ready = {
            let mut cell = self.watch.lock();
            let Some((mut ticket, f)) = cell.take() else {
                // A spurious second wake after delivery: nothing to do.
                return;
            };
            match ticket.poll_take(&waker) {
                Poll::Ready(out) => Some((f, out)),
                Poll::Pending => {
                    *cell = Some((ticket, f));
                    None
                }
            }
        };
        // Run the callback outside the watch lock: it may take arbitrary
        // downstream locks (a connection writer, say) of its own.
        if let Some((f, out)) = ready {
            f(out);
        }
    }
}

impl<T: Send + 'static> std::task::Wake for Watch<T> {
    fn wake(self: Arc<Self>) {
        self.poll_cell();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.poll_cell();
    }
}

impl<T> Future for Ticket<T> {
    type Output = Outcome<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // `Ticket` is `Unpin` (it owns only `Arc` / `Box` fields), so
        // projecting out of the pin is safe.
        self.get_mut().poll_take(cx.waker())
    }
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("done", &self.is_done()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn resolve_then_wait() {
        let (t, r) = ticket::<u64>();
        assert!(!t.is_done());
        r.resolve(Ok(Commit { value: 7, seq: 3 }));
        assert!(t.is_done());
        assert_eq!(t.wait(), Ok(Commit { value: 7, seq: 3 }));
    }

    #[test]
    fn wait_blocks_until_resolved_from_another_thread() {
        let (t, r) = ticket::<Vec<u32>>();
        let h = std::thread::spawn(move || t.wait());
        std::thread::sleep(Duration::from_millis(10));
        r.resolve(Ok(Commit { value: vec![1, 2], seq: 0 }));
        assert_eq!(h.join().unwrap(), Ok(Commit { value: vec![1, 2], seq: 0 }));
    }

    #[test]
    fn wait_for_returns_the_ticket_back() {
        let (t, r) = ticket::<()>();
        let WaitFor::TimedOut(t) = t.wait_for(Duration::from_millis(5)) else {
            panic!("unresolved ticket must time out");
        };
        r.resolve(Err(ServiceError::DeadlineExpired));
        let WaitFor::Ready(out) = t.wait_for(Duration::from_secs(5)) else {
            panic!("resolved ticket must be ready");
        };
        assert_eq!(out, Err(ServiceError::DeadlineExpired));
    }

    #[test]
    fn dropping_the_resolver_fails_the_ticket() {
        let (t, r) = ticket::<u64>();
        drop(r);
        assert_eq!(t.wait(), Err(ServiceError::ShuttingDown));
    }

    #[test]
    fn map_projects_the_value_and_keeps_the_seq() {
        let (t, r) = ticket::<u64>();
        let t = t.map(|v| v * 2);
        r.resolve(Ok(Commit { value: 21, seq: 9 }));
        assert_eq!(t.wait(), Ok(Commit { value: 42, seq: 9 }));
    }

    #[test]
    fn mapped_ticket_times_out_and_survives() {
        let (t, r) = ticket::<u64>();
        let t = t.map(|v| v + 1);
        let WaitFor::TimedOut(t) = t.wait_for(Duration::from_millis(2)) else {
            panic!("unresolved mapped ticket must time out");
        };
        assert!(!t.is_done());
        r.resolve(Ok(Commit { value: 1, seq: 0 }));
        assert_eq!(t.wait(), Ok(Commit { value: 2, seq: 0 }));
    }

    #[test]
    fn map_outcome_can_rewrite_errors() {
        let (t, r) = ticket::<u64>();
        let t = t.map_outcome(|out| match out {
            Err(ServiceError::ShuttingDown) => Ok(Commit { value: 0, seq: 0 }),
            other => other,
        });
        drop(r);
        assert_eq!(t.wait(), Ok(Commit { value: 0, seq: 0 }));
    }

    #[test]
    fn on_resolve_fires_synchronously_when_already_done() {
        let (t, r) = ticket::<u64>();
        r.resolve(Ok(Commit { value: 11, seq: 4 }));
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h = Arc::clone(&hits);
        t.on_resolve(move |out| h.lock().unwrap().push(out));
        assert_eq!(*hits.lock().unwrap(), vec![Ok(Commit { value: 11, seq: 4 })]);
    }

    #[test]
    fn on_resolve_fires_from_the_resolving_thread() {
        let (t, r) = ticket::<u64>();
        let (tx, rx) = std::sync::mpsc::channel();
        t.on_resolve(move |out| tx.send(out).unwrap());
        assert!(rx.try_recv().is_err(), "callback must not fire before resolution");
        let h = std::thread::spawn(move || r.resolve(Ok(Commit { value: 3, seq: 8 })));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(Commit { value: 3, seq: 8 })
        );
        h.join().unwrap();
    }

    #[test]
    fn on_resolve_sees_the_abandoned_resolver_outcome() {
        let (t, r) = ticket::<u64>();
        let (tx, rx) = std::sync::mpsc::channel();
        t.on_resolve(move |out| tx.send(out).unwrap());
        drop(r);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Err(ServiceError::ShuttingDown)
        );
    }

    #[test]
    fn on_resolve_composes_with_map() {
        let (t, r) = ticket::<u64>();
        let (tx, rx) = std::sync::mpsc::channel();
        t.map(|v| v * 10).on_resolve(move |out| tx.send(out).unwrap());
        r.resolve(Ok(Commit { value: 7, seq: 2 }));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(Commit { value: 70, seq: 2 })
        );
    }

    #[test]
    fn callback_resolver_fires_once_and_on_drop() {
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h = Arc::clone(&hits);
        let r = callback_resolver::<u64>(SpanId::fresh(), move |out| h.lock().unwrap().push(out));
        r.resolve(Ok(Commit { value: 5, seq: 1 }));
        let h = Arc::clone(&hits);
        let r2 = callback_resolver::<u64>(SpanId::fresh(), move |out| h.lock().unwrap().push(out));
        drop(r2);
        assert_eq!(
            *hits.lock().unwrap(),
            vec![Ok(Commit { value: 5, seq: 1 }), Err(ServiceError::ShuttingDown)]
        );
    }
}
