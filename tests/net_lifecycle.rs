//! Server lifecycle edge cases: disconnects with tickets in flight,
//! drain-before-close shutdown, typed over-limit refusals, read
//! deadlines — and the acceptance pin that the one-fused-dispatch
//! guarantee survives the network hop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ddrs::cgm::Machine;
use ddrs::client::{ticket, InlineStore, RangeStore, Request, Response, SubmitError, Ticket};
use ddrs::net::{NetConfig, NetError, NetServer, RemoteConfig, RemoteStore};
use ddrs::rangetree::{DynamicDistRangeTree, Point, Rect, Sum};
use ddrs::shard::{PartitionPolicy, ShardedConfig, ShardedService};

fn inline_store(n: u32) -> InlineStore<Sum, 2> {
    let machine = Machine::new(1).unwrap();
    let mut tree = DynamicDistRangeTree::<2>::new(8);
    let pts: Vec<Point<2>> = (0..n).map(|i| Point::weighted([i as i64, i as i64], i, 2)).collect();
    if !pts.is_empty() {
        tree.insert_batch(&machine, &pts).unwrap();
    }
    InlineStore::new(machine, tree, Sum)
}

/// A store that answers correctly but slowly — each submission resolves
/// from a helper thread after `delay`, guaranteeing a window in which
/// responses are genuinely in flight.
struct SlowStore {
    inner: Arc<InlineStore<Sum, 2>>,
    delay: Duration,
}

impl SlowStore {
    fn new(n: u32, delay: Duration) -> Self {
        SlowStore { inner: Arc::new(inline_store(n)), delay }
    }
}

impl RangeStore<Sum, 2> for SlowStore {
    fn submit(&self, req: Request<Sum, 2>) -> Result<Ticket<Response<Sum>>, SubmitError> {
        let (outer, resolver) = ticket::<Response<Sum>>();
        let inner = Arc::clone(&self.inner);
        let delay = self.delay;
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            resolver.resolve(inner.submit(req).expect("inline store accepts").wait());
        });
        Ok(outer)
    }
}

fn count_all() -> (Request<Sum, 2>, ddrs::client::CountHandle) {
    let mut req = Request::new();
    let c = req.count(Rect::new([i64::MIN, i64::MIN], [i64::MAX, i64::MAX]));
    (req, c)
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(10), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn client_disconnect_with_tickets_in_flight_is_accounted_and_survivable() {
    let store = SlowStore::new(3, Duration::from_millis(150));
    let server = NetServer::serve(Box::new(store), "127.0.0.1:0", NetConfig::default()).unwrap();

    let client: RemoteStore<Sum, 2> =
        RemoteStore::connect(server.local_addr(), RemoteConfig { connections: 1 }).unwrap();
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            let (req, _) = count_all();
            client.submit(req).unwrap()
        })
        .collect();
    wait_until("requests admitted", || server.stats().requests == 3);

    // The client walks away with all three responses still in flight.
    drop(client);
    for t in tickets {
        // The pool's drop resolves every orphaned ticket the way an
        // in-process store's shutdown would.
        assert_eq!(t.wait(), Err(ddrs::client::ServiceError::ShuttingDown));
    }

    // Every admitted response is accounted — flushed into a doomed
    // socket or dropped — and the connection winds down fully.
    wait_until("responses accounted", || {
        let s = server.stats();
        s.responses + s.responses_dropped == 3
    });
    wait_until("connection reaped", || server.stats().active == 0);

    // The store is not poisoned: a fresh client gets correct answers.
    let client: RemoteStore<Sum, 2> =
        RemoteStore::connect(server.local_addr(), RemoteConfig { connections: 1 }).unwrap();
    let (req, c) = count_all();
    let commit = client.submit(req).unwrap().wait().unwrap();
    assert_eq!(commit.value.count(c), 3);
    drop(client);
    server.shutdown();
}

#[test]
fn begin_shutdown_drains_inflight_responses_before_closing() {
    let store = SlowStore::new(5, Duration::from_millis(200));
    let server = NetServer::serve(Box::new(store), "127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let client: RemoteStore<Sum, 2> =
        RemoteStore::connect(addr, RemoteConfig { connections: 1 }).unwrap();
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            let (req, c) = count_all();
            (c, client.submit(req).unwrap())
        })
        .collect();
    wait_until("requests admitted", || server.stats().requests == 3);

    // Drain: begin_shutdown must block until every admitted response
    // has been flushed to its socket, not cut them off.
    server.begin_shutdown();
    let stats = server.stats();
    assert_eq!(stats.responses, 3, "drain must flush all in-flight responses");
    assert_eq!(stats.responses_dropped, 0);
    assert_eq!(stats.active, 0);

    // The flushed responses reach the still-listening client: committed
    // values, not shutdown errors.
    for (c, t) in tickets {
        let commit = t.wait().expect("drained response must commit");
        assert_eq!(commit.value.count(c), 5);
    }

    // After the drain the pool is dead and new connections fail.
    let (req, _) = count_all();
    assert!(matches!(client.submit(req), Err(SubmitError::ShutDown)));
    assert!(RemoteStore::<Sum, 2>::connect(addr, RemoteConfig { connections: 1 }).is_err());
    drop(client);
    server.shutdown();
}

#[test]
fn over_limit_connections_get_a_typed_refusal() {
    let server = NetServer::serve(
        Box::new(inline_store(1)),
        "127.0.0.1:0",
        NetConfig { max_connections: 1, ..Default::default() },
    )
    .unwrap();

    let first: RemoteStore<Sum, 2> =
        RemoteStore::connect(server.local_addr(), RemoteConfig { connections: 1 }).unwrap();
    let err = RemoteStore::<Sum, 2>::connect(server.local_addr(), RemoteConfig { connections: 1 })
        .unwrap_err();
    assert!(
        matches!(err, NetError::Refused { reason: ddrs::net::RefusedReason::AtCapacity, .. }),
        "got {err}"
    );
    assert_eq!(server.stats().refused, 1);

    // The slot frees once the first client leaves.
    drop(first);
    wait_until("slot freed", || server.stats().active == 0);
    let again: RemoteStore<Sum, 2> =
        RemoteStore::connect(server.local_addr(), RemoteConfig { connections: 1 }).unwrap();
    let (req, c) = count_all();
    assert_eq!(again.submit(req).unwrap().wait().unwrap().value.count(c), 1);
    drop(again);
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_by_the_read_deadline() {
    let server = NetServer::serve(
        Box::new(inline_store(1)),
        "127.0.0.1:0",
        NetConfig { read_timeout: Some(Duration::from_millis(60)), ..Default::default() },
    )
    .unwrap();
    // A raw TCP connection that handshakes and then says nothing.
    let raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    wait_until("idle connection reaped", || {
        let s = server.stats();
        s.read_timeouts == 1 && s.active == 0
    });
    drop(raw);
    server.shutdown();
}

#[test]
fn fused_dispatch_pin_holds_through_the_wire() {
    let machines = vec![Machine::new(2).unwrap()];
    let pts: Vec<Point<2>> =
        (0..48).map(|i| Point::weighted([i as i64 * 16, (i as i64 * 37) % 600], i, 2)).collect();
    let service = ShardedService::start(
        machines,
        8,
        &pts,
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig::default(),
    )
    .unwrap();
    // Served behind an `Arc` so the test keeps a stats handle to the
    // very service instance on the far side of the socket.
    let service = Arc::new(service);
    let server =
        NetServer::serve(Box::new(Arc::clone(&service)), "127.0.0.1:0", NetConfig::default())
            .unwrap();
    let client: RemoteStore<Sum, 2> =
        RemoteStore::connect(server.local_addr(), RemoteConfig { connections: 1 }).unwrap();

    let mut req = Request::new();
    let all = Rect::new([0, 0], [800, 600]);
    let corner = Rect::new([0, 0], [50, 50]);
    let c0 = req.count(all);
    let c1 = req.count(corner);
    let a0 = req.aggregate(all);
    let _a1 = req.aggregate(corner);
    let r0 = req.report(corner);
    let resp = client.submit(req).unwrap().wait().unwrap().value;
    assert_eq!(resp.count(c0), 48);
    assert_eq!(resp.aggregate(a0), &Some(96));
    assert_eq!(resp.report(r0).len() as u64, resp.count(c1));

    // The acceptance pin, unchanged by the network hop: five reads in
    // one request are still ONE machine run and ONE coalesced dispatch
    // on the serving side.
    let stats = service.stats();
    assert_eq!(stats.machine.runs, 1, "5 remote reads must fuse into one run");
    assert_eq!(stats.dispatches, 1);
    assert_eq!(stats.queries_coalesced, 5);

    drop(client);
    server.shutdown();
}

#[test]
fn the_net_stack_leaves_no_lock_order_reports() {
    if !ddrs::check::tracking_active() {
        return;
    }
    // A full life cycle: connect, pipeline, disconnect mid-flight,
    // reconnect, drain — every net.conn/ticket lock pairing exercised.
    let store = SlowStore::new(2, Duration::from_millis(30));
    let server = NetServer::serve(Box::new(store), "127.0.0.1:0", NetConfig::default()).unwrap();
    let client: RemoteStore<Sum, 2> =
        RemoteStore::connect(server.local_addr(), RemoteConfig { connections: 2 }).unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|_| {
            let (req, _) = count_all();
            client.submit(req).unwrap()
        })
        .collect();
    drop(client);
    for t in tickets {
        let _ = t.wait();
    }
    server.shutdown();
    let reports = ddrs::check::lock_order_reports();
    assert!(reports.is_empty(), "lock-order violations over the wire: {reports:?}");
}
