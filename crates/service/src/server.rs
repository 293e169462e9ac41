//! The TCP flow-monitoring server.
//!
//! Topology: one accept thread feeds accepted sockets to a fixed pool of
//! connection threads; each connection gets a dedicated writer thread
//! (replies and pushed `UPDATE` frames serialize through one channel, so
//! a client that issues a barrier and reads its ack has already received
//! every update the barrier flushed). Readings are routed by
//! `object % shards` to shard worker threads; row deltas flow from
//! shards to the single engine thread, which owns all subscription
//! state.
//!
//! The barrier protocol gives tests and clients a deterministic sync
//! point: flush every shard (acks guarantee all prior publishes were
//! ingested and their deltas *enqueued* to the engine), then bounce a
//! message off the engine (FIFO order guarantees those deltas were
//! *applied* and their notifications enqueued to writers before the ack
//! frame, which the single writer serializes after the updates).
//!
//! Shard workers are individually crash- and restart-able through
//! [`ServerHandle::crash_shard`] / [`ServerHandle::restart_shard`]: the
//! message queue lives in the handle, so no publish is lost, and the
//! restarted worker recovers from its WAL and re-emits full deltas.

use crate::engine::{spawn_engine, EngineConfig, EngineMsg};
use crate::metrics::ServiceMetrics;
use crate::protocol::{self, tag, PROTOCOL_VERSION};
use crate::shard::{spawn_shard, ShardConfig, ShardMsg};
use crate::sync::lock_or_recover;
use inflow_obs::{Counter, FlightEventKind, FlightRecorder, Hop, TraceChain, TraceClock};
use inflow_uncertainty::{IndoorContext, UrConfig};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration. `port: 0` binds an ephemeral port (tests);
/// `store_dir` gets one `shard-<i>` subdirectory per shard.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub shards: usize,
    pub max_gap: f64,
    pub lateness: Option<f64>,
    pub ur: UrConfig,
    pub store_dir: PathBuf,
    pub sync_each_reading: bool,
    pub snapshot_every: Option<u64>,
    /// Per-shard segment tier: seal closed rows into immutable segments
    /// every this many rows (`None` keeps everything in WAL+snapshots).
    pub compact_every: Option<u64>,
    /// Per-shard background scrub cadence, in ingested readings.
    pub scrub_every: Option<u64>,
    pub pool: usize,
    pub port: u16,
    /// Assign each PUBLISH batch a trace id and carry per-hop timestamp
    /// chains through the pipeline (on by default; the flight recorder
    /// is always on regardless).
    pub trace: bool,
    /// Completed traces with end-to-end latency at or above this land in
    /// the slow-request log.
    pub slow_ms: u64,
    /// Flight-recorder ring capacity (events; rounded up to a power of
    /// two).
    pub flight_capacity: usize,
    /// Backpressure bound: a `PUBLISH` arriving while any shard queue is
    /// at least this deep is refused with an `OVERLOADED` frame instead
    /// of being routed (0 refuses every publish — tests use that for a
    /// deterministic overload).
    pub max_queue: usize,
    /// Admission bound: connections beyond this many concurrently open
    /// are sent a single `OVERLOADED` frame and dropped at accept.
    pub max_conns: usize,
}

impl ServeConfig {
    pub fn new(store_dir: PathBuf) -> ServeConfig {
        ServeConfig {
            shards: 2,
            max_gap: 60.0,
            lateness: None,
            ur: UrConfig::default(),
            store_dir,
            sync_each_reading: false,
            snapshot_every: Some(1024),
            compact_every: Some(4096),
            scrub_every: Some(1024),
            pool: 4,
            port: 0,
            trace: true,
            slow_ms: 10,
            flight_capacity: 4096,
            max_queue: 16_384,
            max_conns: 1024,
        }
    }
}

/// One panic-hook registration: the ring to dump and where to write it.
type PanicDump = (Weak<FlightRecorder>, PathBuf);

/// Flight recorders registered for the process-wide panic hook, with
/// the postmortem path each should dump to. `Weak` so a stopped server
/// doesn't pin its ring (a dead entry is skipped).
static PANIC_DUMPS: OnceLock<Mutex<Vec<PanicDump>>> = OnceLock::new();

/// Chains the flight-recorder dump onto the default panic hook: any
/// panic anywhere in the process writes each live registered ring to
/// its `postmortem-panic.jsonl` before the usual backtrace output.
fn register_panic_dump(flight: &Arc<FlightRecorder>, path: PathBuf) {
    static HOOK: OnceLock<()> = OnceLock::new();
    let registry = PANIC_DUMPS.get_or_init(|| Mutex::new(Vec::new()));
    {
        let mut reg = lock_or_recover(registry);
        reg.retain(|(w, _)| w.upgrade().is_some());
        reg.push((Arc::downgrade(flight), path));
    }
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(registry) = PANIC_DUMPS.get() {
                // Copy the entries out so no lock is held while dumping.
                let entries: Vec<PanicDump> = lock_or_recover(registry).clone();
                for (weak, path) in entries {
                    if let Some(flight) = weak.upgrade() {
                        let _ = std::fs::write(&path, flight.dump_jsonl());
                    }
                }
            }
            prev(info);
        }));
    });
}

/// One shard's routing endpoint: the sender the router publishes into,
/// the shared receiver a (re)started worker drains, and the live worker
/// handle.
struct Shard {
    tx: Sender<ShardMsg>,
    rx: Arc<Mutex<Receiver<ShardMsg>>>,
    queue_depth: Arc<AtomicUsize>,
    dir: PathBuf,
    worker: Option<JoinHandle<()>>,
}

/// State shared by every connection thread.
struct Shared {
    shards: Mutex<Vec<Shard>>,
    engine_tx: Sender<EngineMsg>,
    metrics: Arc<ServiceMetrics>,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    addr: SocketAddr,
    /// Server-epoch clock all trace stamps and flight events share.
    clock: TraceClock,
    /// The always-on event ring.
    flight: Arc<FlightRecorder>,
    /// Router-assigned trace ids (0 reserved for "no trace").
    next_trace: AtomicU64,
    /// Per-hop tracing enabled (`ServeConfig::trace`).
    trace: bool,
    /// Shard-queue depth at which publishes are refused (`OVERLOADED`).
    max_queue: usize,
    /// Currently open (admitted) connections, for the accept bound.
    conns: AtomicUsize,
}

impl Shared {
    /// Routes one `PUBLISH` batch: partitions the readings by owning
    /// shard (a pure function of the object id, so per-object ordering
    /// holds) and hands each shard its whole slice as one message. Each
    /// slice yields one delta batch, so subscription refresh cost scales
    /// with publishes rather than readings — and the slicing follows
    /// client publish boundaries, keeping the cadence deterministic
    /// under record/replay.
    fn route_batch(&self, readings: Vec<inflow_tracking::RawReading>, trace: Option<TraceChain>) {
        let shards = lock_or_recover(&self.shards);
        let n = shards.len().max(1);
        let mut slices: Vec<Vec<inflow_tracking::RawReading>> = vec![Vec::new(); n];
        for r in readings {
            if let Some(slice) = slices.get_mut(r.object.0 as usize % n) {
                slice.push(r);
            }
        }
        for (idx, slice) in slices.into_iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            let Some(shard) = shards.get(idx) else { continue };
            shard.queue_depth.fetch_add(slice.len(), Ordering::Relaxed);
            self.metrics.add(Counter::ServeReadingsSharded, slice.len() as u64);
            let _ = shard.tx.send(ShardMsg::Publish(slice, trace));
        }
    }

    /// A fresh router-stamped trace chain, or `None` when tracing is off.
    fn new_trace(&self) -> Option<TraceChain> {
        if !self.trace {
            return None;
        }
        let id = self.next_trace.fetch_add(1, Ordering::Relaxed);
        let mut chain = TraceChain::new(id);
        chain.stamp(Hop::Router, self.clock.now_ns());
        Some(chain)
    }

    /// Current queue depth of every shard, in shard order.
    fn shard_depths(&self) -> Vec<u64> {
        let shards = lock_or_recover(&self.shards);
        shards.iter().map(|s| s.queue_depth.load(Ordering::Relaxed) as u64).collect()
    }

    /// Barrier half one: flush every shard, wait for all acks.
    fn flush_shards(&self) {
        let acks: Vec<Receiver<()>> = {
            let shards = lock_or_recover(&self.shards);
            shards
                .iter()
                .map(|s| {
                    let (ack_tx, ack_rx) = channel();
                    s.queue_depth.fetch_add(1, Ordering::Relaxed);
                    let _ = s.tx.send(ShardMsg::Flush(ack_tx));
                    ack_rx
                })
                .collect()
        };
        for ack in acks {
            // A crashed (not yet restarted) shard can't ack; its queue is
            // intact, so the barrier still guarantees every *applied*
            // reading is reflected — which is all a crashed epoch promises.
            let _ = ack.recv_timeout(Duration::from_secs(5));
        }
    }
}

/// A running server. Dropping the handle does not stop the server; call
/// [`ServerHandle::shutdown`] (or send a `SHUTDOWN` frame) then
/// [`ServerHandle::wait`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    cfg: ServeConfig,
    accept: Option<JoinHandle<()>>,
    pool: Vec<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
}

pub struct Server;

impl Server {
    /// Builds the full pipeline and starts listening on 127.0.0.1.
    pub fn start(ctx: Arc<IndoorContext>, cfg: ServeConfig) -> io::Result<ServerHandle> {
        let metrics = Arc::new(ServiceMetrics::new());
        metrics.set_slow_threshold_ns(cfg.slow_ms.saturating_mul(1_000_000));
        let clock = TraceClock::new();
        let flight = Arc::new(FlightRecorder::new(clock.clone(), cfg.flight_capacity));
        register_panic_dump(&flight, cfg.store_dir.join("postmortem-panic.jsonl"));
        let (engine_tx, engine_rx) = channel();
        let engine = spawn_engine(
            engine_rx,
            EngineConfig { ctx, ur: cfg.ur, flight: Arc::clone(&flight) },
            Arc::clone(&metrics),
        )?;

        let shard_cfg = ShardConfig {
            max_gap: cfg.max_gap,
            lateness: cfg.lateness,
            sync_each_reading: cfg.sync_each_reading,
            snapshot_every: cfg.snapshot_every,
            compact_every: cfg.compact_every,
            scrub_every: cfg.scrub_every,
        };
        let mut shards = Vec::with_capacity(cfg.shards.max(1));
        for i in 0..cfg.shards.max(1) {
            let (tx, rx) = channel();
            let rx = Arc::new(Mutex::new(rx));
            let queue_depth = Arc::new(AtomicUsize::new(0));
            let dir = cfg.store_dir.join(format!("shard-{i}"));
            std::fs::create_dir_all(&dir)?;
            let worker = spawn_shard(
                i,
                dir.clone(),
                Arc::clone(&rx),
                Arc::clone(&queue_depth),
                engine_tx.clone(),
                Arc::clone(&metrics),
                Arc::clone(&flight),
                shard_cfg.clone(),
            )?;
            shards.push(Shard { tx, rx, queue_depth, dir, worker: Some(worker) });
        }

        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shards: Mutex::new(shards),
            engine_tx,
            metrics,
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            addr,
            clock,
            flight,
            next_trace: AtomicU64::new(1),
            trace: cfg.trace,
            max_queue: cfg.max_queue,
            conns: AtomicUsize::new(0),
        });

        let (conn_tx, conn_rx) = channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut pool = Vec::with_capacity(cfg.pool.max(1));
        for i in 0..cfg.pool.max(1) {
            let rx = Arc::clone(&conn_rx);
            let shared = Arc::clone(&shared);
            pool.push(std::thread::Builder::new().name(format!("inflow-conn-{i}")).spawn(
                move || loop {
                    let stream = {
                        let guard = lock_or_recover(&rx);
                        match guard.recv() {
                            Ok(s) => s,
                            Err(_) => break,
                        }
                    };
                    serve_connection(stream, &shared);
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                },
            )?);
        }

        let accept_shared = Arc::clone(&shared);
        let max_conns = cfg.max_conns.max(1);
        let accept = std::thread::Builder::new().name("inflow-accept".into()).spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(mut s) => {
                        if accept_shared.conns.load(Ordering::Relaxed) >= max_conns {
                            // Over the admission bound: tell the client
                            // explicitly (one OVERLOADED frame) and drop
                            // the socket rather than queueing it blind.
                            accept_shared.metrics.add(Counter::ServeConnsRejected, 1);
                            accept_shared.flight.record(
                                FlightEventKind::ConnRejected,
                                0,
                                max_conns as u64,
                                0,
                            );
                            let mut frame = Vec::new();
                            inflow_tracking::store::frame::write_frame(
                                &mut frame,
                                tag::OVERLOADED,
                                &protocol::encode_u64(max_conns as u64),
                            );
                            let _ = s.write_all(&frame);
                            continue;
                        }
                        accept_shared.conns.fetch_add(1, Ordering::Relaxed);
                        if conn_tx.send(s).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            // conn_tx drops here: idle pool threads unblock and exit.
        })?;

        Ok(ServerHandle { shared, cfg, accept: Some(accept), pool, engine: Some(engine) })
    }
}

impl ServerHandle {
    /// The bound listen address (ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    pub fn metrics(&self) -> Arc<ServiceMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Kills shard `i` abruptly: no snapshot, no drain — the WAL is the
    /// only survivor, exactly like a process crash. Queued messages stay
    /// in the shared receiver for the restarted worker.
    pub fn crash_shard(&self, i: usize) {
        let (worker, tx) = {
            let mut shards = lock_or_recover(&self.shared.shards);
            let Some(s) = shards.get_mut(i) else { return };
            s.queue_depth.fetch_add(1, Ordering::Relaxed);
            let _ = s.tx.send(ShardMsg::Crash);
            (s.worker.take(), s.tx.clone())
        };
        drop(tx);
        if let Some(w) = worker {
            let _ = w.join();
        }
    }

    /// Restarts shard `i` on the same queue and store directory. The new
    /// worker recovers from the WAL and re-emits full deltas before
    /// draining whatever queued up during the outage.
    pub fn restart_shard(&self, i: usize) -> io::Result<()> {
        // Take what the respawn needs under the lock, then release it:
        // joining the old worker and reopening the store both block, and
        // the router locks `shards` on every batch (same discipline as
        // `crash_shard`). Concurrent restarts of the *same* shard are the
        // caller's responsibility, as before.
        let (old_worker, dir, rx, queue_depth) = {
            let mut shards = lock_or_recover(&self.shared.shards);
            let Some(s) = shards.get_mut(i) else {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, format!("no shard {i}")));
            };
            let w = s.worker.take();
            if w.is_some() {
                // A still-running worker would race the new one on the
                // store; crash it first.
                s.queue_depth.fetch_add(1, Ordering::Relaxed);
                let _ = s.tx.send(ShardMsg::Crash);
            }
            (w, s.dir.clone(), Arc::clone(&s.rx), Arc::clone(&s.queue_depth))
        };
        if let Some(w) = old_worker {
            let _ = w.join();
        }
        let cfg = ShardConfig {
            max_gap: self.cfg.max_gap,
            lateness: self.cfg.lateness,
            sync_each_reading: self.cfg.sync_each_reading,
            snapshot_every: self.cfg.snapshot_every,
            compact_every: self.cfg.compact_every,
            scrub_every: self.cfg.scrub_every,
        };
        let worker = spawn_shard(
            i,
            dir,
            rx,
            queue_depth,
            self.shared.engine_tx.clone(),
            self.shared.metrics.clone(),
            Arc::clone(&self.shared.flight),
            cfg,
        )?;
        let mut shards = lock_or_recover(&self.shared.shards);
        if let Some(s) = shards.get_mut(i) {
            s.worker = Some(worker);
        }
        drop(shards);
        self.shared.metrics.add(Counter::ServeShardRestarts, 1);
        self.shared.flight.record(FlightEventKind::ShardRestart, 0, i as u64, 0);
        Ok(())
    }

    /// The server's always-on flight recorder (tests and embedding
    /// harnesses inspect or dump it directly).
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.flight)
    }

    /// Abruptly stops the whole server: no shard snapshots, no clean
    /// drains — every shard exits as if the process died and the WALs
    /// are the only survivors. Open client connections are severed.
    /// Restart with [`Server::start`] on the same store directory (and
    /// an explicit port to come back on the same address); recovery
    /// replays the WALs. This is the fault-injection primitive the
    /// reconnect/resume suites drive.
    pub fn crash(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for p in self.pool.drain(..) {
            let _ = p.join();
        }
        let workers: Vec<Option<JoinHandle<()>>> = {
            let mut shards = lock_or_recover(&self.shared.shards);
            shards
                .iter_mut()
                .map(|s| {
                    s.queue_depth.fetch_add(1, Ordering::Relaxed);
                    let _ = s.tx.send(ShardMsg::Crash);
                    s.worker.take()
                })
                .collect()
        };
        for w in workers.into_iter().flatten() {
            let _ = w.join();
        }
        let _ = self.shared.engine_tx.send(EngineMsg::Stop);
        if let Some(e) = self.engine.take() {
            let _ = e.join();
        }
    }

    /// Initiates shutdown (also reachable via a `SHUTDOWN` frame).
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.shared.addr);
    }

    /// Blocks until the server has fully stopped (accept loop, pool,
    /// shards snapshotted, engine drained). Call after [`shutdown`] or
    /// after a client sent `SHUTDOWN`.
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn wait(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for p in self.pool.drain(..) {
            let _ = p.join();
        }
        // Stop shards cleanly (snapshot) before the engine.
        let stops: Vec<(Receiver<()>, Option<JoinHandle<()>>)> = {
            let mut shards = lock_or_recover(&self.shared.shards);
            shards
                .iter_mut()
                .map(|s| {
                    let (ack_tx, ack_rx) = channel();
                    s.queue_depth.fetch_add(1, Ordering::Relaxed);
                    let _ = s.tx.send(ShardMsg::Stop(ack_tx));
                    (ack_rx, s.worker.take())
                })
                .collect()
        };
        for (ack, worker) in stops {
            let _ = ack.recv_timeout(Duration::from_secs(5));
            if let Some(w) = worker {
                let _ = w.join();
            }
        }
        let _ = self.shared.engine_tx.send(EngineMsg::Stop);
        if let Some(e) = self.engine.take() {
            let _ = e.join();
        }
    }
}

/// Reads frames off one client connection until EOF, error, or server
/// shutdown. Replies (and engine-pushed updates) go through a dedicated
/// writer thread so they never interleave mid-frame.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    // Replies are small frames written as soon as they are ready; with
    // Nagle's algorithm on, one written behind an unacknowledged frame
    // waits for the client's delayed ACK (~40 ms). The client side sets
    // the same option. Failure only costs latency, so it is not fatal.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        shared.conns.fetch_sub(1, Ordering::Relaxed);
        return;
    };
    let (writer_tx, writer_rx) = channel::<Vec<u8>>();
    let writer = std::thread::Builder::new()
        .name(format!("inflow-writer-{conn_id}"))
        .spawn(move || write_loop(write_half, writer_rx));
    let Ok(writer) = writer else {
        shared.conns.fetch_sub(1, Ordering::Relaxed);
        return;
    };

    shared.flight.record(FlightEventKind::ConnOpened, 0, conn_id, 0);
    read_loop(stream, shared, conn_id, &writer_tx);
    shared.flight.record(FlightEventKind::ConnClosed, 0, conn_id, 0);

    // Reader done: detach the engine's handle on this connection, then
    // close the writer channel so the writer thread drains and exits.
    let _ = shared.engine_tx.send(EngineMsg::DropConn(conn_id));
    drop(writer_tx);
    let _ = writer.join();
    shared.conns.fetch_sub(1, Ordering::Relaxed);
}

fn write_loop(mut stream: TcpStream, rx: Receiver<Vec<u8>>) {
    while let Ok(frame) = rx.recv() {
        if stream.write_all(&frame).is_err() {
            break;
        }
    }
    let _ = stream.flush();
}

/// Queues one reply frame on the connection's writer.
fn reply(writer: &Sender<Vec<u8>>, tag_byte: u8, payload: &[u8]) {
    let mut frame = Vec::with_capacity(9 + payload.len());
    inflow_tracking::store::frame::write_frame(&mut frame, tag_byte, payload);
    let _ = writer.send(frame);
}

fn read_loop(mut stream: TcpStream, shared: &Shared, conn_id: u64, writer: &Sender<Vec<u8>>) {
    // Short read timeout on the *tag byte only* so the loop can poll the
    // shutdown flag; `read_tag`/`read_body` never split a frame across a
    // timeout.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    // Until a HELLO arrives the connection speaks v1 (pre-tracing wire
    // format) so old clients keep working unchanged.
    let mut conn_version: u32 = 1;
    loop {
        let tag_byte = match protocol::read_tag(&mut stream) {
            Ok(Some(t)) => t,
            Ok(None) => break, // clean EOF
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let body = match protocol::read_body(&mut stream, tag_byte) {
            Ok(b) => b,
            Err(_) => {
                reply(writer, tag::ERROR, b"malformed frame");
                break;
            }
        };
        match tag_byte {
            tag::PUBLISH => match protocol::decode_publish(&body) {
                Ok(readings) => {
                    let deepest = shared.shard_depths().into_iter().max().unwrap_or(0);
                    if deepest >= shared.max_queue as u64 {
                        // Explicit backpressure: refuse the batch rather
                        // than letting the queues grow without bound.
                        shared.metrics.add(Counter::ServeOverloads, 1);
                        shared.flight.record(FlightEventKind::Overloaded, 0, conn_id, deepest);
                        reply(writer, tag::OVERLOADED, &protocol::encode_u64(deepest));
                        continue;
                    }
                    let trace = shared.new_trace();
                    shared.flight.record(
                        FlightEventKind::PublishRouted,
                        trace.map_or(0, |t| t.id),
                        conn_id,
                        readings.len() as u64,
                    );
                    shared.route_batch(readings, trace);
                    // v2 connections learn the batch's trace id.
                    match trace {
                        Some(chain) if conn_version >= 2 => {
                            reply(writer, tag::ACK, &protocol::encode_u64(chain.id))
                        }
                        _ => reply(writer, tag::ACK, &[]),
                    }
                }
                Err(e) => reply(writer, tag::ERROR, e.to_string().as_bytes()),
            },
            tag::HELLO => match protocol::decode_u32(&body) {
                Ok(client_version) => {
                    conn_version = client_version.clamp(1, PROTOCOL_VERSION);
                    reply(writer, tag::HELLO_ACK, &protocol::encode_u32(conn_version));
                }
                Err(e) => reply(writer, tag::ERROR, e.to_string().as_bytes()),
            },
            tag::METRICS => handle_metrics(shared, conn_id, writer),
            tag::TRACE => handle_trace(shared, conn_id, writer),
            tag::FLIGHT => handle_flight(shared, conn_id, writer),
            tag::SUBSCRIBE => match protocol::decode_subscribe(&body) {
                Ok((spec, resume)) => {
                    let _ = shared.engine_tx.send(EngineMsg::Subscribe {
                        spec,
                        conn: conn_id,
                        trace_v2: conn_version >= 2,
                        resume,
                        writer: writer.clone(),
                    });
                }
                Err(e) => reply(writer, tag::ERROR, e.to_string().as_bytes()),
            },
            tag::UNSUBSCRIBE => match protocol::decode_u64(&body) {
                Ok(sub_id) => {
                    let _ = shared
                        .engine_tx
                        .send(EngineMsg::Unsubscribe { sub_id, writer: writer.clone() });
                }
                Err(e) => reply(writer, tag::ERROR, e.to_string().as_bytes()),
            },
            tag::CURRENT => match protocol::decode_u64(&body) {
                Ok(sub_id) => {
                    let _ = shared
                        .engine_tx
                        .send(EngineMsg::Current { sub_id, writer: writer.clone() });
                }
                Err(e) => reply(writer, tag::ERROR, e.to_string().as_bytes()),
            },
            tag::QUERY => match protocol::decode_subspec(&body) {
                Ok(spec) => {
                    let _ =
                        shared.engine_tx.send(EngineMsg::Query { spec, writer: writer.clone() });
                }
                Err(e) => reply(writer, tag::ERROR, e.to_string().as_bytes()),
            },
            tag::DISTRIB => handle_distrib(shared, conn_id, &body, writer),
            tag::BARRIER => {
                shared.flush_shards();
                let _ = shared.engine_tx.send(EngineMsg::Barrier { writer: writer.clone() });
            }
            tag::STATE_HASH => handle_state_hash(shared, conn_id, writer),
            tag::DUMP_ROWS => {
                let _ = shared.engine_tx.send(EngineMsg::DumpRows { writer: writer.clone() });
            }
            tag::STATS => {
                let _ = shared.engine_tx.send(EngineMsg::Stats { writer: writer.clone() });
            }
            tag::SHUTDOWN => {
                reply(writer, tag::ACK, &[]);
                shared.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect(shared.addr);
                break;
            }
            other => {
                reply(writer, tag::ERROR, format!("unknown request tag {other}").as_bytes());
            }
        }
    }
}

/// `DISTRIB`: one-shot count-distribution detail. Decoded on the
/// connection thread, answered by the engine (the reply needs the
/// pipeline-ordered row state).
fn handle_distrib(shared: &Shared, conn_id: u64, body: &[u8], writer: &Sender<Vec<u8>>) {
    shared.metrics.add(Counter::ServeDistribQueries, 1);
    shared.flight.record(FlightEventKind::DistribQuery, 0, conn_id, 0);
    match protocol::decode_subspec(body) {
        Ok(spec) => {
            let _ = shared.engine_tx.send(EngineMsg::Distrib { spec, writer: writer.clone() });
        }
        Err(e) => reply(writer, tag::ERROR, e.to_string().as_bytes()),
    }
}

/// `METRICS`: counters, histograms with exact bucket bounds, per-shard
/// queue depths — answered on the connection thread (a snapshot, not a
/// pipeline-ordered reply, so it never queues behind the engine).
fn handle_metrics(shared: &Shared, conn_id: u64, writer: &Sender<Vec<u8>>) {
    shared.metrics.add(Counter::ServeMetricsQueries, 1);
    shared.flight.record(FlightEventKind::MetricsQuery, 0, conn_id, 0);
    let depths = shared.shard_depths();
    let json = shared.metrics.snapshot_json(&depths, shared.clock.now_ns());
    reply(writer, tag::METRICS_JSON, json.as_bytes());
}

/// `TRACE`: recent completed notification traces plus the slow-request
/// log.
fn handle_trace(shared: &Shared, conn_id: u64, writer: &Sender<Vec<u8>>) {
    shared.metrics.add(Counter::ServeTraceQueries, 1);
    shared.flight.record(FlightEventKind::TraceQuery, 0, conn_id, 0);
    reply(writer, tag::TRACE_JSON, shared.metrics.traces_json().as_bytes());
}

/// `FLIGHT`: dump the flight recorder — the protocol-triggered
/// postmortem (the moral equivalent of `SIGUSR1` on a wire protocol).
fn handle_flight(shared: &Shared, conn_id: u64, writer: &Sender<Vec<u8>>) {
    shared.metrics.add(Counter::ServeFlightDumps, 1);
    shared.flight.record(FlightEventKind::FlightDump, 0, conn_id, 0);
    reply(writer, tag::FLIGHT_JSONL, shared.flight.dump_jsonl().as_bytes());
}

/// `STATE_HASH`: a barrier plus a deterministic digest of the whole
/// pipeline — every shard tracker's `state_hash` (its committed-state
/// encoding) and the engine's rows + per-subscription answers. The record/replay
/// verifier compares these digests at every recorded barrier.
///
/// Ordering: the flush guarantees every prior publish's deltas are
/// *enqueued* to the engine; the shard hash then reflects all of them;
/// the engine message, FIFO-ordered after those deltas, hashes after
/// they are *applied*.
fn handle_state_hash(shared: &Shared, conn_id: u64, writer: &Sender<Vec<u8>>) {
    shared.metrics.add(Counter::ServeStateHashes, 1);
    shared.flight.record(FlightEventKind::StateHash, 0, conn_id, 0);
    shared.flush_shards();
    let replies: Vec<Receiver<u64>> = {
        let shards = lock_or_recover(&shared.shards);
        shards
            .iter()
            .map(|s| {
                let (tx, rx) = channel();
                s.queue_depth.fetch_add(1, Ordering::Relaxed);
                let _ = s.tx.send(ShardMsg::StateHash(tx));
                rx
            })
            .collect()
    };
    let shard_hashes: Vec<u64> = replies
        .into_iter()
        // A crashed (not yet restarted) shard can't answer; 0 is its
        // deterministic sentinel, identical on record and replay.
        .map(|rx| rx.recv_timeout(Duration::from_secs(5)).unwrap_or(0))
        .collect();
    let _ = shared.engine_tx.send(EngineMsg::StateHash { shard_hashes, writer: writer.clone() });
}
