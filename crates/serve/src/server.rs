//! The TCP front end: accept loop, connection handlers, worker pool.
//!
//! ```text
//!  client ──TCP──▶ connection handler ──▶ AdmissionController ──▶ worker pool ──▶ Engine
//!                   (parse, grade,          (bounded queue,        (N threads,     (Workbench)
//!                    disconnect watch)       degrade / shed)        shared &Engine)
//! ```
//!
//! One OS thread per connection reads newline-delimited requests, grades
//! them through the [`AdmissionController`], and writes exactly one
//! reply line per request, in order. While a request is in flight its
//! handler polls the socket for EOF; a client that goes away trips the
//! request's [`CancelToken`], so the executor backs out at its next
//! checkpoint instead of finishing work nobody will read.
//!
//! [`Server::spawn`] binds the listener synchronously (so the caller has
//! a connectable address immediately) and builds the
//! [`llmkg::Workbench`] on the server's root thread; early connections
//! queue in the accept backlog until it is ready.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use durable::{DiskStorage, DurableGraph, DurableOptions, Storage};
use llmkg::{Workbench, WorkbenchConfig};
use resilience::CancelToken;
use serde_json::Value;

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::engine::Engine;
use crate::protocol::{parse_request, Scenario, MAX_REQUEST_BYTES};
use crate::tenant::Tenant;

/// Where the server's durable (`ingest`) store lives.
#[derive(Clone)]
pub enum DurableStore {
    /// A directory on disk ([`DiskStorage`]).
    Dir(String),
    /// An injected storage backend — tests hand in a
    /// [`durable::MemStorage`] or [`durable::FaultyStorage`] here to
    /// exercise restart and fault paths without touching disk.
    Custom(Arc<dyn Storage>),
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableStore::Dir(p) => f.debug_tuple("Dir").field(p).finish(),
            DurableStore::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Admission watermarks for the worker queue.
    pub admission: AdmissionPolicy,
    /// The workbench (domain, scale, seed) to serve.
    pub workbench: WorkbenchConfig,
    /// Socket read timeout; bounds how fast handlers notice shutdown and
    /// client disconnects.
    pub poll_interval: Duration,
    /// Optional durable store backing the `ingest` scenario. Recovery
    /// runs inside [`Server::spawn`] (so corruption surfaces as an error
    /// there, not a half-started server); recovered triples are merged
    /// into the served graph before the first connection is accepted,
    /// and a checkpoint is written on clean shutdown.
    pub durable: Option<DurableStore>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            admission: AdmissionPolicy::default(),
            workbench: WorkbenchConfig::default(),
            poll_interval: Duration::from_millis(50),
            durable: None,
        }
    }
}

/// An admitted unit of work: the request, its cancel token, and the
/// channel its reply goes back on.
struct Job {
    req: crate::protocol::Request,
    cancel: CancelToken,
    reply: mpsc::Sender<Value>,
}

/// The server entry point; see [`Server::spawn`].
pub struct Server;

/// Handle to a running server: its bound address and a shutdown switch.
/// Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    root: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind the listener, start the server on a background thread, and
    /// return a handle with the (resolved) local address.
    pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Open (and recover) the durable store synchronously: an
        // unreadable store is a spawn error the operator sees, never a
        // server that silently serves less data than it accepted.
        let durable = match &config.durable {
            None => None,
            Some(store) => {
                let storage: Arc<dyn Storage> = match store {
                    DurableStore::Dir(path) => Arc::new(DiskStorage::new(path.clone())?),
                    DurableStore::Custom(s) => Arc::clone(s),
                };
                Some(DurableGraph::open(storage, DurableOptions::default())?)
            }
        };
        let stop = Arc::new(AtomicBool::new(false));
        let root = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("serve-root".to_string())
                .spawn(move || run(listener, config, durable, &stop))?
        };
        Ok(ServerHandle {
            addr,
            stop,
            root: Some(root),
        })
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain queued work, and join every server thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(root) = self.root.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop; the connection is closed immediately
        // by the stop check on the other side.
        let _ = TcpStream::connect(self.addr);
        let _ = root.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The root thread: build the workbench, then host workers, the accept
/// loop, and one handler thread per connection under a single scope.
fn run(
    listener: TcpListener,
    config: ServeConfig,
    durable: Option<DurableGraph>,
    stop: &AtomicBool,
) {
    let mut wb = Workbench::build(&config.workbench);
    if let Some(d) = &durable {
        // Triples recovered from the WAL/checkpoint are served alongside
        // the synthetic graph from the first request.
        wb.kg.graph.merge(d.graph());
    }
    let engine = match durable {
        Some(d) => Engine::new(&wb).with_durable(d),
        None => Engine::new(&wb),
    };
    let admission = AdmissionController::<Job>::new(config.admission);
    let inflight = AtomicU64::new(0);

    thread::scope(|s| {
        for i in 0..config.workers.max(1) {
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn_scoped(s, || worker_loop(&engine, &admission, &inflight))
                .expect("spawn worker");
        }
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(sock) = conn else { continue };
            engine.registry().incr("serve.connections", 1);
            let handler = thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn_scoped(s, || {
                    handle_connection(
                        sock,
                        &engine,
                        &admission,
                        &inflight,
                        stop,
                        config.poll_interval,
                    )
                });
            if handler.is_err() {
                // Could not spawn a handler (resource pressure): the
                // socket just closed; the client sees a clean EOF.
                engine.registry().incr("serve.connections_refused", 1);
            }
        }
        admission.close();
    });
    // Workers have drained: snapshot the durable store so the next start
    // recovers from a checkpoint instead of replaying the whole WAL. An
    // error here is fine — the synced WAL already holds every acked
    // write; it just means a longer replay next time.
    if engine.checkpoint_durable().is_err() {
        engine.registry().incr("serve.checkpoint_errors", 1);
    }
}

/// Worker: pull admitted jobs, run them, send replies back.
fn worker_loop(engine: &Engine<'_>, admission: &AdmissionController<Job>, inflight: &AtomicU64) {
    while let Some((job, grade)) = admission.next() {
        inflight.fetch_add(1, Ordering::SeqCst);
        let reply = engine.handle(&job.req, grade, &job.cancel);
        inflight.fetch_sub(1, Ordering::SeqCst);
        // A dead receiver means the client's handler already gave up
        // (disconnect); the work was cancelled best-effort, drop it.
        let _ = job.reply.send(reply);
    }
}

/// What [`read_request_line`] produced.
enum LineOutcome {
    /// A complete request line (newline included) is in the buffer.
    Line,
    /// The client closed (or half-closed) the connection.
    Eof,
    /// The line exceeded [`MAX_REQUEST_BYTES`]; the stream cannot be
    /// resynchronized.
    Oversized,
}

/// Accumulate one newline-terminated line, tolerating read timeouts
/// (which double as stop-flag checks) and bounding the buffer so a
/// newline-free stream cannot grow memory without limit.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    stop: &AtomicBool,
) -> LineOutcome {
    line.clear();
    let cap = (MAX_REQUEST_BYTES + 2) as u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            return LineOutcome::Eof;
        }
        let remaining = cap.saturating_sub(line.len() as u64);
        if remaining == 0 {
            return LineOutcome::Oversized;
        }
        let mut limited = Read::take(reader.by_ref(), remaining);
        match limited.read_line(line) {
            Ok(0) => return LineOutcome::Eof,
            Ok(_) if line.ends_with('\n') => return LineOutcome::Line,
            // Hit the take-limit or a mid-line EOF: loop to classify
            // (next pass returns Oversized or Eof).
            Ok(_) => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Invalid UTF-8 or a transport error: drop the connection
            // (there is no line to attach an error reply to).
            Err(_) => return LineOutcome::Eof,
        }
    }
}

/// Serve one connection: read → grade → dispatch → reply, in order,
/// watching for client disconnect while a request is in flight.
fn handle_connection(
    sock: TcpStream,
    engine: &Engine<'_>,
    admission: &AdmissionController<Job>,
    inflight: &AtomicU64,
    stop: &AtomicBool,
    poll: Duration,
) {
    let _ = sock.set_read_timeout(Some(poll));
    let _ = sock.set_nodelay(true);
    let Ok(read_half) = sock.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = &sock;
    let mut line = String::new();

    loop {
        match read_request_line(&mut reader, &mut line, stop) {
            LineOutcome::Eof => return,
            LineOutcome::Oversized => {
                engine.registry().incr("serve.protocol_errors", 1);
                let reply =
                    Engine::error_reply(&format!("request line exceeds {MAX_REQUEST_BYTES} bytes"));
                let _ = write_reply(&mut writer, &reply);
                return; // stream is desynchronized; close it
            }
            LineOutcome::Line => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        engine.registry().incr("serve.accepted", 1);

        let req = match parse_request(trimmed) {
            Ok(req) => req,
            Err(msg) => {
                engine.registry().incr("serve.protocol_errors", 1);
                if write_reply(&mut writer, &Engine::error_reply(&msg)).is_err() {
                    return;
                }
                continue;
            }
        };

        // Stats is introspection, answered inline: it must work *during*
        // overload, so it never competes for the queue it is reporting on.
        if req.scenario == Scenario::Stats {
            let reply = engine.stats_reply(
                &req,
                inflight.load(Ordering::SeqCst),
                admission.depth() as u64,
            );
            if write_reply(&mut writer, &reply).is_err() {
                return;
            }
            continue;
        }

        let cancel = CancelToken::new();
        // If this handler unwinds with the job still in flight, the
        // guard trips the token so a worker doesn't finish work nobody
        // will read; on the normal path it is disarmed once the reply
        // (or shed verdict) is in hand.
        let guard = cancel.drop_guard();
        let (tx, rx) = mpsc::channel();
        let job = Job {
            req,
            cancel: cancel.clone(),
            reply: tx,
        };
        // Admission is keyed by tenant class, so one class's flood fills
        // its own per-tenant allowance instead of the whole queue.
        let tenant_class = Tenant::from_id(&job.req.tenant).label();
        let reply = match admission.submit_keyed(job, tenant_class) {
            Err((job, reason)) => {
                engine.registry().incr("serve.shed", 1);
                engine
                    .registry()
                    .incr(&format!("serve.shed.{}", reason.label()), 1);
                Engine::shed_reply(&job.req, reason.label())
            }
            Ok(_grade) => await_reply(&rx, &sock, &cancel, poll),
        };
        guard.disarm();
        if write_reply(&mut writer, &reply).is_err() {
            return;
        }
        if cancel.is_cancelled() {
            // The disconnect watch tripped: the peer is gone.
            return;
        }
    }
}

/// Wait for the worker's reply, polling the socket for EOF; a vanished
/// client cancels the in-flight work (the worker still sends a reply —
/// it is written into the void and the handler exits).
fn await_reply(
    rx: &mpsc::Receiver<Value>,
    sock: &TcpStream,
    cancel: &CancelToken,
    poll: Duration,
) -> Value {
    loop {
        match rx.recv_timeout(poll) {
            Ok(reply) => return reply,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !cancel.is_cancelled() && peer_gone(sock) {
                    cancel.cancel();
                }
            }
            // Worker pool shut down mid-request (server stopping): the
            // client still gets a well-formed apology.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Engine::error_reply("server is shutting down");
            }
        }
    }
}

/// True when the peer has closed its end: a zero-byte peek. Unread
/// pipelined bytes or a quiet-but-alive peer (peek times out) both mean
/// the connection is still good.
fn peer_gone(sock: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    matches!(sock.peek(&mut probe), Ok(0))
}

fn write_reply(writer: &mut &TcpStream, reply: &Value) -> std::io::Result<()> {
    let mut text = serde_json::to_string(reply)
        .unwrap_or_else(|_| "{\"ok\":false,\"error\":\"serialization failure\"}".to_string());
    text.push('\n');
    // One write call → one TCP segment: splitting the newline off into
    // its own write invites a Nagle / delayed-ACK stall on the peer.
    writer.write_all(text.as_bytes())?;
    writer.flush()
}
