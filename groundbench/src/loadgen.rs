//! Load generation against a real `serve` server on loopback: server
//! set-up, the closed and open loops, reply gates, and `stats` deltas.
//!
//! Both loops use two connections and two load threads. The server
//! serves each connection serially, so two connections keep at most two
//! requests in the engine and the admission queue never degrades them.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use llmkg::WorkbenchConfig;
use serde_json::Value;
use serve::{DurableStore, ServeConfig, Server, ServerHandle};

use crate::workload::{Class, Gold, Request, Workload, KG_SEED};

/// Connections (and load threads) a run may use.
pub const CONNECTIONS: usize = 2;

/// How long the open loop waits for the replies still owed after its
/// last send before it counts them as dropped.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// One reply, as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in the workload's list.
    pub idx: usize,
    /// Client latency in µs: from send (closed loop) or from the due
    /// time (open loop) to the reply's arrival.
    pub latency_us: f64,
    /// The engine's own `latency_us` field (0 when absent).
    pub engine_us: f64,
    /// Send time behind schedule in µs (open loop only).
    pub late_us: f64,
    /// When the request was due, relative to the start (open loop only).
    pub due_s: f64,
    /// When the reply arrived, relative to the start of the loop.
    pub done_s: f64,
    pub check: Check,
}

/// The gates one reply went through.
#[derive(Debug, Clone, Copy, Default)]
pub struct Check {
    /// A JSON object with `ok`, `shed`, `degraded` and the request's id.
    pub well_formed: bool,
    pub ok: bool,
    pub shed: bool,
    pub degraded: bool,
    /// The class gate held (route, row count, durability).
    pub gate: bool,
    /// The reply contains a gold answer's name (chat and rag).
    pub accurate: bool,
}

impl Check {
    /// Whether this reply counts toward `failed_share`.
    pub fn failed(&self) -> bool {
        !self.well_formed || !self.ok || self.shed || !self.gate
    }
}

/// Check one reply line against its request.
pub fn check_reply(req: &Request, idx: usize, line: &str) -> (Check, f64) {
    let mut c = Check::default();
    let Ok(v) = serde_json::from_str(line.trim()) else {
        return (c, 0.0);
    };
    let Some(obj) = v.as_object() else {
        return (c, 0.0);
    };
    let flag = |k: &str| obj.get(k).and_then(Value::as_bool);
    let text = |k: &str| obj.get(k).and_then(Value::as_str).unwrap_or("");
    let (Some(ok), Some(shed), Some(degraded)) = (flag("ok"), flag("shed"), flag("degraded"))
    else {
        return (c, 0.0);
    };
    c.well_formed = obj.get("id").and_then(Value::as_u64) == Some(idx as u64);
    c.ok = ok;
    c.shed = shed;
    c.degraded = degraded;
    let answer = text("answer");
    let names_hit = |names: &[String]| names.iter().any(|n| answer.contains(n.as_str()));
    c.gate = match &req.gold {
        Gold::Names(names) => {
            c.accurate = names_hit(names);
            req.class != Class::Chat || (text("route") == "kg-query" && c.accurate)
        }
        Gold::Rows(rows) => obj.get("rows").and_then(Value::as_u64) == Some(*rows),
        Gold::Triples(n) => {
            flag("durable") == Some(true) && obj.get("rows").and_then(Value::as_u64) == Some(*n)
        }
        Gold::Completion => text("route") == "completion",
    };
    let engine_us = obj.get("latency_us").and_then(Value::as_f64).unwrap_or(0.0);
    (c, engine_us)
}

/// A running server plus what its set-up cost.
pub struct Running {
    pub handle: ServerHandle,
    pub setup_s: f64,
    durable_dir: Option<PathBuf>,
}

impl Running {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stop the server, join its threads and remove its durable dir.
    pub fn stop(self) {
        self.handle.shutdown();
        if let Some(dir) = self.durable_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The server configuration of a workload: the served KG, the default
/// admission and coalescing, and a fresh durable dir when it ingests.
pub fn serve_config(workload: Workload, durable_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        workbench: WorkbenchConfig {
            seed: KG_SEED,
            entities_per_class: workload.entities_per_class(),
            ..WorkbenchConfig::default()
        },
        durable: durable_dir.map(|d| DurableStore::Dir(d.to_string_lossy().into_owned())),
        ..ServeConfig::default()
    }
}

/// `Server::spawn` to the first well-formed reply (a `stats` request,
/// which waits in the accept backlog until the workbench is built).
pub fn spawn(workload: Workload, scratch: &Path, n: usize) -> Running {
    let durable_dir = workload.durable().then(|| {
        let dir = scratch.join(format!("durable-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let start = Instant::now();
    let handle =
        Server::spawn(serve_config(workload, durable_dir.as_deref())).expect("server spawns");
    stats(handle.addr());
    Running {
        handle,
        setup_s: start.elapsed().as_secs_f64(),
        durable_dir,
    }
}

/// The server's counters, from one `stats` request on a fresh connection.
pub fn stats(addr: SocketAddr) -> Value {
    let mut sock = connect(addr);
    sock.write_all(b"{\"scenario\":\"stats\"}\n")
        .expect("send stats");
    let mut line = String::new();
    BufReader::new(sock)
        .read_line(&mut line)
        .expect("read stats");
    serde_json::from_str(line.trim()).expect("stats reply is JSON")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let sock = TcpStream::connect(addr).expect("connect to server");
    sock.set_nodelay(true).expect("set nodelay");
    sock
}

/// Counter deltas between two `stats` replies.
pub fn counter_deltas(before: &Value, after: &Value) -> BTreeMap<String, u64> {
    let counters = |v: &Value| -> BTreeMap<String, u64> {
        v.as_object()
            .and_then(|o| o.get("counters"))
            .and_then(Value::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let b = counters(before);
    counters(after)
        .into_iter()
        .map(|(k, v)| {
            let d = v.saturating_sub(b.get(&k).copied().unwrap_or(0));
            (k, d)
        })
        .collect()
}

/// The outcome of one loop.
pub struct LoopRun {
    /// Every reply, warm-up included, in completion order per connection.
    pub samples: Vec<Sample>,
    /// Seconds from the loop's start to the end of measurement.
    pub measure_start_s: f64,
    pub measure_end_s: f64,
    /// Requests sent that never got a reply.
    pub dropped: usize,
    /// Whether requests went out on a schedule (open loop).
    pub open: bool,
}

/// Closed loop: each connection sends its next request when the previous
/// reply lands. Connection `c` walks the list at `c, c+2, …`, cycling.
/// A connection's warm-up lasts until it wraps around the list (so every
/// request's gold is checked at least once); it then measures for
/// `seconds`. The run's measurement window is where the connections'
/// windows overlap.
pub fn closed_loop(addr: SocketAddr, reqs: &[Request], seconds: f64) -> LoopRun {
    let start = Instant::now();
    let per_conn: Vec<(Vec<Sample>, f64, f64)> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || closed_connection(addr, reqs, c, start, seconds)))
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("load thread"))
            .collect()
    });
    let measure_start_s = per_conn.iter().map(|c| c.1).fold(0.0, f64::max);
    let measure_end_s = per_conn.iter().map(|c| c.2).fold(f64::INFINITY, f64::min);
    LoopRun {
        samples: per_conn.into_iter().flat_map(|c| c.0).collect(),
        measure_start_s,
        measure_end_s,
        dropped: 0,
        open: false,
    }
}

/// One closed-loop connection: its samples, when its warm-up pass ended
/// and when its measurement ended (seconds since `start`).
fn closed_connection(
    addr: SocketAddr,
    reqs: &[Request],
    c: usize,
    start: Instant,
    seconds: f64,
) -> (Vec<Sample>, f64, f64) {
    let sock = connect(addr);
    let mut reader = BufReader::new(sock.try_clone().expect("clone socket"));
    let mut writer = sock;
    let mut out = Vec::new();
    let mut line = String::new();
    let mut pass_end = None;
    for k in 0.. {
        let idx = (c + k * CONNECTIONS) % reqs.len();
        let now_s = start.elapsed().as_secs_f64();
        if k > 0 && idx < CONNECTIONS && pass_end.is_none() {
            pass_end = Some(now_s);
        }
        if pass_end.is_some_and(|p| now_s >= p + seconds) {
            break;
        }
        let sent = Instant::now();
        send(&mut writer, &reqs[idx].line);
        line.clear();
        let n = reader.read_line(&mut line).expect("read reply");
        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
        let (check, engine_us) = check_reply(&reqs[idx], idx, &line);
        out.push(Sample {
            idx,
            latency_us,
            engine_us,
            late_us: 0.0,
            due_s: 0.0,
            done_s: start.elapsed().as_secs_f64(),
            check,
        });
        if n == 0 {
            break; // connection dropped; the failed sample counts it
        }
    }
    let end = start.elapsed().as_secs_f64();
    (out, pass_end.unwrap_or(end), end)
}

/// Open loop: request `j` is due `j / rate` seconds after the start and
/// goes out on connection `j % 2`, whether or not earlier replies have
/// come back. Requests due in the first `warmup_s` seconds are warm-up.
pub fn open_loop(addr: SocketAddr, reqs: &[Request], rate: f64, warmup_s: f64) -> LoopRun {
    let start = Instant::now() + Duration::from_millis(20);
    let due = |j: usize| start + Duration::from_secs_f64(j as f64 / rate);
    let per_conn: Vec<(Vec<Sample>, usize)> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || open_connection(addr, reqs, c, start, &due)))
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("load thread"))
            .collect()
    });
    let dropped = per_conn.iter().map(|(_, d)| d).sum();
    let samples: Vec<Sample> = per_conn.into_iter().flat_map(|(s, _)| s).collect();
    LoopRun {
        samples,
        measure_start_s: warmup_s,
        measure_end_s: reqs.len() as f64 / rate,
        dropped,
        open: true,
    }
}

/// One open-loop connection: sends on its schedule and reads replies as
/// they arrive, waiting in `ppoll` for whichever comes first.
fn open_connection(
    addr: SocketAddr,
    reqs: &[Request],
    c: usize,
    start: Instant,
    due: &dyn Fn(usize) -> Instant,
) -> (Vec<Sample>, usize) {
    let mut sock = connect(addr);
    let mut pending: VecDeque<(usize, Instant, f64)> = VecDeque::new();
    let mut out = Vec::new();
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = c;
    let mut drain_deadline = None;
    loop {
        let now = Instant::now();
        while next < reqs.len() && due(next) <= now {
            let sent = Instant::now();
            send(&mut sock, &reqs[next].line);
            let late_us = sent.saturating_duration_since(due(next)).as_secs_f64() * 1e6;
            pending.push_back((next, due(next), late_us));
            next += CONNECTIONS;
        }
        if next >= reqs.len() {
            if pending.is_empty() {
                return (out, 0);
            }
            let deadline = *drain_deadline.get_or_insert(now + DRAIN_TIMEOUT);
            if now >= deadline {
                return (out, pending.len());
            }
        }
        let wake = if next < reqs.len() {
            due(next)
        } else {
            now + Duration::from_millis(100)
        };
        if !poll_readable(&sock, wake.saturating_duration_since(Instant::now())) {
            continue;
        }
        let n = sock.read(&mut chunk).expect("read replies");
        let arrived = Instant::now();
        if n == 0 {
            return (out, pending.len()); // server closed the connection
        }
        buf.extend_from_slice(&chunk[..n]);
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let Some((idx, due_at, late_us)) = pending.pop_front() else {
                break; // a reply nobody asked for: ignored, the gates count the rest
            };
            let text = String::from_utf8_lossy(&line);
            let (check, engine_us) = check_reply(&reqs[idx], idx, &text);
            out.push(Sample {
                idx,
                latency_us: arrived.saturating_duration_since(due_at).as_secs_f64() * 1e6,
                engine_us,
                late_us,
                due_s: due_at.saturating_duration_since(start).as_secs_f64(),
                done_s: arrived.saturating_duration_since(start).as_secs_f64(),
                check,
            });
        }
    }
}

/// Send one request line in a single write (line and newline together).
fn send(sock: &mut TcpStream, line: &str) {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    sock.write_all(&framed).expect("send request");
}

// The standard library's timed socket wait (`set_read_timeout`, i.e.
// SO_RCVTIMEO) rounds up to whole scheduler ticks: a 100 µs timeout
// waits about 8 ms on a 250 Hz kernel, which would make the sender late
// by up to a tick. `ppoll` waits on a high-resolution timer instead.
// The C types below are the platform's own, so the layouts hold on every
// Linux target the benchmark builds for.
use std::os::raw::{c_int, c_long, c_short, c_ulong};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> c_int;
}

const POLLIN: c_short = 0x1;

/// Wait up to `timeout` for the socket to become readable (or closed).
fn poll_readable(sock: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fd` and `ts` are live `struct pollfd` and `struct timespec`
    // values built from the platform's C types for the whole call, `nfds`
    // is 1 to match the single `pollfd`, and a null `sigmask` leaves the
    // signal mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0
}
