//! Grounded serving benchmark: drives a real `serve` server on loopback
//! with traffic grounded in the QA dataset generator, checks every reply,
//! and prints the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced in-process replay (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path groundbench/Cargo.toml -- \
//!     --workload chat-kgqa --seed 1 --seconds 45 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the run's
//! context block. See `groundbench/README.md`.

mod loadgen;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::{Map, Value};

use loadgen::{LoopRun, Running, Sample};
use workload::{Class, Workload, MIXED_OFFERED_RPS, MIXED_WARMUP_S};

/// Server set-ups per untraced run, each in a process of its own;
/// `setup_s` is their median.
const SETUPS: usize = 5;

/// An open-loop run whose sends ran later than this (p99) behind their
/// schedule measured the generator, not the server: it is flagged invalid.
const LATE_LIMIT_MS: f64 = 5.0;

/// Measurements an untraced open-loop run may take before it reports an
/// invalid one, and the time after which it takes no further one (the
/// run has to end within three minutes).
const MAX_ATTEMPTS: usize = 3;
const RUN_BUDGET: Duration = Duration::from_secs(150);

/// Where runs leave spans and durable stores, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    capacity: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let (mut capacity, mut setup_probe) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--capacity" {
            capacity = true;
            continue;
        }
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace,
        capacity,
        setup_probe,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\nusage: groundbench --workload chat-kgqa|rag-qa|mixed-open --seed N --seconds S --trace 0|1 [--capacity | --setup-probe]");
        std::process::exit(2);
    });
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).expect("create the output dir");
    if args.setup_probe {
        let s = loadgen::spawn(args.workload, out, 0);
        println!("{}", s.setup_s);
        s.stop();
        return;
    }
    let result = if args.capacity {
        capacity(&args, out)
    } else if args.trace {
        traced(&args, out)
    } else {
        untraced(&args, out)
    };
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
}

/// The `mixed-open` list length for a loop of `seconds` after warm-up.
fn open_len(workload: Workload, seconds: f64) -> usize {
    match workload {
        Workload::MixedOpen => ((MIXED_WARMUP_S + seconds) * MIXED_OFFERED_RPS).ceil() as usize,
        _ => 0,
    }
}

/// Run the workload's loop against a running server.
fn drive(args: &Args, srv: &Running, reqs: &[workload::Request], seconds: f64) -> LoopRun {
    match args.workload {
        Workload::MixedOpen => {
            loadgen::open_loop(srv.addr(), reqs, MIXED_OFFERED_RPS, MIXED_WARMUP_S)
        }
        _ => loadgen::closed_loop(srv.addr(), reqs, seconds),
    }
}

/// The untraced run: end-to-end metrics.
fn untraced(args: &Args, out: &Path) -> Value {
    let started = Instant::now();
    let w = args.workload;
    let graph = w.graph();
    let kg_triples = graph.len();
    let reqs = workload::requests(&graph, w, args.seed, open_len(w, args.seconds));
    drop(graph);

    // Set-ups run in processes of their own, so only the measured
    // server is resident here and `peak_rss_mb` is one server plus the run.
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_probe(args)).collect();
    let mut srv = loadgen::spawn(w, out, 0);

    // An open-loop measurement whose sender fell behind is discarded and
    // taken again on a fresh server, while the run's time allows.
    let open = w == Workload::MixedOpen;
    let mut attempts_late_ms = Vec::new();
    let (m, valid, before, after, steal) = loop {
        let attempt = Instant::now();
        let before = loadgen::stats(srv.addr());
        let ticks = host_ticks();
        let run = drive(args, &srv, &reqs, args.seconds);
        let steal = steal_share(ticks, host_ticks());
        let after = loadgen::stats(srv.addr());
        srv.stop();
        let m = Measured::of(&run, &reqs);
        attempts_late_ms.push(m.late_p99_ms);
        let valid = !open || m.late_p99_ms <= LATE_LIMIT_MS;
        let room = started.elapsed() + attempt.elapsed() < RUN_BUDGET;
        if valid || attempts_late_ms.len() == MAX_ATTEMPTS || !room {
            break (m, valid, before, after, steal);
        }
        srv = loadgen::spawn(w, out, attempts_late_ms.len());
    };
    let setup_s = median(&mut setups.clone());
    let peak_rss_mb = peak_rss_mb();

    println!(
        "workload {} seed {} ({} s measured)",
        w.name(),
        args.seed,
        args.seconds
    );
    for (name, value, unit) in [
        ("setup_s", setup_s, "s"),
        ("throughput_rps", m.throughput_rps, "req/s"),
        ("latency_p50_ms", m.p50_ms, "ms"),
        ("latency_p99_ms", m.p99_ms, "ms"),
        ("answer_accuracy", m.accuracy, "ratio"),
        ("degraded_share", m.degraded_share, "ratio"),
        ("failed_share", m.failed_share, "ratio"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ] {
        println!("  {name:<16} {value:>12.4} {unit}");
    }
    println!(
        "  correctness gates: {} of {} replies failed{}",
        m.failed,
        m.attempted,
        if valid {
            ""
        } else {
            "; INVALID RUN: the load generator fell behind its schedule on every attempt"
        }
    );

    let retrieval = field(&after, "retrieval");
    let mut ctx = m.context(&reqs);
    ctx.insert("workload".into(), Value::from(w.name()));
    ctx.insert("seed".into(), Value::from(args.seed));
    ctx.insert("cores".into(), Value::from(cores()));
    ctx.insert("dispatch".into(), field(&retrieval, "dispatch"));
    ctx.insert("docs_indexed".into(), field(&retrieval, "docs_indexed"));
    ctx.insert("kg_triples".into(), Value::from(kg_triples as u64));
    ctx.insert(
        "entities_per_class".into(),
        Value::from(w.entities_per_class() as u64),
    );
    ctx.insert("setup_s_runs".into(), floats(&setups));
    ctx.insert("degraded_share".into(), Value::from(m.degraded_share));
    ctx.insert("failed_share".into(), Value::from(m.failed_share));
    ctx.insert("valid".into(), Value::Bool(valid));
    ctx.insert("attempts_late_p99_ms".into(), floats(&attempts_late_ms));
    ctx.insert("host_steal_share".into(), Value::from(steal));
    if open {
        ctx.insert("offered_rps".into(), Value::from(MIXED_OFFERED_RPS));
        ctx.insert("achieved_rps".into(), Value::from(m.throughput_rps));
    }
    ctx.insert(
        "server_counters".into(),
        counters_json(&loadgen::counter_deltas(&before, &after)),
    );
    // The server's own latency and fsync histograms (cumulative since
    // spawn, so warm-up included), for cross-checking the client's view.
    ctx.insert("server_histograms".into(), field(&after, "histograms"));

    // `latency_p99_ms` swings with the host's scheduling noise far more
    // than any bound could absorb, so it is reported above and in the
    // context block but not gated (see README.md).
    ctx.insert("latency_p99_ms".into(), Value::from(m.p99_ms));
    println!(
        "{}",
        serde_json::to_string(&wrap("context", Value::Object(ctx))).expect("context")
    );

    let mut metrics = Map::new();
    for (name, value, unit) in [
        ("setup_s", setup_s, "s"),
        ("throughput_rps", m.throughput_rps, "1/s"),
        ("latency_p50_ms", m.p50_ms, "ms"),
        ("answer_accuracy", m.accuracy, "ratio"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ] {
        metrics.insert(name.into(), metric(value, unit));
    }
    // An invalid run measured the load generator, not the server: it is
    // rejected rather than compared as a slow run.
    result(m.failed == 0 && valid, m.attempted, m.failed, metrics)
}

/// One set-up timed in a fresh process. Set-up times cluster by process
/// (one process's five set-ups came out at 0.09–0.10 s, another's at
/// 0.13–0.14 s on the same host), so each sample gets its own process.
fn setup_probe(args: &Args) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--setup-probe"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .expect("set-up probe runs");
    assert!(out.status.success(), "set-up probe failed: {}", out.status);
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up probe prints its time")
}

/// The traced run: half the time an untraced server run for counter
/// deltas and client-side splits, half an in-process traced replay.
fn traced(args: &Args, out: &Path) -> Value {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let graph = w.graph();
    let reqs = workload::requests(&graph, w, args.seed, open_len(w, half));
    drop(graph);

    let srv = loadgen::spawn(w, out, 0);
    let before = loadgen::stats(srv.addr());
    let run = drive(args, &srv, &reqs, half);
    let after = loadgen::stats(srv.addr());
    srv.stop();
    let m = Measured::of(&run, &reqs);
    let d = loadgen::counter_deltas(&before, &after);
    let c = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let spans_path = out.join(format!("spans-{}.jsonl", w.name()));
    let rp = trace::replay(w, &reqs, half, out, &spans_path);
    let check = rp.check();
    let check_ok = check.values().all(|c| c.ok);

    let ingest_triples: f64 = m.ingest_triples as f64;
    let per_layer: Vec<(&str, f64, &str)> = vec![
        ("serve.engine_ms", m.engine_p50_ms, "ms"),
        (
            "serve.engine_self_ms",
            rp.mean_ms(&["Engine::handle"], true),
            "ms",
        ),
        (
            "serve.parse_ms",
            rp.mean_ms(&["serve::parse_request"], false),
            "ms",
        ),
        (
            "serve.render_rows_ms",
            rp.mean_ms(&["Graph::display_name"], false),
            "ms",
        ),
        ("serve.outside_engine_p50_ms", m.outside_p50_ms, "ms"),
        ("serve.outside_engine_p99_ms", m.outside_p99_ms, "ms"),
        (
            "serve.degraded_share",
            ratio(c("serve.degraded"), c("serve.requests")),
            "ratio",
        ),
        (
            "serve.shed_share",
            ratio(c("serve.shed"), c("serve.accepted")),
            "ratio",
        ),
        (
            "qa.t2s_ms",
            rp.mean_ms(&["TextToSparql::generate_template"], false),
            "ms",
        ),
        (
            "qa.chatbot_new_ms",
            rp.mean_ms(&["Workbench::chatbot"], false),
            "ms",
        ),
        (
            "qa.chatbot_self_ms",
            rp.mean_ms(&["ChatBot::handle"], true),
            "ms",
        ),
        (
            "qa.kg_route_share",
            ratio(c("chatbot.kg_answers"), c("chatbot.turns")),
            "ratio",
        ),
        (
            "qa.t2s_hit_share",
            ratio(c("t2s.generated"), c("t2s.calls")),
            "ratio",
        ),
        (
            "query.prepare_ms",
            rp.mean_ms(
                &["PlanCache::prepare", "PlanCache::prepare_with_params"],
                false,
            ),
            "ms",
        ),
        (
            "query.exec_ms",
            rp.mean_ms(&["PreparedQuery::run", "PreparedQuery::run_with"], false),
            "ms",
        ),
        (
            "query.plan_cache_hit_share",
            ratio(
                c("plan_cache.hits"),
                c("plan_cache.hits") + c("plan_cache.misses") + c("plan_cache.invalidations"),
            ),
            "ratio",
        ),
        (
            "query.probes_per_query",
            ratio(c("exec.index_probes"), c("exec.queries")),
            "count",
        ),
        (
            "query.bindings_per_row",
            ratio(c("exec.intermediate_bindings"), c("exec.rows")),
            "count",
        ),
        ("llm.embed_ms", rp.mean_ms(&["Slm::embed"], false), "ms"),
        ("llm.answer_ms", rp.mean_ms(&["Slm::answer"], false), "ms"),
        (
            "llm.complete_ms",
            rp.mean_ms(&["Slm::complete"], false),
            "ms",
        ),
        (
            "rag.search_ms",
            rp.mean_ms(&["VectorIndex::search_exact"], false),
            "ms",
        ),
        (
            "rag.coalesce_wait_ms",
            rp.mean_ms(&["VectorIndex::search_coalesced"], true),
            "ms",
        ),
        (
            "rag.pipeline_self_ms",
            rp.mean_ms(&["RagPipeline::answer"], true),
            "ms",
        ),
        (
            "rag.batch_size_mean",
            ratio(c("retrieval.batch.queries"), c("retrieval.batch.windows")),
            "count",
        ),
        (
            "rag.vectors_scanned_per_search",
            ratio(rp.vectors_scanned as f64, rp.searches as f64),
            "count",
        ),
        (
            "rag.fallback_share",
            ratio(c("resilience.fallback.vector"), c("rag.answers")),
            "ratio",
        ),
        (
            "durable.ingest_ms",
            rp.per_request_ms(
                &["DurableGraph::append", "DurableGraph::sync"],
                Class::Ingest,
            ),
            "ms",
        ),
        (
            "durable.fsyncs_per_ingest",
            ratio(c("wal.fsyncs"), c("serve.requests.ingest")),
            "count",
        ),
        (
            "durable.wal_bytes_per_triple",
            ratio(c("wal.bytes"), ingest_triples),
            "count",
        ),
        ("loadgen.late_p99_ms", m.late_p99_ms, "ms"),
        ("trace.overhead_share", rp.overhead_share(), "ratio"),
    ];

    println!(
        "workload {} seed {} traced ({half} s server run + {half} s replay)",
        w.name(),
        args.seed
    );
    for (name, value, unit) in &per_layer {
        println!("  {name:<32} {value:>12.5} {unit}");
    }
    let mut check_json = Map::new();
    for (class, c) in &check {
        let unattributed_ms = (c.engine_ns - c.children_ns) / 1e6;
        let mut one = Map::new();
        one.insert("requests".into(), Value::from(rp.requests[class]));
        one.insert("engine_handle_ms".into(), Value::from(c.engine_ns / 1e6));
        one.insert("children_ms".into(), Value::from(c.children_ns / 1e6));
        one.insert("unattributed_ms".into(), Value::from(unattributed_ms));
        one.insert("relative_error".into(), Value::from(c.relative_error));
        one.insert("ok".into(), Value::Bool(c.ok));
        check_json.insert(class.label().into(), Value::Object(one));
        println!(
            "  children of Engine::handle, {:<8} {:>10.2} ms of {:>10.2} ms: {:+.2} ms unattributed ({:+.1} us/request, {:.2}%){}",
            class.label(),
            c.children_ns / 1e6,
            c.engine_ns / 1e6,
            unattributed_ms,
            unattributed_ms * 1e3 / rp.requests[class] as f64,
            c.relative_error * 100.0,
            if c.ok { "" } else { "  FAILED" }
        );
    }
    println!(
        "  tolerance: {:.0}% of Engine::handle or {:.0} us/request, whichever is larger",
        trace::CHILDREN_SUM_TOLERANCE * 100.0,
        trace::CHILDREN_SUM_FLOOR_US
    );
    let mut spans_json = Map::new();
    for ((class, name), t) in &rp.by_span {
        let mut one = Map::new();
        one.insert("calls".into(), Value::from(t.calls));
        one.insert("total_ms".into(), Value::from(t.total_ns / 1e6));
        one.insert("self_ms".into(), Value::from(t.self_ns / 1e6));
        spans_json.insert(format!("{}/{name}", class.label()), Value::Object(one));
    }
    let mut ctx = m.context(&reqs);
    ctx.insert("workload".into(), Value::from(w.name()));
    ctx.insert("seed".into(), Value::from(args.seed));
    ctx.insert("cores".into(), Value::from(cores()));
    ctx.insert("children_sum_check".into(), Value::Object(check_json));
    ctx.insert(
        "children_sum_tolerance".into(),
        Value::from(trace::CHILDREN_SUM_TOLERANCE),
    );
    ctx.insert(
        "children_sum_floor_us".into(),
        Value::from(trace::CHILDREN_SUM_FLOOR_US),
    );
    ctx.insert("spans".into(), Value::Object(spans_json));
    ctx.insert("spans_recorded".into(), Value::from(rp.spans as u64));
    ctx.insert("span_cost_ns".into(), Value::from(rp.span_cost_ns));
    ctx.insert("ingest_triples_acked".into(), Value::from(m.ingest_triples));
    ctx.insert("server_counters".into(), counters_json(&d));
    println!(
        "{}",
        serde_json::to_string(&wrap("context", Value::Object(ctx))).expect("context")
    );

    let mut metrics = Map::new();
    for (name, value, unit) in per_layer {
        metrics.insert(name.into(), metric(value, unit));
    }
    result(m.failed == 0 && check_ok, m.attempted, m.failed, metrics)
}

/// `--capacity`: one closed-loop pass over two connections through a
/// list long enough to last about `seconds`, so cold SPARQL texts stay
/// cold; `MIXED_OFFERED_RPS` is about half of the throughput it reports.
fn capacity(args: &Args, out: &Path) -> Value {
    const GUESS_RPS: f64 = 2000.0;
    let w = args.workload;
    let graph = w.graph();
    let reqs = workload::requests(&graph, w, args.seed, (GUESS_RPS * args.seconds) as usize);
    drop(graph);
    let srv = loadgen::spawn(w, out, 0);
    let run = loadgen::closed_loop(srv.addr(), &reqs, 0.0);
    srv.stop();
    let m = Measured::of(&run, &reqs);
    let pass_s = run.samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
    let mut metrics = Map::new();
    metrics.insert(
        "capacity_rps".into(),
        metric(run.samples.len() as f64 / pass_s, "1/s"),
    );
    result(m.failed == 0, m.attempted, m.failed, metrics)
}

/// What one loop measured.
struct Measured {
    attempted: u64,
    failed: u64,
    degraded_share: f64,
    failed_share: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
    /// The measurement split into equal windows; the latency and
    /// closed-loop throughput metrics are medians over them.
    windows: Vec<Window>,
    /// Request classes of the replies at or above the run's overall p99.
    tail_classes: BTreeMap<Class, u64>,
    accuracy: f64,
    accuracy_base: usize,
    engine_p50_ms: f64,
    outside_p50_ms: f64,
    outside_p99_ms: f64,
    late_p99_ms: f64,
    ingest_triples: u64,
    /// p50 of all measured replies pooled (the metric is the median of
    /// the windows' p50s).
    pooled_p50_ms: f64,
    classes: BTreeMap<Class, ClassStats>,
}

/// Per-class tallies of one loop.
#[derive(Default)]
struct ClassStats {
    replies: u64,
    failed: u64,
    /// Replies inside the measurement window, and how many of them were
    /// at or below the pooled p50.
    measured: u64,
    at_or_below_p50: u64,
    p50_ms: f64,
}

impl Measured {
    fn of(run: &LoopRun, reqs: &[workload::Request]) -> Measured {
        let all = &run.samples;
        let attempted = (all.len() + run.dropped) as u64;
        let failed = all.iter().filter(|s| s.check.failed()).count() as u64 + run.dropped as u64;
        let degraded = all.iter().filter(|s| s.check.degraded).count() as u64;
        let measured: Vec<&Sample> = all.iter().filter(|s| in_window(run, s)).collect();
        let windows = windows(run, &measured);
        // Which classes make up the slowest 1% of the measured replies.
        let mut lat: Vec<f64> = measured.iter().map(|s| s.latency_us).collect();
        let tail_from = quantile(&mut lat, 0.99);
        let mut tail_classes: BTreeMap<Class, u64> = BTreeMap::new();
        for s in measured.iter().filter(|s| s.latency_us >= tail_from) {
            *tail_classes.entry(reqs[s.idx].class).or_default() += 1;
        }
        let mut engine: Vec<f64> = measured.iter().map(|s| s.engine_us / 1e3).collect();
        let mut outside: Vec<f64> = measured
            .iter()
            .map(|s| (s.latency_us - s.engine_us) / 1e3)
            .collect();
        let mut late: Vec<f64> = all.iter().map(|s| s.late_us / 1e3).collect();
        // The open loop's achieved rate runs to its last measured reply,
        // so a server that falls behind shows a rate below the offered one.
        let throughput_rps = match measured.iter().map(|s| s.done_s).reduce(f64::max) {
            Some(last) if run.open => measured.len() as f64 / (last - run.measure_start_s),
            _ => median(&mut windows.iter().map(|w| w.rps).collect::<Vec<_>>()),
        };
        // Accuracy over the first reply to each distinct chat/rag request,
        // so it depends on the seed and not on how many replies a run got.
        let mut first: BTreeMap<usize, bool> = BTreeMap::new();
        for s in all {
            if matches!(reqs[s.idx].gold, workload::Gold::Names(_)) {
                first.entry(s.idx).or_insert(s.check.accurate);
            }
        }
        let correct = first.values().filter(|&&a| a).count();
        let mut classes: BTreeMap<Class, ClassStats> = BTreeMap::new();
        for s in all {
            let e = classes.entry(reqs[s.idx].class).or_default();
            e.replies += 1;
            e.failed += s.check.failed() as u64;
        }
        // Where the pooled median falls among the classes: each class's
        // own p50 and the share of its replies at or below the pooled one.
        let pooled_p50_ms = quantile(&mut lat, 0.50) / 1e3;
        for (&class, e) in classes.iter_mut() {
            let mut own: Vec<f64> = measured
                .iter()
                .filter(|s| reqs[s.idx].class == class)
                .map(|s| s.latency_us / 1e3)
                .collect();
            e.measured = own.len() as u64;
            e.at_or_below_p50 = own.iter().filter(|&&l| l <= pooled_p50_ms).count() as u64;
            e.p50_ms = quantile(&mut own, 0.50);
        }
        let ingest_triples = all
            .iter()
            .filter_map(|s| match (&reqs[s.idx].gold, s.check.gate) {
                (workload::Gold::Triples(n), true) => Some(*n),
                _ => None,
            })
            .sum();
        Measured {
            attempted,
            failed,
            degraded_share: degraded as f64 / attempted.max(1) as f64,
            failed_share: failed as f64 / attempted.max(1) as f64,
            throughput_rps,
            p50_ms: median(&mut windows.iter().map(|w| w.p50_ms).collect::<Vec<_>>()),
            p99_ms: median(&mut windows.iter().map(|w| w.p99_ms).collect::<Vec<_>>()),
            samples: measured.len(),
            windows,
            tail_classes,
            accuracy: correct as f64 / first.len().max(1) as f64,
            accuracy_base: first.len(),
            engine_p50_ms: quantile(&mut engine, 0.50),
            outside_p50_ms: quantile(&mut outside, 0.50),
            outside_p99_ms: quantile(&mut outside, 0.99),
            late_p99_ms: quantile(&mut late, 0.99),
            ingest_triples,
            pooled_p50_ms,
            classes,
        }
    }

    /// The context fields every run reports: sample counts behind each
    /// percentile and the per-class gate tallies.
    fn context(&self, reqs: &[workload::Request]) -> Map<String, Value> {
        let mut ctx = Map::new();
        ctx.insert("request_list_len".into(), Value::from(reqs.len() as u64));
        ctx.insert("attempted".into(), Value::from(self.attempted));
        ctx.insert("failed".into(), Value::from(self.failed));
        ctx.insert("latency_samples".into(), Value::from(self.samples as u64));
        let mut ws = Vec::new();
        for w in &self.windows {
            let mut one = Map::new();
            one.insert("samples".into(), Value::from(w.samples as u64));
            one.insert("rps".into(), Value::from(w.rps));
            one.insert("p50_ms".into(), Value::from(w.p50_ms));
            one.insert("p99_ms".into(), Value::from(w.p99_ms));
            ws.push(Value::Object(one));
        }
        ctx.insert("windows".into(), Value::Array(ws));
        let mut tail = Map::new();
        for (class, n) in &self.tail_classes {
            tail.insert(class.label().into(), Value::from(*n));
        }
        ctx.insert("p99_tail_classes".into(), Value::Object(tail));
        ctx.insert(
            "answer_accuracy_base".into(),
            Value::from(self.accuracy_base as u64),
        );
        ctx.insert("loadgen_late_p99_ms".into(), Value::from(self.late_p99_ms));
        ctx.insert("pooled_p50_ms".into(), Value::from(self.pooled_p50_ms));
        let mut classes = Map::new();
        for (class, c) in &self.classes {
            let mut one = Map::new();
            one.insert("replies".into(), Value::from(c.replies));
            one.insert("failed_gates".into(), Value::from(c.failed));
            one.insert("measured".into(), Value::from(c.measured));
            one.insert("p50_ms".into(), Value::from(c.p50_ms));
            one.insert(
                "share_at_or_below_pooled_p50".into(),
                Value::from(c.at_or_below_p50 as f64 / c.measured.max(1) as f64),
            );
            classes.insert(class.label().into(), Value::Object(one));
        }
        ctx.insert("classes".into(), Value::Object(classes));
        ctx
    }
}

/// Windows the measurement is split into. Reporting the median window
/// keeps a short burst of interference on the host from moving a run's
/// figures.
const WINDOWS: usize = 10;

/// One window of the measurement.
struct Window {
    samples: usize,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Split the measured samples into [`WINDOWS`] equal spans of the
/// measurement, by due time (open loop) or completion time (closed).
fn windows(run: &LoopRun, measured: &[&Sample]) -> Vec<Window> {
    let span = (run.measure_end_s - run.measure_start_s) / WINDOWS as f64;
    let mut lat: Vec<Vec<f64>> = (0..WINDOWS).map(|_| Vec::new()).collect();
    for s in measured {
        let at = if run.open { s.due_s } else { s.done_s };
        let w = (((at - run.measure_start_s) / span) as usize).min(WINDOWS - 1);
        lat[w].push(s.latency_us / 1e3);
    }
    lat.into_iter()
        .map(|mut v| Window {
            samples: v.len(),
            rps: v.len() as f64 / span,
            p50_ms: quantile(&mut v, 0.50),
            p99_ms: quantile(&mut v, 0.99),
        })
        .collect()
}

/// Whether a sample falls in the run's measurement window: by due time
/// for the open loop (requests scheduled after warm-up), by completion
/// time for the closed loop.
fn in_window(run: &LoopRun, s: &Sample) -> bool {
    if run.open {
        s.due_s >= run.measure_start_s
    } else {
        s.done_s >= run.measure_start_s && s.done_s <= run.measure_end_s
    }
}

fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the CPU time between two [`host_ticks`] readings that the
/// hypervisor gave to other guests: a gauge of host interference.
fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}

fn cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn field(obj: &Value, key: &str) -> Value {
    obj.as_object()
        .and_then(|o| o.get(key))
        .cloned()
        .unwrap_or(Value::Null)
}

fn floats(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|&x| Value::from(x)).collect())
}

fn counters_json(d: &BTreeMap<String, u64>) -> Value {
    let mut m = Map::new();
    for (k, v) in d {
        if *v > 0 {
            m.insert(k.clone(), Value::from(*v));
        }
    }
    Value::Object(m)
}

fn wrap(key: &str, v: Value) -> Value {
    let mut m = Map::new();
    m.insert(key.into(), v);
    Value::Object(m)
}

fn metric(value: f64, unit: &str) -> Value {
    let mut m = Map::new();
    m.insert("value".into(), Value::from(value));
    m.insert("unit".into(), Value::from(unit));
    Value::Object(m)
}

fn result(correct: bool, attempted: u64, failed: u64, metrics: Map<String, Value>) -> Value {
    let mut m = Map::new();
    m.insert("correct".into(), Value::Bool(correct));
    m.insert("attempted".into(), Value::from(attempted));
    m.insert("failed".into(), Value::from(failed));
    m.insert("metrics".into(), Value::Object(metrics));
    Value::Object(m)
}
