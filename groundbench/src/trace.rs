//! The traced run: replays a workload's request list in process against
//! a workbench built like the server's, with spans recorded by this
//! benchmark around the public calls each request class passes through.
//!
//! The program itself is not instrumented. For each request the replay
//! times `serve::parse_request` and the real `Engine::handle`, and
//! repeats the class's path through the public layer calls, recording
//! them as children of `Engine::handle` (the same request id, with their
//! parent). The two alternate in order from request to request, so warm
//! caches favour neither. A layer's self time is its enclosing call minus
//! the sub-calls it covers, summed over a class's requests. Because the
//! children are separate calls, [`Replay::check`] compares their summed
//! durations with `Engine::handle` per class: a layer the replay misses
//! or under-times leaves a residual there.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use durable::{DiskStorage, DurableGraph, DurableOptions, Op};
use kg::Term;
use kgqa::text2sparql::{SparqlTemplate, Text2SparqlMethod, TextToSparql};
use kgquery::exec::ExecOptions;
use kgquery::PlanCache;
use kgrag::{BatchWindow, RagMode, RagPipeline};
use llmkg::Workbench;
use obs::{NullRecorder, Tracer};
use resilience::CancelToken;
use serve::{Engine, Grade, Scenario, Tenant};
use slm::GenParams;

use crate::loadgen::serve_config;
use crate::workload::{Class, Request, Workload};

/// How far the summed durations of `Engine::handle`'s replayed children
/// may sit from its total, per class: this share of the total, or
/// [`CHILDREN_SUM_FLOOR_US`] per request, whichever is larger. The floor
/// covers the engine's fixed per-request work that no public call times
/// (reply building, counters: about 20 µs for a SPARQL request measured
/// alone, 40–70 µs per SPARQL request in a traced replay), so a faster
/// layer does not fail the check, while any layer the replay misses that
/// costs more than both still does.
pub const CHILDREN_SUM_TOLERANCE: f64 = 0.10;
pub const CHILDREN_SUM_FLOOR_US: f64 = 150.0;

/// One class's line of [`Replay::check`].
pub struct ClassCheck {
    pub engine_ns: f64,
    /// Summed durations of `Engine::handle`'s replayed children.
    pub children_ns: f64,
    /// `|engine − children| / engine`.
    pub relative_error: f64,
    pub ok: bool,
}

/// One recorded span. Times are ns since the recorder's origin.
#[derive(Debug, Clone)]
struct Span {
    req: usize,
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store, written out once at the end of the run.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Run `f` under a span; returns its result and the span's id.
    fn time<T>(
        &mut self,
        req: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed();
        let out = std::hint::black_box(f());
        let end = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (out, id)
    }

    /// Make every parentless span recorded from index `first` on, except
    /// `parent` itself, a child of `parent`.
    fn adopt(&mut self, first: usize, parent: usize) {
        for s in &mut self.spans[first..] {
            if s.parent.is_none() && s.id != parent {
                s.parent = Some(parent);
            }
        }
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"req\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Per-class, per-span-name totals of a traced run.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: f64,
    pub self_ns: f64,
    /// Summed durations of the direct children.
    pub children_ns: f64,
}

/// The result of a traced run.
pub struct Replay {
    /// `(class, span name)` → totals.
    pub by_span: BTreeMap<(Class, &'static str), Totals>,
    /// Requests replayed per class.
    pub requests: BTreeMap<Class, u64>,
    /// Vectors scored by the exact searches, and how many searches.
    pub vectors_scanned: u64,
    pub searches: u64,
    /// Spans recorded, the measured cost of recording one, and the
    /// traced run's wall time.
    pub spans: usize,
    pub span_cost_ns: f64,
    pub wall_ns: f64,
}

impl Replay {
    /// Mean duration (ms) of the named spans per call, over all classes;
    /// `self_time` picks self time instead of duration.
    pub fn mean_ms(&self, names: &[&str], self_time: bool) -> f64 {
        let (mut ns, mut calls) = (0.0, 0u64);
        for ((_, name), t) in &self.by_span {
            if names.contains(name) {
                ns += if self_time { t.self_ns } else { t.total_ns };
                calls += t.calls;
            }
        }
        if calls == 0 {
            0.0
        } else {
            ns / calls as f64 / 1e6
        }
    }

    /// Total self time (ms) of the named spans per request of `class`.
    pub fn per_request_ms(&self, names: &[&str], class: Class) -> f64 {
        let n = self.requests.get(&class).copied().unwrap_or(0);
        let ns: f64 = self
            .by_span
            .iter()
            .filter(|((c, name), _)| *c == class && names.contains(name))
            .map(|(_, t)| t.self_ns)
            .sum();
        if n == 0 {
            0.0
        } else {
            ns / n as f64 / 1e6
        }
    }

    /// Per class: `Engine::handle` against the summed durations of its
    /// replayed children. The residual, `Engine::handle`'s own self time,
    /// is the work no replayed layer call covers; a layer the replay
    /// leaves out or under-times shows up in it.
    pub fn check(&self) -> BTreeMap<Class, ClassCheck> {
        let mut out = BTreeMap::new();
        for (&class, &n) in &self.requests {
            let (engine_ns, children_ns) = self
                .by_span
                .get(&(class, "Engine::handle"))
                .map_or((0.0, 0.0), |t| (t.total_ns, t.children_ns));
            let residual = (engine_ns - children_ns).abs();
            let allowed =
                (CHILDREN_SUM_TOLERANCE * engine_ns).max(CHILDREN_SUM_FLOOR_US * 1e3 * n as f64);
            let relative_error = if engine_ns > 0.0 {
                residual / engine_ns
            } else {
                0.0
            };
            out.insert(
                class,
                ClassCheck {
                    engine_ns,
                    children_ns,
                    relative_error,
                    ok: residual <= allowed,
                },
            );
        }
        out
    }

    pub fn overhead_share(&self) -> f64 {
        self.spans as f64 * self.span_cost_ns / self.wall_ns
    }
}

/// Replay `reqs` (cycling) for `seconds` against an in-process engine
/// over a workbench configured like the server's, and write the spans to
/// `spans_path`.
pub fn replay(
    workload: Workload,
    reqs: &[Request],
    seconds: f64,
    scratch: &Path,
    spans_path: &Path,
) -> Replay {
    let engine_dir = scratch.join(format!("trace-engine-{}", std::process::id()));
    let replay_dir = scratch.join(format!("trace-replay-{}", std::process::id()));
    for d in [&engine_dir, &replay_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let config = serve_config(workload, None);
    let wb = Workbench::build(&config.workbench);
    let open = |dir: &Path| {
        let storage =
            Arc::new(DiskStorage::new(dir.to_string_lossy().into_owned()).expect("durable dir"));
        DurableGraph::open(storage, DurableOptions::default()).expect("durable store opens")
    };
    let mut engine = Engine::new(&wb).with_coalescing(BatchWindow::default());
    let mut store = None;
    if workload.durable() {
        engine = engine.with_durable(open(&engine_dir));
        store = Some(open(&replay_dir));
    }
    let mut path = LayerPath::new(&wb, store);
    let cancel = CancelToken::new();

    let mut rec = Recorder::new();
    let span_cost_ns = calibrate();
    let mut requests: BTreeMap<Class, u64> = BTreeMap::new();
    let start = Instant::now();
    let mut rid = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let r = &reqs[rid % reqs.len()];
        *requests.entry(r.class).or_default() += 1;
        let (parsed, _) = rec.time(rid, None, "serve::parse_request", || {
            serve::parse_request(&r.line)
        });
        let req = parsed.expect("generated request parses");
        // Whichever of the engine call and the replayed layer calls runs
        // second finds the request's data in warm caches, so the order
        // alternates and neither side gets that edge on every request.
        let first = rec.spans.len();
        let handle = |rec: &mut Recorder| {
            rec.time(rid, None, "Engine::handle", || {
                engine.handle(&req, Grade::Normal, &cancel)
            })
            .1
        };
        let e = if rid.is_multiple_of(2) {
            let e = handle(&mut rec);
            path.run(&mut rec, rid, &req);
            e
        } else {
            path.run(&mut rec, rid, &req);
            handle(&mut rec)
        };
        rec.adopt(first, e);
        rid += 1;
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let (vectors_scanned, searches) = (path.vectors_scanned, path.searches);
    drop(engine);
    drop(path);
    for d in [&engine_dir, &replay_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    if let Err(e) = rec.write_jsonl(spans_path) {
        eprintln!("could not write spans to {}: {e}", spans_path.display());
    }
    Replay {
        by_span: totals(&rec.spans, reqs),
        requests,
        vectors_scanned,
        searches,
        spans: rec.spans.len(),
        span_cost_ns,
        wall_ns,
    }
}

/// The public layer calls each request class passes through, replayed
/// beside the engine with mirrors of its state.
struct LayerPath<'w> {
    wb: &'w Workbench,
    /// The replay's own pipeline, chunked exactly as `Workbench::rag`
    /// does, so the chunk texts handed to `Slm::answer` are the engine's.
    rag: RagPipeline<'w>,
    chunks: Vec<kgrag::Chunk>,
    t2s: TextToSparql<'w>,
    /// Mirrors of the engine's plan caches (one per tenant class for raw
    /// SPARQL, the workbench's shared one for chat), so replayed prepares
    /// hit and miss as the engine's did.
    sparql_caches: [PlanCache; 3],
    chat_cache: PlanCache,
    /// A durable store of its own, for the workloads that ingest.
    store: Option<DurableGraph>,
    /// A tracer like the engine's (spans dropped, counters kept) and a
    /// cancel token that is never cancelled.
    tracer: Tracer,
    cancel: CancelToken,
    /// Vectors scored by the exact searches, and how many searches.
    vectors_scanned: u64,
    searches: u64,
}

impl<'w> LayerPath<'w> {
    fn new(wb: &'w Workbench, store: Option<DurableGraph>) -> LayerPath<'w> {
        let chunks = kgrag::chunk_sentences(&wb.corpus.join(". "), 3, 1);
        LayerPath {
            wb,
            rag: RagPipeline::new(&wb.slm, chunks.clone(), Some(wb.graph()))
                .with_coalescing(BatchWindow::default()),
            chunks,
            t2s: TextToSparql::new(wb.graph(), &wb.slm),
            sparql_caches: std::array::from_fn(|_| PlanCache::default()),
            chat_cache: PlanCache::default(),
            store,
            tracer: Tracer::new(Arc::new(NullRecorder)),
            cancel: CancelToken::new(),
            vectors_scanned: 0,
            searches: 0,
        }
    }

    /// Record the layer calls of one request. Its top-level spans get no
    /// parent here; the caller makes them children of `Engine::handle`.
    fn run(&mut self, rec: &mut Recorder, rid: usize, req: &serve::Request) {
        let (wb, graph) = (self.wb, self.wb.graph());
        let tenant = Tenant::from_id(&req.tenant);
        let q = req.input.as_str();
        match req.scenario {
            Scenario::Chat => {
                let (mut bot, _) = rec.time(rid, None, "Workbench::chatbot", || {
                    wb.chatbot().with_limits(tenant.limits())
                });
                let (_, c) = rec.time(rid, None, "ChatBot::handle", || bot.handle(q));
                let (tpl, _) = rec.time(rid, Some(c), "TextToSparql::generate_template", || {
                    self.t2s.generate_template(Text2SparqlMethod::SgptSim, q)
                });
                let Some(t) = tpl else { return };
                let (prepared, _) =
                    rec.time(rid, Some(c), "PlanCache::prepare_with_params", || {
                        self.chat_cache.prepare_with_params(
                            graph,
                            &t.text(),
                            &[SparqlTemplate::ANCHOR_VAR],
                        )
                    });
                if let Ok((p, _)) = prepared {
                    let opts = ExecOptions::with_limits(tenant.limits());
                    let bind = [(SparqlTemplate::ANCHOR_VAR, t.anchor_term())];
                    let _ = rec.time(rid, Some(c), "PreparedQuery::run_with", || {
                        p.run_with(graph, &bind, &opts)
                    });
                }
            }
            Scenario::Rag => {
                let rag = &self.rag;
                let (_, a) = rec.time(rid, None, "RagPipeline::answer", || {
                    rag.answer(RagMode::Naive, q)
                });
                let (v, _) = rec.time(rid, Some(a), "Slm::embed", || wb.slm.embed(q));
                let index = rag.vector_index();
                let (hits, s) = rec.time(rid, Some(a), "VectorIndex::search_coalesced", || {
                    index.search_coalesced(&v, rag.k)
                });
                let ((_, stats), _) = rec.time(rid, Some(s), "VectorIndex::search_exact", || {
                    index.search_exact_with_stats(&v, rag.k)
                });
                self.vectors_scanned += stats.vectors_scanned as u64;
                self.searches += 1;
                let context: Vec<String> = hits
                    .iter()
                    .map(|&(id, _)| self.chunks[id].text.clone())
                    .collect();
                let (answer, _) =
                    rec.time(rid, Some(a), "Slm::answer", || wb.slm.answer(q, &context));
                if answer.text.is_empty() {
                    // the pipeline's closed-book rung
                    rec.time(rid, Some(a), "Slm::answer", || wb.slm.answer(q, &[]));
                }
            }
            Scenario::Sparql => {
                let cache = &self.sparql_caches[tenant_index(tenant)];
                let (prepared, _) =
                    rec.time(rid, None, "PlanCache::prepare", || cache.prepare(graph, q));
                if let Ok((p, _)) = prepared {
                    // the engine's options and observed execution, so the
                    // replay pays the same cancel polls and exec counters
                    let mut opts = ExecOptions::with_limits(tenant.limits());
                    opts.cancel = Some(self.cancel.clone());
                    // The run keeps the rows the engine renders and frees
                    // the rest inside the span, as the engine does; the
                    // observed run's parent span also finishes inside it.
                    let (shown, _) = rec.time(rid, None, "PreparedQuery::run", || {
                        let span = self.tracer.span("serve.request");
                        p.run_observed(graph, &opts, &span)
                            .map(|rs| rs.rows.into_iter().take(RENDERED_ROWS).collect::<Vec<_>>())
                    });
                    if let Ok(rows) = shown {
                        rec.time(rid, None, "Graph::display_name", || {
                            render_rows(graph, rows)
                        });
                    }
                }
            }
            Scenario::Complete => {
                rec.time(rid, None, "Slm::complete", || {
                    wb.slm.complete(q, &GenParams::default())
                });
            }
            Scenario::Ingest => {
                let (ops, _) =
                    rec.time(rid, None, "kg::turtle::parse_ntriples", || ntriples_ops(q));
                let store = self
                    .store
                    .as_mut()
                    .expect("ingest needs a durable workload");
                let (acked, _) = rec.time(rid, None, "DurableGraph::append", || store.append(&ops));
                if matches!(acked, Ok(false)) {
                    rec.time(rid, None, "DurableGraph::sync", || store.sync())
                        .0
                        .expect("durable sync");
                }
            }
            Scenario::Stats => {}
        }
    }
}

fn tenant_index(t: Tenant) -> usize {
    match t {
        Tenant::Free => 0,
        Tenant::Standard => 1,
        Tenant::Pro => 2,
    }
}

/// Rows of a SPARQL result the engine renders into its reply (the
/// `serve` engine's own constant).
const RENDERED_ROWS: usize = 5;

/// Render result rows as the engine's reply does: display names for
/// IRIs, lexical forms for literals.
fn render_rows(graph: &kg::Graph, rows: Vec<Vec<Option<Term>>>) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|cell| match cell {
                    None => "∅".to_string(),
                    Some(Term::Literal(l)) => l.lexical.clone(),
                    Some(Term::Blank(b)) => b.clone(),
                    Some(Term::Iri(iri)) => graph
                        .pool()
                        .get_iri(iri)
                        .map(|s| graph.display_name(s))
                        .unwrap_or_else(|| kg::namespace::humanize(kg::namespace::local_name(iri))),
                })
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect();
    rendered.join("; ")
}

/// The ops an `ingest` request appends, parsed and built as the engine
/// does it.
fn ntriples_ops(text: &str) -> Vec<Op> {
    let parsed = kg::turtle::parse_ntriples(text).expect("generated N-Triples parse");
    let pool = parsed.pool();
    parsed
        .iter()
        .map(|t| {
            Op::Insert(
                pool.resolve(t.s).clone(),
                pool.resolve(t.p).clone(),
                pool.resolve(t.o).clone(),
            )
        })
        .collect()
}

/// Aggregate spans into per-class, per-name totals with self times.
fn totals(spans: &[Span], reqs: &[Request]) -> BTreeMap<(Class, &'static str), Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<(Class, &'static str), Totals> = BTreeMap::new();
    for s in spans {
        let class = reqs[s.req % reqs.len()].class;
        let dur = (s.end_ns - s.start_ns) as f64;
        let t = out.entry((class, s.name)).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur - child_ns[s.id] as f64;
        t.children_ns += child_ns[s.id] as f64;
    }
    // Replayed children that outlast their parent in total leave the
    // parent no self time; for `Engine::handle` the excess shows in
    // `Replay::check`.
    for t in out.values_mut() {
        t.self_ns = t.self_ns.max(0.0);
    }
    out
}

/// The cost of recording one span around an empty body, in ns.
fn calibrate() -> f64 {
    const N: usize = 20_000;
    let mut rec = Recorder::new();
    let start = Instant::now();
    for i in 0..N {
        rec.time(i, None, "calibrate", || ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}
