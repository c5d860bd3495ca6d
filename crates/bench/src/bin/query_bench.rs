//! Before/after benchmark for the executor rewrite.
//!
//! Four comparisons, all correctness-gated, all written to
//! `reports/query_bench.json`:
//!
//! 1. the seed's reference evaluator (map-based bindings, per-binding
//!    join ordering, preserved in `kgquery::reference`) vs the compiled
//!    slot-based executor on the standard query workload;
//! 2. `ORDER BY`-free `LIMIT k` queries: full materialization (the PR 1
//!    compiled executor, `streaming: false`) vs row-budget streaming;
//! 3. a wide join on a larger graph: sequential vs parallel BGP stages;
//! 4. `encoded_join` — the flat sorted-arena store vs the seed's
//!    BTreeSet index graph at million-triple scale: bytes per triple
//!    (live-heap deltas) and two-hop join throughput (per-binding
//!    probes vs one sorted-merge pass), gated by an order-sensitive
//!    checksum proving bit-identical output;
//! 5. `prepared_repeat` — plan-once-run-many through the
//!    [`kgquery::PlanCache`]: per-iteration planning overhead of a
//!    cache hit vs cold parse+compile (gated ≥5× in full mode), two
//!    passes over one cache with per-pass hit/miss counts and the
//!    second-pass hit rate, and bit-identical gates for cached-vs-fresh
//!    results and parameter-bound vs `VALUES`-injected execution.
//!
//! Flags:
//!
//! * `--smoke` — CI mode: tiny graphs, single-iteration timings, report
//!   written to `reports/query_bench_smoke.json`. Validates that the
//!   harness runs and the JSON schema holds, not the numbers.
//! * `--obs` — additionally answer seeded questions through the
//!   workbench's chatbot and RAG paths under a tracer and embed the
//!   per-answer [`llmkg::AnswerProfile`]s in the report's `profiles`
//!   section.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use kg::synth::{movies, FreebaseLikeConfig, Scale};
use kg::{BaselineGraph, Graph, Sym, TriplePattern};
use kgquery::ast::Query;
use kgquery::exec::ExecOptions;
use kgquery::{exec, parser, reference};
use kgrag::RagMode;
use llmkg::{Workbench, WorkbenchConfig};
use llmkg_bench::{header, write_report};
use serde_json::{json, Value};

/// Live-heap meter for the `encoded_join` memory comparison: every
/// allocation and free updates one relaxed counter, so the delta across
/// an index build is the bytes that build retains. Transient allocations
/// (sort scratch, growth slack) cancel out of the delta by the time the
/// build returns.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers all allocation to `System`; only the bookkeeping is ours.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

const QUERIES: [(&str, &str); 6] = [
    (
        "bgp_join",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?a ?d WHERE { ?f v:starring ?a . ?f v:directedBy ?d }",
    ),
    (
        "property_path",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?x WHERE { ?f v:directedBy/v:spouse ?x }",
    ),
    // evaluates the closure once per bound ?d — the per-query path memo
    // answers repeated directors from cache (reference recomputes each)
    (
        "path_closure_reuse",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?f ?x WHERE { ?f v:directedBy ?d . ?d v:spouse+ ?x }",
    ),
    (
        "filter_order_limit",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?f ?y WHERE { ?f v:releaseYear ?y FILTER(?y > 2000) } \
         ORDER BY DESC(?y) LIMIT 10",
    ),
    (
        "distinct_group",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT DISTINCT ?g WHERE { ?f v:hasGenre ?g . ?f v:starring ?a }",
    ),
    // non-DISTINCT twin of distinct_group: the second stage keeps a wide
    // sorted frontier keyed on ?f, so it exercises the merge-join path
    // that the DISTINCT short-circuit above deliberately skips
    (
        "genre_star_join",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?g ?a WHERE { ?f v:hasGenre ?g . ?f v:starring ?a }",
    ),
];

/// `ORDER BY`-free `LIMIT k`: any k solutions are a correct answer, so
/// the streaming evaluator may stop after k extension chains instead of
/// materializing the full join frontier.
const LIMIT_QUERIES: [(&str, &str); 3] = [
    (
        "limit_join",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?a ?d WHERE { ?f v:starring ?a . ?f v:directedBy ?d } LIMIT 10",
    ),
    (
        "limit_offset_scan",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         SELECT ?f ?a WHERE { ?f v:starring ?a } LIMIT 5 OFFSET 20",
    ),
    (
        "ask_exists",
        "PREFIX v: <http://llmkg.dev/vocab/> \
         ASK { ?f v:starring ?a . ?f v:directedBy ?d }",
    ),
];

/// Wide two-stage join for the parallel-scaling comparison: the frontier
/// after the first stage is ~3 bindings per film, so at the larger scale
/// it crosses the executor's sharding threshold.
const PARALLEL_QUERY: &str = "PREFIX v: <http://llmkg.dev/vocab/> \
     SELECT ?a ?d WHERE { ?f v:starring ?a . ?f v:directedBy ?d }";

/// Nanoseconds per call: best of three timed passes after a warmup, so
/// scheduler noise on a shared host inflates neither side of a ratio.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(4) {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

/// Pick an iteration count so each measurement runs a comparable wall
/// time regardless of how slow one call is. In smoke mode everything
/// runs exactly once — CI validates the harness, not the numbers.
fn calibrate(smoke: bool, mut f: impl FnMut()) -> u32 {
    if smoke {
        return 1;
    }
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1);
    ((200_000_000 / once) as u32).clamp(5, 500)
}

/// Measure one evaluation mode of the compiled executor.
fn time_exec(smoke: bool, g: &Graph, q: &Query, opts: &ExecOptions) -> f64 {
    let iters = calibrate(smoke, || {
        black_box(exec::execute_with(g, q, opts).expect("compiled runs"));
    });
    time_ns(iters, || {
        black_box(exec::execute_with(g, q, opts).expect("compiled runs"));
    })
}

/// Answer seeded questions through the chatbot and RAG paths under a
/// tracer; returns their `AnswerProfile`s as JSON for the report, plus
/// the summed (fallbacks, faults_injected) resilience counters — zeros
/// on every healthy run.
fn answer_profiles(smoke: bool) -> (Vec<Value>, u64, u64) {
    let wb = Workbench::build(&WorkbenchConfig {
        entities_per_class: if smoke { 10 } else { 40 },
        ..Default::default()
    });
    let g = wb.graph();
    let film_class = g
        .pool()
        .get_iri(&format!("{}Film", kg::namespace::SYNTH_VOCAB))
        .expect("movies domain has films");
    let film = g.display_name(g.instances_of(film_class)[0]);

    // Warm the workbench's shared plan cache with the question shape the
    // profiled turn will ask: the recorded chatbot profile then shows the
    // steady-state serving path (`plan_cache.hits` ≥ 1), not a cold cache.
    wb.chatbot().handle(&format!("What is {film} directed by?"));

    let runs: Vec<(&str, llmkg::AnswerProfile)> = vec![
        (
            "chatbot",
            wb.profile_answer(&format!("What is {film} directed by?")),
        ),
        (
            "rag_naive",
            wb.profile_rag_answer(RagMode::Naive, &format!("Who directed {film}?")),
        ),
        (
            "rag_modular",
            wb.profile_rag_answer(RagMode::Modular, &format!("Tell me about {film}")),
        ),
        ("hybrid", {
            let vpred = format!("{}directedBy", kg::namespace::SYNTH_VOCAB);
            wb.profile_hybrid_answer(
                &format!(
                    "SELECT ?f ?y WHERE {{ ?f a <{}Film> . ?f <{vpred}> ?y }}",
                    kg::namespace::SYNTH_VOCAB
                ),
                [vpred],
            )
            .expect("hybrid profile query runs")
        }),
    ];
    println!(
        "{:<14} {:<10} {:>10} {:>12} {:>12} {:>14}",
        "profile", "route", "rows", "candidates", "ctx chars", "index probes"
    );
    let fallbacks = runs
        .iter()
        .map(|(_, p)| p.resilience.fallbacks as u64)
        .sum();
    let faults = runs.iter().map(|(_, p)| p.resilience.faults_injected).sum();
    let values = runs
        .iter()
        .map(|(name, p)| {
            println!(
                "{name:<14} {:<10} {:>10} {:>12} {:>12} {:>14}",
                p.route,
                p.executor.rows,
                p.retrieval.candidates,
                p.retrieval.context_chars,
                p.executor.stats.index_probes,
            );
            json!({"name": name, "profile": p.to_json()})
        })
        .collect();
    (values, fallbacks, faults)
}

fn stats_json(stats: &kgquery::ExecStats) -> Value {
    json!({
        "patterns_scanned": stats.patterns_scanned,
        "index_probes": stats.index_probes,
        "intermediate_bindings": stats.intermediate_bindings,
        "path_cache_hits": stats.path_cache_hits,
        "parallel_shards": stats.parallel_shards,
        "merge_joins": stats.merge_joins,
    })
}

/// Order-sensitive FNV-style fold over one joined `(a, c)` pair: equal
/// checksums prove both join strategies emitted the same rows in the
/// same order, not merely the same multiset.
fn fold(h: u64, a: Sym, c: Sym) -> u64 {
    h.wrapping_mul(0x0000_0100_0000_01b3)
        .wrapping_add((u64::from(a.0) << 32) | u64::from(c.0))
}

/// Two-hop join `?a p1 ?b . ?b p2 ?c` the seed engine's way: walk the
/// `p1` frontier, then issue one SPO range probe per binding (a fresh
/// BTree descent each time). Returns `(rows, checksum)`.
fn probe_join(g: &BaselineGraph, p1: Sym, p2: Sym) -> (u64, u64) {
    let mut rows = 0u64;
    let mut checksum = 0u64;
    let frontier = TriplePattern {
        s: None,
        p: Some(p1),
        o: None,
    };
    for t in g.match_pattern(frontier) {
        for c in g.objects(t.o, p2) {
            rows += 1;
            checksum = fold(checksum, t.s, c);
        }
    }
    (rows, checksum)
}

/// The same join as a single sorted-merge pass over the flat arena: a
/// bound-predicate [`Graph::scan_pattern`] walks the POS permutation, so
/// the frontier arrives already sorted by the join key `?b` with zero
/// sort work, and one monotone [`Graph::merge_probe`] seek per distinct
/// key answers every duplicate from the cached matches.
fn merge_join(g: &Graph, p1: Sym, p2: Sym) -> (u64, u64) {
    let mut probe = g
        .merge_probe(p2, true)
        .expect("encoded_join graph is compacted");
    let mut rows = 0u64;
    let mut checksum = 0u64;
    let mut cached: Option<(Sym, Vec<Sym>)> = None;
    let frontier = TriplePattern {
        s: None,
        p: Some(p1),
        o: None,
    };
    for t in g.scan_pattern(frontier) {
        if cached.as_ref().map(|(k, _)| *k) != Some(t.o) {
            let matches: Vec<Sym> = probe.seek(t.o).collect();
            cached = Some((t.o, matches));
        }
        let (_, matches) = cached.as_ref().expect("seeded above");
        for &c in matches {
            rows += 1;
            checksum = fold(checksum, t.s, c);
        }
    }
    (rows, checksum)
}

/// The `encoded_join` series: the flat sorted-arena store against the
/// seed's three-BTreeSet graph at scale. Two measurements, one gate:
///
/// * memory — live-heap deltas (via the counting allocator) of building
///   each index structure from the same interned rows; neither side
///   owns a term pool, so the deltas are triple/index storage only;
/// * join throughput — the two-hop join above, per-binding probes vs
///   one sorted-merge pass, after asserting both produce bit-identical
///   output (count and order-sensitive checksum).
fn encoded_join_series(smoke: bool) -> Value {
    // zipf 0.6 keeps the scale-free shape but bounds hub fan-out, so the
    // timed work is index lookups (what the arena changes) rather than
    // emission of a hub×hub cross product (identical on both sides).
    let config = FreebaseLikeConfig {
        n_entities: if smoke { 3_000 } else { 120_000 },
        n_relations: if smoke { 8 } else { 24 },
        n_triples: if smoke { 30_000 } else { 1_200_000 },
        zipf_exponent: 0.6,
        with_labels: false,
    };
    let fb = kg::synth::freebase_like(7, &config).expect("freebase_like generates");
    let source = fb.graph;
    let rows: Vec<(Sym, Sym, Sym)> = source.iter().map(|t| (t.s, t.p, t.o)).collect();
    let n = rows.len() as f64;

    let before = live_bytes();
    let mut flat = Graph::new();
    flat.bulk_load(rows.iter().copied());
    let flat_bytes = live_bytes().saturating_sub(before);
    assert!(
        flat.is_compacted(),
        "bulk_load must yield a compacted arena"
    );

    let before = live_bytes();
    let mut btree = BaselineGraph::new();
    for &(s, p, o) in &rows {
        btree.insert(s, p, o);
    }
    let btree_bytes = live_bytes().saturating_sub(before);
    assert_eq!(flat.len(), btree.len(), "stores disagree on triple count");

    // Join predicates: the two busiest multi-object relations. rdf:type
    // is excluded by the distinct-object filter — its single shared
    // object would turn the hop into a cross product.
    let mut preds: Vec<(Sym, usize)> = source
        .predicates()
        .into_iter()
        .filter(|&(p, _)| source.predicate_card(p).distinct_objects > 1)
        .collect();
    preds.sort_by_key(|&(p, count)| (std::cmp::Reverse(count), p));
    assert!(preds.len() >= 2, "need two relations for the two-hop join");
    let (p1, p2) = (preds[0].0, preds[1].0);

    // correctness gate: bit-identical rows in bit-identical order
    let (probe_rows, probe_sum) = probe_join(&btree, p1, p2);
    let (merge_rows, merge_sum) = merge_join(&flat, p1, p2);
    assert_eq!(
        (merge_rows, merge_sum),
        (probe_rows, probe_sum),
        "merge join must emit the probe join's rows in the probe join's order"
    );

    let probe_iters = calibrate(smoke, || {
        black_box(probe_join(&btree, p1, p2));
    });
    let probe_ns = time_ns(probe_iters, || {
        black_box(probe_join(&btree, p1, p2));
    });
    let merge_iters = calibrate(smoke, || {
        black_box(merge_join(&flat, p1, p2));
    });
    let merge_ns = time_ns(merge_iters, || {
        black_box(merge_join(&flat, p1, p2));
    });

    let mem_ratio = btree_bytes as f64 / flat_bytes.max(1) as f64;
    let join_speedup = probe_ns / merge_ns;
    println!(
        "\nencoded join: freebase_like(7), {} triples, {} ⨝ {} = {} rows",
        rows.len(),
        source.pool().label(p1),
        source.pool().label(p2),
        probe_rows,
    );
    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "encoded_join", "btree", "flat", "ratio"
    );
    println!(
        "{:<22} {:>14.1} {:>14.1} {:>8.2}x",
        "bytes per triple",
        btree_bytes as f64 / n,
        flat_bytes as f64 / n,
        mem_ratio,
    );
    println!(
        "{:<22} {:>14.0} {:>14.0} {:>8.2}x",
        "two-hop join ns", probe_ns, merge_ns, join_speedup,
    );

    json!({
        "graph": {
            "generator": "freebase_like",
            "seed": 7,
            "entities": config.n_entities,
            "relations": config.n_relations,
            "triples": rows.len(),
        },
        "note": "term pool excluded on both sides; byte deltas cover triple/index storage only",
        "memory": {
            "flat_bytes": flat_bytes,
            "btree_bytes": btree_bytes,
            "flat_bytes_per_triple": flat_bytes as f64 / n,
            "btree_bytes_per_triple": btree_bytes as f64 / n,
            "ratio": mem_ratio,
        },
        "join": {
            "pattern": "?a p1 ?b . ?b p2 ?c",
            "p1": source.pool().label(p1),
            "p2": source.pool().label(p2),
            "rows": probe_rows,
            "checksum": format!("{merge_sum:016x}"),
            "probe_ns": probe_ns,
            "merge_ns": merge_ns,
            "speedup": join_speedup,
        },
    })
}

/// The `prepared_repeat` series: prepared queries + plan cache vs cold
/// parse-and-plan every execution.
///
/// * planning overhead — nanoseconds to obtain an executable plan, cold
///   (`parse` + `compile_query` each time) vs through a warm
///   [`kgquery::PlanCache`] (one normalize + map lookup). Full runs gate
///   the ratio at ≥5×; smoke runs record it only.
/// * two passes — the whole workload prepared twice against one cache:
///   pass 1 is all misses, pass 2 must be all hits (`hit_rate` = 1.0).
/// * correctness gates — every cached plan's result must be bit-identical
///   to a freshly parsed and planned execution, and running the
///   parameterized template with bound anchors must be bit-identical to
///   executing the textual `VALUES`-injected equivalent.
fn prepared_repeat_series(smoke: bool, g: &Graph) -> Value {
    use kgquery::{CacheOutcome, PlanCache};

    let cache = PlanCache::default();

    // pass 1: cold — every workload query misses and is compiled
    for (name, text) in QUERIES {
        let (_, outcome) = cache.prepare(g, text).expect("query prepares");
        assert_eq!(outcome, CacheOutcome::Miss, "first pass must miss {name}");
    }
    let pass1 = cache.stats();

    // pass 2: warm — every lookup hits, and cached plans reproduce the
    // fresh-planned results bit for bit
    for (name, text) in QUERIES {
        let (prepared, outcome) = cache.prepare(g, text).expect("query prepares");
        assert_eq!(outcome, CacheOutcome::Hit, "second pass must hit {name}");
        let cached = prepared
            .run(g, &ExecOptions::default())
            .expect("cached plan runs");
        let fresh =
            exec::execute(g, &parser::parse(text).expect("query parses")).expect("fresh plan runs");
        assert_eq!(cached, fresh, "cached plan diverges on {name}");
    }
    let pass2 = cache.stats();
    let pass2_hits = pass2.hits - pass1.hits;
    let hit_rate = pass2_hits as f64 / QUERIES.len() as f64;
    assert!(
        hit_rate > 0.0,
        "second pass over an untouched graph must hit the cache"
    );

    // parameterized template ≡ VALUES-injected text, anchor by anchor
    let directed = format!("{}directedBy", kg::namespace::SYNTH_VOCAB);
    let template = format!("SELECT ?answer WHERE {{ ?anchor <{directed}> ?answer }}");
    let (prepared, _) = cache
        .prepare_with_params(g, &template, &["anchor"])
        .expect("template prepares");
    let directed_sym = g.pool().get_iri(&directed).expect("movies graph has it");
    let anchors: Vec<String> = g
        .scan_pattern(TriplePattern {
            s: None,
            p: Some(directed_sym),
            o: None,
        })
        .take(3)
        .filter_map(|t| g.resolve(t.s).as_iri().map(str::to_string))
        .collect();
    assert!(!anchors.is_empty(), "no anchors with the template relation");
    for iri in &anchors {
        let bound = prepared
            .run_with(
                g,
                &[("anchor", kg::Term::iri(iri.clone()))],
                &ExecOptions::default(),
            )
            .expect("bound template runs");
        let injected = format!(
            "SELECT ?answer WHERE {{ VALUES ?anchor {{ <{iri}> }} ?anchor <{directed}> ?answer }}"
        );
        let textual = exec::execute(g, &parser::parse(&injected).expect("injected text parses"))
            .expect("injected text runs");
        assert_eq!(
            bound, textual,
            "bound template diverges from VALUES-injected text for {iri}"
        );
    }

    // planning overhead: cold parse+compile vs warm cache lookup
    let (_, text0) = QUERIES[0];
    let cold_iters = calibrate(smoke, || {
        let q = parser::parse(text0).expect("query parses");
        black_box(exec::compile_query(g, &q));
    });
    let cold_ns = time_ns(cold_iters, || {
        let q = parser::parse(text0).expect("query parses");
        black_box(exec::compile_query(g, &q));
    });
    let warm_iters = calibrate(smoke, || {
        black_box(cache.prepare(g, text0).expect("query prepares"));
    });
    let warm_ns = time_ns(warm_iters, || {
        black_box(cache.prepare(g, text0).expect("query prepares"));
    });
    let plan_speedup = cold_ns / warm_ns;
    if !smoke {
        assert!(
            plan_speedup >= 5.0,
            "plan cache must cut per-iteration planning overhead ≥5×, got {plan_speedup:.2}x \
             (cold {cold_ns:.0} ns vs cached {warm_ns:.0} ns)"
        );
    }

    println!("\nprepared queries: plan once, run many (plan cache, epoch-invalidated)");
    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "prepared_repeat", "cold plan ns", "cached ns", "speedup"
    );
    println!(
        "{:<22} {cold_ns:>14.0} {warm_ns:>14.0} {plan_speedup:>8.2}x",
        "planning overhead"
    );
    println!(
        "two passes over {} queries: pass1 {} misses, pass2 {} hits (hit rate {hit_rate:.2})",
        QUERIES.len(),
        pass1.misses,
        pass2_hits,
    );

    json!({
        "workload_queries": QUERIES.len(),
        "planning": {
            "cold_plan_ns": cold_ns,
            "cached_plan_ns": warm_ns,
            "speedup": plan_speedup,
        },
        "passes": [
            {"pass": 1, "hits": pass1.hits, "misses": pass1.misses},
            {"pass": 2, "hits": pass2_hits, "misses": pass2.misses - pass1.misses},
        ],
        "hit_rate": hit_rate,
        "cache": {
            "entries": pass2.entries,
            "hits": pass2.hits,
            "misses": pass2.misses,
            "invalidations": pass2.invalidations,
        },
        "template": {
            "text": template,
            "anchors_checked": anchors.len(),
            "gate": "bound-params result bit-identical to VALUES-injected text",
        },
    })
}

/// The PR 1 compiled executor: full materialization, no sharding.
fn materializing() -> ExecOptions {
    ExecOptions {
        parallel_threshold: None,
        shard_count: None,
        streaming: false,
        ..ExecOptions::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut obs = false;
    let mut deadline_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--obs" => obs = true,
            "--deadline-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => deadline_ms = Some(v),
                None => {
                    eprintln!("--deadline-ms requires an integer value (milliseconds)");
                    std::process::exit(2);
                }
            },
            unknown => {
                eprintln!(
                    "unknown flag {unknown}; usage: query_bench [--smoke] [--obs] [--deadline-ms <n>]"
                );
                std::process::exit(2);
            }
        }
    }

    header(if smoke {
        "Executor rewrite: reference vs compiled (SMOKE — schema only)"
    } else {
        "Executor rewrite: reference (seed) vs compiled slot-based"
    });
    let scale = if smoke {
        Scale {
            entities_per_class: 12,
        }
    } else {
        Scale::medium()
    };
    let kg = movies(11, scale);
    let g = kg.graph;
    println!(
        "graph: movies(11, n={}) — {} triples\n",
        scale.entities_per_class,
        g.len()
    );
    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "query", "reference ns", "compiled ns", "speedup"
    );

    let mut entries: Vec<Value> = Vec::new();
    for (name, text) in QUERIES {
        let q = parser::parse(text).expect("query parses");
        // correctness gate: both executors must return the same table
        let baseline = reference::execute(&g, &q).expect("reference runs");
        let compiled = exec::execute(&g, &q).expect("compiled runs");
        assert_eq!(compiled, baseline, "executors diverge on {name}");

        let ref_iters = calibrate(smoke, || {
            black_box(reference::execute(&g, &q).expect("reference runs"));
        });
        let ref_ns = time_ns(ref_iters, || {
            black_box(reference::execute(&g, &q).expect("reference runs"));
        });
        let new_ns = time_exec(smoke, &g, &q, &ExecOptions::default());
        let speedup = ref_ns / new_ns;
        println!("{name:<22} {ref_ns:>14.0} {new_ns:>14.0} {speedup:>8.2}x");
        entries.push(json!({
            "query": name,
            "reference_ns": ref_ns,
            "compiled_ns": new_ns,
            "speedup": speedup,
            "rows": compiled.len(),
            "stats": stats_json(&compiled.stats),
        }));
    }

    // -- streaming: LIMIT k without ORDER BY stops after k extensions ----
    println!(
        "\n{:<22} {:>14} {:>14} {:>9}",
        "limit query", "materialize ns", "streamed ns", "speedup"
    );
    let streaming_only = ExecOptions {
        parallel_threshold: None,
        shard_count: None,
        streaming: true,
        ..ExecOptions::default()
    };
    let mut limit_entries: Vec<Value> = Vec::new();
    for (name, text) in LIMIT_QUERIES {
        let q = parser::parse(text).expect("query parses");
        // gate: streaming returns exactly the materialized executor's rows
        let full = exec::execute_with(&g, &q, &materializing()).expect("materialized runs");
        let streamed = exec::execute_with(&g, &q, &streaming_only).expect("streamed runs");
        assert_eq!(streamed, full, "streaming diverges on {name}");

        let full_ns = time_exec(smoke, &g, &q, &materializing());
        let stream_ns = time_exec(smoke, &g, &q, &streaming_only);
        let speedup = full_ns / stream_ns;
        println!("{name:<22} {full_ns:>14.0} {stream_ns:>14.0} {speedup:>8.2}x");
        limit_entries.push(json!({
            "query": name,
            "materialized_ns": full_ns,
            "streamed_ns": stream_ns,
            "speedup": speedup,
            "rows": streamed.len(),
            "streamed_bindings": streamed.stats.intermediate_bindings,
            "materialized_bindings": full.stats.intermediate_bindings,
        }));
    }

    // -- parallel: shard wide extension stages across cores --------------
    // The join-ordered first stage binds one row per film, so the second
    // stage's input frontier equals the film count; n=6000 puts it well
    // past the sharding threshold.
    // In smoke mode a 64-film graph with threshold 1 still exercises the
    // sharding machinery (the second stage's frontier is one binding per
    // film) without the multi-second graph build.
    let parallel_n: usize = if smoke { 64 } else { 6000 };
    let threshold: usize = if smoke { 1 } else { 2048 };
    let big = movies(
        11,
        Scale {
            entities_per_class: parallel_n,
        },
    );
    let bg = big.graph;
    let q = parser::parse(PARALLEL_QUERY).expect("query parses");
    let seq_rs = exec::execute_with(&bg, &q, &materializing()).expect("sequential runs");
    let seq_ns = time_exec(smoke, &bg, &q, &materializing());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nparallel scaling: movies n={parallel_n}, {} triples, {} rows, {cores} core(s), \
         sequential {seq_ns:.0} ns",
        bg.len(),
        seq_rs.len(),
    );
    println!(
        "{:<22} {:>14} {:>9} {:>7}",
        "workers", "parallel ns", "speedup", "shards"
    );
    let mut sweep: Vec<Value> = Vec::new();
    // `auto` = one worker per core; the pinned counts measure the sharding
    // machinery itself, which on a single-core host is pure overhead (the
    // honest number to report there is how small that overhead is)
    let modes: [(&str, Option<usize>); 4] = [
        ("auto", None),
        ("2", Some(2)),
        ("4", Some(4)),
        ("8", Some(8)),
    ];
    for (label, shard_count) in modes {
        let opts = ExecOptions {
            parallel_threshold: Some(threshold),
            shard_count,
            streaming: false,
            ..ExecOptions::default()
        };
        let par_rs = exec::execute_with(&bg, &q, &opts).expect("parallel runs");
        assert_eq!(
            par_rs.rows, seq_rs.rows,
            "parallel evaluation must be bit-identical (workers {label})"
        );
        let par_ns = time_exec(smoke, &bg, &q, &opts);
        let speedup = seq_ns / par_ns;
        println!(
            "{label:<22} {par_ns:>14.0} {speedup:>8.2}x {:>7}",
            par_rs.stats.parallel_shards,
        );
        sweep.push(json!({
            "workers": label,
            "parallel_ns": par_ns,
            "speedup": speedup,
            "parallel_shards": par_rs.stats.parallel_shards,
        }));
    }
    let parallel_entry = json!({
        "query": "parallel_join",
        "graph": {"generator": "movies", "seed": 11, "entities_per_class": parallel_n, "triples": bg.len()},
        "rows": seq_rs.len(),
        "host_cores": cores,
        "threshold": threshold,
        "sequential_ns": seq_ns,
        "workers": sweep,
    });

    // -- encoded_join: flat arena vs BTree storage at scale --------------
    let encoded_entry = encoded_join_series(smoke);

    // -- prepared_repeat: plan once through the cache, run many ----------
    let prepared_entry = prepared_repeat_series(smoke, &g);

    // -- --obs: per-answer profiles through the workbench ----------------
    let (profiles, fallbacks, faults_injected) = if obs {
        header("Per-answer observability profiles (--obs)");
        answer_profiles(smoke)
    } else {
        (Vec::new(), 0, 0)
    };

    // -- resilience: rerun the workload once under a wall-clock budget ---
    // With a generous deadline every query completes and all counters stay
    // zero (the happy path CI asserts on); a tiny deadline demonstrates
    // prompt LimitExceeded / truncated termination instead of a hang.
    let mut budget_completed = 0u64;
    let mut budget_limit_hits = 0u64;
    let mut budget_truncated = 0u64;
    if let Some(ms) = deadline_ms {
        let opts = ExecOptions::with_limits(
            resilience::ResourceLimits::unlimited().with_wall(std::time::Duration::from_millis(ms)),
        );
        for (name, text) in QUERIES.iter().chain(LIMIT_QUERIES.iter()) {
            let q = parser::parse(text).expect("query parses");
            match exec::execute_with(&g, &q, &opts) {
                Ok(rs) if rs.truncated => {
                    budget_truncated += 1;
                    budget_limit_hits += 1;
                }
                Ok(_) => budget_completed += 1,
                Err(kgquery::QueryError::LimitExceeded { .. }) => budget_limit_hits += 1,
                Err(e) => panic!("unexpected error under deadline on {name}: {e}"),
            }
        }
        println!(
            "\ndeadline {ms} ms: {budget_completed} completed, \
             {budget_limit_hits} limit hits ({budget_truncated} truncated)"
        );
    }
    let resilience_entry = json!({
        "deadline_ms": deadline_ms.map(Value::from).unwrap_or(Value::Null),
        "budgeted_queries": {
            "completed": budget_completed,
            "limit_hits": budget_limit_hits,
            "truncated": budget_truncated,
        },
        "fallbacks": fallbacks,
        "faults_injected": faults_injected,
    });

    let report_name = if smoke {
        "query_bench_smoke"
    } else {
        "query_bench"
    };
    write_report(
        report_name,
        &json!({
            "experiment": report_name,
            "mode": if smoke { "smoke" } else { "full" },
            "graph": {"generator": "movies", "seed": 11, "entities_per_class": scale.entities_per_class, "triples": g.len()},
            "baseline": "reference executor (BTreeMap bindings, per-binding join ordering)",
            "candidate": "compiled executor (slot bindings, histogram join ordering, streaming LIMIT, parallel stages)",
            "queries": entries,
            "limit_streaming": {
                "baseline": "compiled executor, full materialization (PR 1 behavior)",
                "candidate": "compiled executor, row-budget streaming",
                "queries": limit_entries,
            },
            "parallel": parallel_entry,
            "encoded_join": encoded_entry,
            "prepared_repeat": prepared_entry,
            "resilience": resilience_entry,
            "profiles": Value::Array(profiles),
        }),
    );
    println!("\nwrote reports/{report_name}.json");
}
