//! The three workloads and their deterministic request lists.
//!
//! Every request line the server sees is generated here from the
//! `--seed` argument and a fixed movies KG: questions and gold answers
//! come from `kgqa::datasets::generate_dataset`, SPARQL expectations
//! from an in-process `kgquery::execute_sparql` over the same graph the
//! server builds. Nothing is filtered down to the requests that pass.

use std::collections::HashMap;

use kg::synth::{movies, Scale};
use kg::Graph;
use serde_json::{Map, Value};

/// Seed of the served KG. The benchmark seed shapes the traffic only,
/// so every run of a workload serves the same graph.
pub const KG_SEED: u64 = 42;

/// Paths sampled per hop count (1–3 hops) for the question pool. The
/// movies KG yields 1- and 2-hop paths only; pools this large overlap
/// heavily between seeds, which keeps `answer_accuracy` steady.
const QUESTIONS_PER_HOP: usize = 1000;

/// Offered rate of `mixed-open`, frozen at about half of the mix's
/// closed-loop capacity over two connections (`--capacity`) at the
/// commit that introduced the benchmark.
pub const MIXED_OFFERED_RPS: f64 = 800.0;

/// Seconds of `mixed-open` traffic sent before measurement starts.
pub const MIXED_WARMUP_S: f64 = 1.0;

/// Tenant ids the requests rotate through: one per budget class.
const TENANTS: [&str; 3] = ["free:bench", "bench-std", "pro:bench"];

const VOCAB: &str = "http://llmkg.dev/vocab/";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of `chat` turns on dataset questions.
    ChatKgqa,
    /// Closed loop of naive-mode `rag` answers on the same questions.
    RagQa,
    /// Open loop of raw SPARQL, ingest, rag and completions on a larger KG.
    MixedOpen,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "chat-kgqa" => Some(Workload::ChatKgqa),
            "rag-qa" => Some(Workload::RagQa),
            "mixed-open" => Some(Workload::MixedOpen),
            _ => None,
        }
    }

    /// The workload's name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatKgqa => "chat-kgqa",
            Workload::RagQa => "rag-qa",
            Workload::MixedOpen => "mixed-open",
        }
    }

    /// Entities per class of the served movies KG.
    pub fn entities_per_class(self) -> usize {
        match self {
            Workload::ChatKgqa | Workload::RagQa => 500,
            Workload::MixedOpen => 2000,
        }
    }

    /// Whether the server gets a durable store (for `ingest`).
    pub fn durable(self) -> bool {
        self == Workload::MixedOpen
    }

    /// The served KG, exactly as the server's workbench generates it.
    pub fn graph(self) -> Graph {
        let scale = Scale {
            entities_per_class: self.entities_per_class(),
        };
        movies(KG_SEED, scale).graph
    }
}

/// The request classes (the server's scenarios, minus `stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Chat,
    Rag,
    Sparql,
    Ingest,
    Complete,
}

impl Class {
    /// The protocol's scenario name.
    pub fn label(self) -> &'static str {
        match self {
            Class::Chat => "chat",
            Class::Rag => "rag",
            Class::Sparql => "sparql",
            Class::Ingest => "ingest",
            Class::Complete => "complete",
        }
    }
}

/// What a correct reply must show.
#[derive(Debug, Clone)]
pub enum Gold {
    /// Display names of the gold answers (chat and rag).
    Names(Vec<String>),
    /// Row count of the in-process execution of the same SPARQL text.
    Rows(u64),
    /// Triples in the N-Triples batch, all of which must be acked durably.
    Triples(u64),
    /// Any well-formed completion.
    Completion,
}

/// One generated request: its wire line and what its reply must show.
#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    /// The request line sent to the server (no trailing newline).
    pub line: String,
    pub gold: Gold,
}

/// Build the request list of a workload. Closed-loop workloads cycle
/// through a list of dataset questions; `mixed-open` gets `open_len`
/// requests, one per slot of its schedule.
pub fn requests(graph: &Graph, workload: Workload, seed: u64, open_len: usize) -> Vec<Request> {
    let mut rng = SplitMix64(seed ^ 0x6772_6f75_6e64);
    match workload {
        Workload::ChatKgqa | Workload::RagQa => {
            let class = if workload == Workload::ChatKgqa {
                Class::Chat
            } else {
                Class::Rag
            };
            let mut pool = question_pool(graph, seed);
            rng.shuffle(&mut pool);
            pool.into_iter()
                .enumerate()
                .map(|(i, (question, names))| Request::new(i, class, &question, Gold::Names(names)))
                .collect()
        }
        Workload::MixedOpen => mixed(graph, seed, open_len, &mut rng),
    }
}

impl Request {
    fn new(id: usize, class: Class, input: &str, gold: Gold) -> Request {
        let mut obj = Map::new();
        obj.insert("id".into(), Value::from(id as u64));
        obj.insert("tenant".into(), Value::from(TENANTS[id % TENANTS.len()]));
        obj.insert("scenario".into(), Value::from(class.label()));
        if class == Class::Rag {
            obj.insert("mode".into(), Value::from("naive"));
        }
        obj.insert("input".into(), Value::from(input));
        let line = serde_json::to_string(&Value::Object(obj)).expect("request serializes");
        Request { class, line, gold }
    }
}

/// `(question, gold answer display names)` for the dataset's items.
fn question_pool(graph: &Graph, seed: u64) -> Vec<(String, Vec<String>)> {
    kgqa::datasets::generate_dataset(graph, seed, QUESTIONS_PER_HOP, 3)
        .into_iter()
        .map(|item| {
            let names = item
                .answers
                .iter()
                .map(|&a| graph.display_name(a))
                .collect();
            (item.question, names)
        })
        .collect()
}

/// Slots of one `mixed-open` block; each block of [`BLOCK`] requests is a
/// shuffle of these, so every seed sends the same class shares: 60%
/// SPARQL (half from a hot set, half with fresh constants), 15% ingest,
/// 15% rag, 10% completions.
#[derive(Clone, Copy)]
enum Slot {
    HotSparql,
    ColdSparql,
    Ingest,
    Rag,
    Complete,
}

const BLOCK: [Slot; 20] = {
    use Slot::*;
    [
        HotSparql, HotSparql, HotSparql, HotSparql, HotSparql, HotSparql, ColdSparql, ColdSparql,
        ColdSparql, ColdSparql, ColdSparql, ColdSparql, Ingest, Ingest, Ingest, Rag, Rag, Rag,
        Complete, Complete,
    ]
};

/// SPARQL texts that recur and stay in the plan cache. Many texts per
/// shape keep the hot set's average cost from hinging on a few draws.
const HOT_TEXTS: usize = 48;

/// The `mixed-open` list, in shuffled blocks of [`BLOCK`].
fn mixed(graph: &Graph, seed: u64, n: usize, rng: &mut SplitMix64) -> Vec<Request> {
    let kg = Entities::of(graph);
    let mut questions = question_pool(graph, seed);
    rng.shuffle(&mut questions);
    let gold_paths: Vec<String> = kgqa::datasets::generate_dataset(graph, seed ^ 1, 200, 3)
        .into_iter()
        .filter(|item| item.hops > 1)
        .map(|item| item.sparql)
        .collect();
    assert!(
        !gold_paths.is_empty(),
        "the KG yields no multi-hop gold paths"
    );
    let hot: Vec<String> = (0..HOT_TEXTS)
        .map(|i| sparql_shape(i % SHAPES, &kg, &gold_paths, rng))
        .collect();
    let mut expected: HashMap<String, u64> = HashMap::new();
    let mut rag_asked = 0;
    let mut block = BLOCK;
    let mut out = Vec::with_capacity(n);
    for id in 0..n {
        if id % BLOCK.len() == 0 {
            rng.shuffle(&mut block);
        }
        let req = match block[id % BLOCK.len()] {
            slot @ (Slot::HotSparql | Slot::ColdSparql) => {
                let text = match slot {
                    Slot::HotSparql => hot[rng.below(hot.len())].clone(),
                    _ => sparql_shape(rng.below(SHAPES), &kg, &gold_paths, rng),
                };
                let rows = *expected.entry(text.clone()).or_insert_with(|| {
                    kgquery::execute_sparql(graph, &text)
                        .unwrap_or_else(|e| {
                            panic!("generated SPARQL fails in process: {e}: {text}")
                        })
                        .len() as u64
                });
                Request::new(id, Class::Sparql, &text, Gold::Rows(rows))
            }
            Slot::Ingest => {
                let (batch, triples) = ingest_batch(seed, id, &kg, rng);
                Request::new(id, Class::Ingest, &batch, Gold::Triples(triples))
            }
            Slot::Rag => {
                // walk the shuffled pool in order, so a run asks (nearly)
                // every question and accuracy reflects the pool, not the draw
                let (question, names) = &questions[rag_asked % questions.len()];
                rag_asked += 1;
                Request::new(id, Class::Rag, question, Gold::Names(names.clone()))
            }
            Slot::Complete => {
                let film = &kg.film_names[rng.below(kg.film_names.len())];
                let prompt = format!("{film} was directed by");
                Request::new(id, Class::Complete, &prompt, Gold::Completion)
            }
        };
        out.push(req);
    }
    out
}

/// Entity IRIs of the movies KG by class, sorted, and the films' names.
struct Entities {
    film_names: Vec<String>,
    directors: Vec<String>,
    actors: Vec<String>,
    studios: Vec<String>,
    genres: Vec<String>,
}

impl Entities {
    fn of(graph: &Graph) -> Entities {
        let iris = |class: &str| -> Vec<String> {
            let q = format!("SELECT ?x WHERE {{ ?x a <{VOCAB}{class}> }}");
            let rs = kgquery::execute_sparql(graph, &q).expect("class query runs");
            let mut iris: Vec<String> = rs
                .values("x")
                .iter()
                .filter_map(|t| t.as_iri().map(str::to_string))
                .collect();
            iris.sort();
            iris
        };
        let film_names = iris("Film")
            .iter()
            .map(|iri| graph.display_name(graph.pool().get_iri(iri).expect("film is interned")))
            .collect();
        Entities {
            film_names,
            directors: iris("Director"),
            actors: iris("Actor"),
            studios: iris("Studio"),
            genres: iris("Genre"),
        }
    }
}

/// Number of SPARQL shapes in [`sparql_shape`].
const SHAPES: usize = 7;

/// One SPARQL text of the given shape with constants drawn from `rng`.
fn sparql_shape(
    shape: usize,
    kg: &Entities,
    gold_paths: &[String],
    rng: &mut SplitMix64,
) -> String {
    let pick = |v: &[String], rng: &mut SplitMix64| v[rng.below(v.len())].clone();
    let body = match shape {
        // two-hop join over a genre's recent films and their cast
        0 => format!(
            "SELECT ?f ?a WHERE {{ ?f v:hasGenre <{}> . ?f v:releaseYear ?y . ?f v:starring ?a . FILTER(?y >= {}) }}",
            pick(&kg.genres, rng),
            1950 + rng.below(70)
        ),
        // property path with an inverse step: the cast of a studio's films
        1 => format!(
            "SELECT ?a WHERE {{ <{}> ^v:producedBy/v:starring ?a }}",
            pick(&kg.studios, rng)
        ),
        // FILTER range over release years
        2 => {
            let lo = 1950 + rng.below(70);
            let hi = lo + 1 + rng.below(6);
            format!(
                "SELECT ?f ?y WHERE {{ ?f v:releaseYear ?y . FILTER(?y >= {lo} && ?y < {hi}) }}"
            )
        }
        // DISTINCT over a genre's cast
        3 => format!(
            "SELECT DISTINCT ?a WHERE {{ ?f v:hasGenre <{}> . ?f v:starring ?a . ?a v:spouse ?s }}",
            pick(&kg.genres, rng)
        ),
        // COUNT / GROUP BY over the films of a span of years
        4 => {
            let lo = 1950 + rng.below(70);
            let hi = lo + 1 + rng.below(10);
            format!(
                "SELECT ?g (COUNT(?f) AS ?n) WHERE {{ ?f v:releaseYear ?y . ?f v:hasGenre ?g . FILTER(?y >= {lo} && ?y < {hi}) }} GROUP BY ?g"
            )
        }
        // LIMIT over a genre join
        5 => format!(
            "SELECT ?f ?d WHERE {{ ?f v:hasGenre <{}> . ?f v:directedBy ?d }} LIMIT {}",
            pick(&kg.genres, rng),
            1 + rng.below(200)
        ),
        // a gold multi-hop path query from the QA dataset
        _ => return pick(gold_paths, rng),
    };
    format!("PREFIX v: <{VOCAB}> {body}")
}

/// A small N-Triples batch about a fresh film: 4 triples, unique per
/// request so every ingest grows the store.
fn ingest_batch(seed: u64, id: usize, kg: &Entities, rng: &mut SplitMix64) -> (String, u64) {
    let film = format!("http://llmkg.dev/entity/ingested/s{seed}_r{id}");
    let director = &kg.directors[rng.below(kg.directors.len())];
    let actor = &kg.actors[rng.below(kg.actors.len())];
    let year = 1950 + rng.below(75);
    let batch = format!(
        "<{film}> <{VOCAB}directedBy> <{director}> .\n\
         <{film}> <{VOCAB}starring> <{actor}> .\n\
         <{film}> <{VOCAB}releaseYear> \"{year}\" .\n\
         <{film}> <http://www.w3.org/2000/01/rdf-schema#label> \"Ingested film {id}\" ."
    );
    (batch, 4)
}

/// The benchmark's own deterministic generator (splitmix64), so request
/// lists depend on nothing but the seed.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: Workload, graph: &Graph, seed: u64) -> Vec<String> {
        requests(graph, w, seed, 400)
            .into_iter()
            .map(|r| r.line)
            .collect()
    }

    #[test]
    fn one_seed_gives_byte_identical_lists_and_another_seed_differs() {
        for w in [Workload::ChatKgqa, Workload::RagQa, Workload::MixedOpen] {
            let graph = w.graph();
            let a = lines(w, &graph, 7);
            assert!(!a.is_empty(), "{}", w.name());
            assert_eq!(a, lines(w, &graph, 7), "{} is not deterministic", w.name());
            assert_ne!(a, lines(w, &graph, 8), "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn every_line_parses_as_a_server_request() {
        let graph = Workload::MixedOpen.graph();
        for r in requests(&graph, Workload::MixedOpen, 3, 400) {
            let req = serve::parse_request(&r.line).expect("well-formed request line");
            assert_eq!(req.scenario.label(), r.class.label());
        }
    }

    #[test]
    fn mixed_open_has_every_class_at_its_share_for_every_seed() {
        let graph = Workload::MixedOpen.graph();
        for seed in [5, 6] {
            let reqs = requests(&graph, Workload::MixedOpen, seed, 2000);
            let count = |c: Class| reqs.iter().filter(|r| r.class == c).count();
            for (c, want) in [
                (Class::Sparql, 1200),
                (Class::Ingest, 300),
                (Class::Rag, 300),
                (Class::Complete, 200),
            ] {
                assert_eq!(count(c), want, "{c:?} with seed {seed}");
            }
        }
    }
}
