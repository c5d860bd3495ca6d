//! Benchmarks for the retrieval substrate: vector search (exact vs IVF),
//! evidence retrieval, and RAG answering.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use kg::synth::{movies, Scale};
use kgextract::testgen::{corpus_sentences, entity_surface_forms};
use kgrag::chunk::chunk_sentences;
use kgrag::pipeline::{RagMode, RagPipeline};
use kgrag::vector::VectorIndex;
use slm::{EvidenceIndex, Slm};

fn bench_rag(c: &mut Criterion) {
    let kg = movies(9, Scale::medium());
    let sentences = corpus_sentences(&kg.graph, &kg.ontology);
    let slm = Slm::builder()
        .corpus(sentences.iter().map(String::as_str))
        .build();

    let vectors: Vec<Vec<f32>> = sentences.iter().map(|s| slm.embed(s)).collect();
    let exact = VectorIndex::build(vectors.clone(), 0, 0);
    let ivf = VectorIndex::build(vectors, 16, 0);
    let q = slm.embed("who directed the film");

    c.bench_function("rag/vector_exact", |b| {
        b.iter(|| black_box(exact.search_exact(&q, 8)))
    });
    c.bench_function("rag/vector_ivf_probe2", |b| {
        b.iter(|| black_box(ivf.search_ivf(&q, 8, 2)))
    });

    let evidence = EvidenceIndex::from_sentences(sentences.iter().map(String::as_str));
    c.bench_function("rag/evidence_retrieve", |b| {
        b.iter(|| black_box(evidence.retrieve("who directed the film", 8)))
    });
    // short lookups (`Slm::knows`/`verify` on unknown or rare facts): a
    // claim with no indexed word, and an entity name few sentences post
    c.bench_function("rag/evidence_unknown_claim", |b| {
        b.iter(|| black_box(evidence.verified_support("zorblax quintessa flumboid")))
    });
    let rare = entity_surface_forms(&kg.graph).swap_remove(0);
    c.bench_function("rag/evidence_rare_word", |b| {
        b.iter(|| black_box(evidence.verified_support(&rare)))
    });

    let chunks = chunk_sentences(&sentences.join(". "), 3, 1);
    let rag = RagPipeline::new(&slm, chunks, Some(&kg.graph));
    c.bench_function("rag/naive_answer", |b| {
        b.iter(|| black_box(rag.answer(RagMode::Naive, "who directed the first film?")))
    });
}

criterion_group!(benches, bench_rag);
criterion_main!(benches);
