//! The evidence index — the simulated LM's enumerable knowledge.
//!
//! Sentences (typically verbalized KG triples) are indexed with an inverted
//! word index and scored against queries by IDF-weighted word overlap. The
//! index answers two questions the task layer needs:
//!
//! * *retrieval*: which known sentences are most relevant to this query?
//! * *support*: how strongly does the known corpus support this claim?

use std::cell::Cell;
use std::collections::HashMap;

use crate::tokenizer::{stem, stemmed_content_words, tokenize_words};

thread_local! {
    /// [`EvidenceIndex::retrieve`]'s per-sentence hit-mass accumulator,
    /// kept between calls so a lookup costs its posting lists rather than
    /// a zeroed allocation the size of the corpus. All zeros between
    /// calls; a call that panics takes it and never puts it back, so a
    /// half-written buffer is dropped rather than reused.
    static HIT_BUFFER: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// A retrieval hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieved {
    /// Index of the sentence in the store.
    pub id: usize,
    /// The sentence text.
    pub text: String,
    /// IDF-weighted overlap score in `[0, 1]`.
    pub score: f64,
}

/// An inverted-index over sentences with IDF-weighted overlap scoring.
#[derive(Debug, Default, Clone)]
pub struct EvidenceIndex {
    sentences: Vec<String>,
    tokenized: Vec<Vec<String>>,
    inverted: HashMap<String, Vec<usize>>,
    doc_freq: HashMap<String, u32>,
}

impl EvidenceIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of sentences.
    pub fn from_sentences<'a>(sentences: impl IntoIterator<Item = &'a str>) -> Self {
        let mut idx = Self::new();
        for s in sentences {
            idx.add(s);
        }
        idx
    }

    /// Add one sentence.
    pub fn add(&mut self, sentence: &str) -> usize {
        let id = self.sentences.len();
        let words: Vec<String> = tokenize_words(sentence).iter().map(|w| stem(w)).collect();
        let mut seen: Vec<&str> = Vec::new();
        for w in &words {
            self.inverted.entry(w.clone()).or_default().push(id);
            if !seen.contains(&w.as_str()) {
                seen.push(w);
                *self.doc_freq.entry(w.clone()).or_insert(0) += 1;
            }
        }
        self.sentences.push(sentence.to_string());
        self.tokenized.push(words);
        id
    }

    /// Number of indexed sentences.
    pub fn len(&self) -> usize {
        self.sentences.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sentences.is_empty()
    }

    /// The sentence with a given id.
    pub fn sentence(&self, id: usize) -> Option<&str> {
        self.sentences.get(id).map(String::as_str)
    }

    /// All sentences.
    pub fn sentences(&self) -> &[String] {
        &self.sentences
    }

    fn idf(&self, word: &str) -> f64 {
        let n = self.sentences.len() as f64;
        match self.doc_freq.get(word) {
            Some(&df) => ((1.0 + n) / (1.0 + f64::from(df))).ln() + 1.0,
            None => ((1.0 + n) / 1.0).ln() + 1.0,
        }
    }

    /// The scoring words of a query: its stemmed content words, or all of
    /// its stemmed words when it has no content words.
    fn query_words(query: &str) -> Vec<String> {
        let cw = stemmed_content_words(query);
        if cw.is_empty() {
            tokenize_words(query).iter().map(|w| stem(w)).collect()
        } else {
            cw
        }
    }

    /// Retrieve the top-`k` sentences for a query, sorted by descending
    /// score then ascending id (deterministic).
    ///
    /// A sentence's score is the IDF-weighted recall of the query words
    /// in it: the weights of the query words it contains (a repeated
    /// query word counts each time) over the weights of all query words.
    /// Scoring is term-at-a-time: each query word, in order, adds its
    /// weight to every sentence on its posting list. Each sentence's sum
    /// thus takes the same addends in the same order as scanning that
    /// sentence word by word, so the scores are the scan's to the bit.
    /// The cost is the summed posting-list length plus one `k`-selection,
    /// and only the winners' texts are cloned.
    pub fn retrieve(&self, query: &str, k: usize) -> Vec<Retrieved> {
        let words = Self::query_words(query);
        let mut hit: Option<Vec<f64>> = None;
        let mut touched = Vec::new();
        for word in &words {
            let Some(ids) = self.inverted.get(word) else {
                continue;
            };
            let w = self.idf(word);
            let hit = hit.get_or_insert_with(|| {
                let mut buf = HIT_BUFFER.take();
                buf.resize(buf.len().max(self.len()), 0.0);
                buf
            });
            // a word repeated within a sentence posts its id repeatedly
            // (adjacently: ids are pushed in ascending order)
            let mut prev = None;
            for &id in ids {
                if prev == Some(id) {
                    continue;
                }
                prev = Some(id);
                // every weight is at least 1, so 0.0 means "not yet hit"
                if hit[id] == 0.0 {
                    touched.push(id);
                }
                hit[id] += w;
            }
        }
        let Some(mut hit) = hit else {
            return Vec::new();
        };
        // the denominator weighs every query word, found or not
        let mut total = 0.0;
        for word in &words {
            total += self.idf(word);
        }
        let mut scored: Vec<(f64, usize)> = touched
            .into_iter()
            .map(|id| (std::mem::take(&mut hit[id]) / total, id))
            .collect();
        HIT_BUFFER.set(hit);
        let rank = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        if k < scored.len() {
            scored.select_nth_unstable_by(k, rank);
            scored.truncate(k);
        }
        scored.sort_unstable_by(rank);
        scored
            .into_iter()
            .map(|(score, id)| Retrieved {
                id,
                text: self.sentences[id].clone(),
                score,
            })
            .collect()
    }

    /// How strongly the corpus supports a claim: the best single-sentence
    /// overlap score for the claim's content words, in `[0,1]`.
    ///
    /// This is *recall-only*: it asks whether the claim's words appear in
    /// some sentence, not whether that sentence says the same thing. Use
    /// [`verified_support`](Self::verified_support) when a near-1.0 score
    /// must mean "the corpus states this exact fact".
    pub fn support(&self, claim: &str) -> f64 {
        self.retrieve(claim, 1).first().map_or(0.0, |r| r.score)
    }

    /// Bidirectional support: IDF-weighted harmonic mean of how much of
    /// the claim the best evidence sentence covers (recall) and how much
    /// of that sentence the claim explains (precision), in `[0,1]`.
    ///
    /// Recall alone saturates on claims whose words are a subset of some
    /// sentence — e.g. evidence "H directed T" fully "supports" the false
    /// claim "H directed H". The precision term discounts evidence that
    /// asserts content the claim does not mention, so only claims that
    /// restate a known sentence score near 1.0.
    pub fn verified_support(&self, claim: &str) -> f64 {
        self.best_evidence(claim)
            .map_or(0.0, |best| self.bidirectional_support(claim, &best))
    }

    /// The harmonic mean of `best`'s recall score and the IDF-weighted
    /// share of `best`'s words that `claim` contains.
    fn bidirectional_support(&self, claim: &str, best: &Retrieved) -> f64 {
        let claim_words: Vec<String> = tokenize_words(claim).iter().map(|w| stem(w)).collect();
        let sent = &self.tokenized[best.id];
        let mut hit = 0.0;
        let mut total = 0.0;
        for sw in sent {
            let w = self.idf(sw);
            total += w;
            if claim_words.contains(sw) {
                hit += w;
            }
        }
        let precision = if total == 0.0 { 0.0 } else { hit / total };
        let recall = best.score;
        if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        }
    }

    /// The best supporting sentence for a claim, if any scores above zero.
    pub fn best_evidence(&self, claim: &str) -> Option<Retrieved> {
        self.retrieve(claim, 1).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// Score one sentence against query words by scanning its tokens:
    /// IDF-weighted recall of the query words in the sentence.
    fn oracle_score(idx: &EvidenceIndex, query_words: &[String], sentence_id: usize) -> f64 {
        if query_words.is_empty() {
            return 0.0;
        }
        let sent = &idx.tokenized[sentence_id];
        let mut hit = 0.0;
        let mut total = 0.0;
        for qw in query_words {
            let w = idx.idf(qw);
            total += w;
            if sent.contains(qw) {
                hit += w;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            hit / total
        }
    }

    /// The reference retrieval: union the query words' posting lists,
    /// score every candidate by a per-sentence scan, sort them all, keep
    /// `k`. [`EvidenceIndex::retrieve`] must match it bit for bit.
    fn oracle_retrieve(idx: &EvidenceIndex, query: &str, k: usize) -> Vec<Retrieved> {
        let qwords = EvidenceIndex::query_words(query);
        let mut candidates: Vec<usize> = Vec::new();
        for w in &qwords {
            if let Some(ids) = idx.inverted.get(w) {
                candidates.extend_from_slice(ids);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut scored: Vec<Retrieved> = candidates
            .into_iter()
            .map(|id| Retrieved {
                id,
                text: idx.sentences[id].clone(),
                score: oracle_score(idx, &qwords, id),
            })
            .filter(|r| r.score > 0.0)
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        scored.truncate(k);
        scored
    }

    fn bits(hits: &[Retrieved]) -> Vec<(usize, &str, u64)> {
        hits.iter()
            .map(|r| (r.id, r.text.as_str(), r.score.to_bits()))
            .collect()
    }

    /// Check every entry point against the oracle on one query.
    fn assert_matches_oracle(idx: &EvidenceIndex, query: &str) -> Result<(), TestCaseError> {
        for k in [0, 1, 3, idx.len() + 2] {
            let (got, want) = (idx.retrieve(query, k), oracle_retrieve(idx, query, k));
            prop_assert!(
                bits(&got) == bits(&want),
                "query {:?}, k {}: {:?} != {:?}",
                query,
                k,
                got,
                want
            );
        }
        let want_best = oracle_retrieve(idx, query, 1).into_iter().next();
        let got_best = idx.best_evidence(query);
        prop_assert_eq!(bits(got_best.as_slice()), bits(want_best.as_slice()));
        let want_support = want_best.as_ref().map_or(0.0, |r| r.score);
        prop_assert_eq!(idx.support(query).to_bits(), want_support.to_bits());
        let want_verified = want_best.map_or(0.0, |best| idx.bidirectional_support(query, &best));
        prop_assert_eq!(
            idx.verified_support(query).to_bits(),
            want_verified.to_bits()
        );
        Ok(())
    }

    /// A small vocabulary so sentences share words and tie often: content
    /// words, a stemming pair ("work"/"works"), stop words, and a word no
    /// sentence contains ("zyzzyva", query side only).
    const VOCAB: &[&str] = &[
        "alice", "bob", "acme", "work", "works", "film", "the", "of", "who", "zyzzyva",
    ];

    fn words(ix: &[usize]) -> String {
        ix.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ")
    }

    proptest! {
        #[test]
        fn retrieve_matches_the_per_sentence_scan(
            corpus in collection::vec(collection::vec(0usize..9, 0..7), 0..14),
            queries in collection::vec(collection::vec(0usize..10, 0..6), 1..6),
        ) {
            let texts: Vec<String> = corpus.iter().map(|s| words(s)).collect();
            let idx = EvidenceIndex::from_sentences(texts.iter().map(String::as_str));
            for q in &queries {
                assert_matches_oracle(&idx, &words(q))?;
            }
        }
    }

    #[test]
    fn retrieve_matches_the_oracle_on_edge_cases() {
        let idx = EvidenceIndex::from_sentences([
            "alice works at acme",
            "bob works at acme",
            "acme acme acme film",
            "the film of the year",
            "alice works at acme",
            "who of the",
        ]);
        for query in [
            "alice alice acme", // duplicate query words
            "acme film",        // word repeated within sentence 2
            "who of the",       // stop words only: whole-word fallback
            "the the",          // stop words only, duplicated
            "zyzzyva quux",     // unknown words only
            "alice zyzzyva",    // known and unknown words
            "works at acme",    // exact ties: 0, 1 and 4 break by id
            "",                 // no words at all
            "?!",               // punctuation only
        ] {
            assert_matches_oracle(&idx, query).unwrap();
        }
        let tie = idx.retrieve("works at acme", 3);
        assert_eq!(tie.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 4]);
        assert_eq!(tie[0].score.to_bits(), tie[2].score.to_bits());
        for query in ["alice", "the", "zyzzyva", ""] {
            assert_matches_oracle(&EvidenceIndex::new(), query).unwrap();
        }
    }

    fn index() -> EvidenceIndex {
        EvidenceIndex::from_sentences([
            "Alice knows Bob",
            "Alice works at Acme",
            "Bob works at Initech",
            "Carol directed The Big Film",
            "The Big Film stars Bob",
        ])
    }

    #[test]
    fn retrieve_finds_most_relevant() {
        let idx = index();
        let hits = idx.retrieve("where does Alice work", 2);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].text, "Alice works at Acme");
    }

    #[test]
    fn exact_claim_has_full_support() {
        let idx = index();
        assert!((idx.support("Alice knows Bob") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn false_claim_has_partial_support() {
        let idx = index();
        let s = idx.support("Alice knows Carol");
        assert!(s < 1.0 && s > 0.0, "{s}");
    }

    #[test]
    fn unknown_topic_has_zero_support() {
        let idx = index();
        assert_eq!(idx.support("quantum flux reactors overheat"), 0.0);
        assert!(idx
            .best_evidence("quantum flux reactors overheat")
            .is_none());
    }

    #[test]
    fn retrieval_is_deterministic_and_ranked() {
        let idx = index();
        let a = idx.retrieve("Bob", 5);
        let b = idx.retrieve("Bob", 5);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn rare_words_weigh_more_than_common() {
        let mut idx = EvidenceIndex::new();
        idx.add("the cat sat on the mat");
        idx.add("the dog sat on the rug");
        idx.add("the cat chased the dog");
        // "mat" is rarer than "sat": a query with "mat" should prefer s0
        let hits = idx.retrieve("mat sat", 3);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn empty_index_supports_nothing() {
        let idx = EvidenceIndex::new();
        assert_eq!(idx.support("anything"), 0.0);
        assert!(idx.retrieve("anything", 3).is_empty());
    }
}
