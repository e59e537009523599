//! Seeded inputs: corpora from `gks-datagen` and query sets enumerated
//! from a built index. The same seed gives the same inputs; the engine
//! only ever sees the generated XML and query strings.

use gks_core::query::Query;
use gks_core::search::{SearchOptions, Threshold};
use gks_datagen::{bio, dblp, mondial, nasa, treebank};
use gks_dewey::DeweyId;
use gks_index::{Corpus, GksIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A keyword holds at most this many postings to count as selective.
pub const SELECTIVE_MAX_POSTINGS: usize = 64;

/// Derives an independent sub-seed (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One DBLP-like document of `articles` records, with its authors in
/// cluster order (five consecutive names co-publish). Authors come from
/// many small clusters, so an author phrase has tens of postings across
/// the corpus, not thousands.
pub fn dblp_doc(articles: usize, seed: u64) -> (String, Vec<String>) {
    let config = dblp::Config { articles, clusters: (articles / 8).max(4), ..Default::default() };
    let out = dblp::generate(&config, seed);
    (out.xml, out.clusters.into_iter().flatten().collect())
}

/// The `ingest` corpus: 16 documents of five shapes — DBLP (flat and
/// wide), TreeBank (depth ~31), Mondial (payload in attributes),
/// SwissProt and NASA. `scale` 1.0 is about 1.7 MB.
pub fn mixed_corpus(seed: u64, scale: f64) -> Vec<(String, String)> {
    let n = |base: usize| ((base as f64 * scale) as usize).max(2);
    let mut docs = Vec::with_capacity(16);
    for i in 0..16u64 {
        let s = sub_seed(seed, i);
        let (kind, xml) = match i % 5 {
            0 => ("dblp", dblp_doc(n(560), s).0),
            1 => {
                let config = treebank::Config { sentences: n(320), ..Default::default() };
                ("treebank", treebank::generate(&config, s).xml)
            }
            2 => {
                let config = mondial::Config { countries: n(76), ..Default::default() };
                ("mondial", mondial::generate(&config, s).xml)
            }
            3 => {
                let config = bio::SwissProtConfig { entries: n(135) };
                ("swissprot", bio::generate_swissprot(&config, s).xml)
            }
            _ => ("nasa", nasa::generate(&nasa::Config { datasets: n(135) }, s).xml),
        };
        docs.push((format!("d{i:02}-{kind}"), xml));
    }
    docs
}

/// The query, serve and update corpus: `docs` DBLP-like documents of
/// `articles` records each, named so that sorted file order is document
/// order, plus every author planted (cluster order, duplicates kept out).
pub fn dblp_corpus(
    seed: u64,
    docs: usize,
    articles: usize,
) -> (Vec<(String, String)>, Vec<String>) {
    let mut authors: Vec<String> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let docs = (0..docs as u64)
        .map(|i| {
            let (xml, planted) = dblp_doc(articles, sub_seed(seed, i));
            authors.extend(planted.into_iter().filter(|a| seen.insert(a.clone())));
            (format!("d{i:03}"), xml)
        })
        .collect();
    (docs, authors)
}

pub fn corpus_of(docs: &[(String, String)]) -> Corpus {
    Corpus::from_named_strs(docs.iter().map(|(n, x)| (n.as_str(), x.as_str())))
        .expect("generated corpora are never empty")
}

/// One query: the text `Query::parse` takes and the threshold spelling
/// shared by the CLI and `?s=`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    pub text: String,
    pub s: &'static str,
    /// Sum of the keywords' posting counts.
    pub sl_len: usize,
}

impl QuerySpec {
    pub fn parse(&self) -> Query {
        Query::parse(&self.text).expect("generated queries parse")
    }

    pub fn options(&self, limit: usize) -> SearchOptions {
        SearchOptions { s: Threshold::parse(self.s).expect("known spelling"), limit }
    }
}

/// Every term of a built (in-memory) index that can be typed as a query
/// keyword, with its posting count, sorted by term so that draws repeat
/// across runs. A stem the analyzer would stem further (`inproceed`) is
/// left out: as a keyword it would name another term.
pub fn term_counts(index: &GksIndex) -> Vec<(String, usize)> {
    let analyzer = index.analyzer();
    let mut terms: Vec<(String, usize)> = index
        .inverted()
        .iter()
        .filter(|(t, _): &(&str, &[DeweyId])| analyzer.normalize_term(t).as_deref() == Some(*t))
        .map(|(t, p)| (t.to_string(), p.len()))
        .collect();
    terms.sort();
    terms
}

/// The selective keyword pool: quoted author phrases (cluster order
/// kept, so neighbours co-publish) followed by single rare terms, each
/// with at most [`SELECTIVE_MAX_POSTINGS`] postings and at least one.
pub fn selective_keywords(
    index: &GksIndex,
    terms: &[(String, usize)],
    authors: &[String],
) -> Vec<(String, usize)> {
    let mut pool: Vec<(String, usize)> = Vec::new();
    for author in authors {
        let query = Query::from_keywords([author.as_str()]).expect("one keyword");
        let keyword = &query.normalized(index.analyzer())[0];
        let count = gks_core::postlist::keyword_postings(index, keyword).len();
        if (1..=SELECTIVE_MAX_POSTINGS).contains(&count) {
            pool.push((format!("\"{author}\""), count));
        }
    }
    pool.extend(
        terms
            .iter()
            .filter(|(t, c)| *c <= SELECTIVE_MAX_POSTINGS && t.len() >= 2)
            .cloned(),
    );
    pool
}

/// `n` selective queries over a [`selective_keywords`] pool: |Q| ∈
/// {2,4,6,8}, s ∈ {1, half, all} in equal shares, and 5 % carry one
/// keyword the corpus lacks. Every second keyword comes from the
/// neighbourhood of one anchor (co-authors, or terms of nearby records),
/// so answers are not all single-keyword hits; the rest are uniform over
/// the whole pool, so the touched-term set is the whole rare dictionary.
pub fn selective_queries(rare: &[(String, usize)], seed: u64, n: usize) -> Vec<QuerySpec> {
    assert!(rare.len() >= 64, "corpus too small: {} selective keywords", rare.len());
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x5e1));
    (0..n)
        .map(|i| {
            let len = [2, 4, 6, 8][i % 4];
            let s = ["1", "half", "all"][(i / 4) % 3];
            let anchor = rng.gen_range(0..rare.len());
            let mut words: Vec<&str> = Vec::with_capacity(len);
            let mut sl_len = 0;
            while words.len() < len {
                let pick = if words.len().is_multiple_of(2) {
                    rng.gen_range(0..rare.len())
                } else {
                    (anchor + rng.gen_range(0..8usize)) % rare.len()
                };
                let (term, count) = &rare[pick];
                if !words.contains(&term.as_str()) {
                    words.push(term);
                    sl_len += count;
                }
            }
            let mut text = words.join(" ");
            if rng.gen_range(0..100u32) < 5 {
                text.push_str(&format!(" zzabsent{i}"));
            }
            QuerySpec { text, s, sl_len }
        })
        .collect()
}

/// 24 heavy queries over the most frequent terms (tag names, years,
/// common title words): |Q| cycles through 1..=8, target |SL| grows
/// geometrically from `sl_min` to `sl_max`, s alternates 1 and half.
/// Sorted by |SL| ascending.
pub fn heavy_queries(terms: &[(String, usize)], sl_min: usize, sl_max: usize) -> Vec<QuerySpec> {
    // Counts fall off a cliff below the shared vocabulary (names, years,
    // venue and title words); a tenth of the smallest target keeps the
    // long tail of rare terms out.
    let mut frequent: Vec<&(String, usize)> =
        terms.iter().filter(|(t, c)| t.len() >= 2 && *c * 10 >= sl_min).collect();
    frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut out: Vec<QuerySpec> = (0..24usize)
        .map(|i| {
            let len = 1 + i % 8;
            let target = sl_min as f64 * (sl_max as f64 / sl_min as f64).powf(i as f64 / 23.0);
            let per_keyword = target / len as f64;
            // The `len` terms whose counts are nearest the per-keyword
            // share, skipping `i` positions so queries differ in terms.
            let mut by_distance: Vec<&(String, usize)> = frequent.clone();
            by_distance.sort_by(|a, b| {
                let da = (a.1 as f64 - per_keyword).abs();
                let db = (b.1 as f64 - per_keyword).abs();
                da.total_cmp(&db).then(a.0.cmp(&b.0))
            });
            let chosen: Vec<&(String, usize)> =
                by_distance.iter().skip(i % 3).take(len).copied().collect();
            QuerySpec {
                text: chosen.iter().map(|(t, _)| t.as_str()).collect::<Vec<_>>().join(" "),
                s: if i % 2 == 0 { "1" } else { "half" },
                sl_len: chosen.iter().map(|(_, c)| c).sum(),
            }
        })
        .collect();
    out.sort_by(|a, b| a.sl_len.cmp(&b.sl_len).then(a.text.cmp(&b.text)));
    out
}

/// Rank sampler over `0..n` with weight `1 / (rank + 1)` (Zipf, s = 1).
#[derive(Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n.max(1))
            .map(|rank| {
                total += 1.0 / (rank + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let target = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= target).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_index::IndexOptions;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(mixed_corpus(7, 0.02), mixed_corpus(7, 0.02));
        assert_ne!(mixed_corpus(7, 0.02), mixed_corpus(8, 0.02));
        let (docs, authors) = dblp_corpus(3, 2, 120);
        assert_eq!((docs.clone(), authors.clone()), dblp_corpus(3, 2, 120));
        let index = GksIndex::build(&corpus_of(&docs), IndexOptions::default()).unwrap();
        let pool = selective_keywords(&index, &term_counts(&index), &authors);
        let a = selective_queries(&pool, 3, 40);
        assert_eq!(a, selective_queries(&pool, 3, 40));
        assert_ne!(a, selective_queries(&pool, 4, 40));
    }

    #[test]
    fn query_sets_have_the_documented_shape() {
        let (docs, authors) = dblp_corpus(1, 2, 300);
        let index = GksIndex::build(&corpus_of(&docs), IndexOptions::default()).unwrap();
        let terms = term_counts(&index);
        let pool = selective_keywords(&index, &terms, &authors);
        assert!(pool.iter().any(|(k, _)| k.starts_with('"')), "author phrases in the pool");
        let selective = selective_queries(&pool, 1, 120);
        for (i, q) in selective.iter().enumerate() {
            let absent = usize::from(q.text.contains("zzabsent"));
            let words = q.parse().len() - absent;
            assert_eq!(words, [2, 4, 6, 8][i % 4]);
            assert!(q.sl_len <= words * SELECTIVE_MAX_POSTINGS);
        }
        assert!(selective.iter().any(|q| q.text.contains("zzabsent")));
        let heavy = heavy_queries(&terms, 200, 2_000);
        assert_eq!(heavy.len(), 24);
        assert!(heavy.windows(2).all(|w| w[0].sl_len <= w[1].sl_len));
        assert!(heavy[23].sl_len > 4 * heavy[0].sl_len);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(100);
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..2_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 100));
        let first = draws.iter().filter(|&&r| r == 0).count();
        let last = draws.iter().filter(|&&r| r >= 50).count();
        assert!(first > 250 && first > last / 2, "{first} vs {last}");
    }
}
