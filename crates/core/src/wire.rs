//! The JSON wire format shared by `gks search/suggest --json` and the
//! `gks-serve` HTTP endpoints.
//!
//! Serialization is hand-rolled on `std::fmt::Write`: the workspace builds
//! offline with no serialization framework, and the format is small and
//! fixed. Two properties are load-bearing and covered by tests:
//!
//! * **Stable field names** — scripts, the loadgen verifier, and the server's
//!   cache all key off this shape; renaming a field is a wire break.
//! * **Determinism** — the same index + query + options always produce the
//!   same bytes. Wall-clock timings are deliberately *excluded* from the
//!   body (the server reports elapsed time in an `x-gks-micros` response
//!   header instead), so a cached body is byte-identical to a freshly
//!   computed one. The result-cache property test relies on this.
//!
//! A search body is written straight into its output buffer: each hit's
//! path is walked up the parent column from the hit's node-table row
//! ([`Hit::row`], in the engine that answered it) and escaped in place,
//! its node id and counts written digit by digit rather than through `fmt`,
//! and its matched keywords read off the keyword mask. No per-hit `String`
//! or `Vec` is built. String literals copy each run that needs no escape
//! whole.

use std::fmt::Write as _;

use gks_index::NodeTable;

use crate::cost::CostLedger;
use crate::di::Insight;
use crate::engine::Engine;
use crate::refine::Refinement;
use crate::search::{Hit, HitKind, Response};
use crate::shard::ShardedResponse;

/// Appends `s` to `out` as a JSON string literal (quotes included), escaping
/// per RFC 8259: `"`, `\`, and control characters below `U+0020`. Runs that
/// need no escape are copied whole; every escaped character is ASCII, so a
/// run always ends on a character boundary.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(s.get(run..i).unwrap_or_default());
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
}

/// Appends `n` in decimal, as `write!(out, "{n}")` would, without going
/// through `fmt`.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
}

/// Appends a JSON array of strings to `out`.
pub fn push_json_str_array(out: &mut String, items: impl IntoIterator<Item = impl AsRef<str>>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, item.as_ref());
    }
    out.push(']');
}

/// Appends an `f64` as a JSON number. Rust's shortest-roundtrip `{}`
/// formatting is deterministic and valid JSON for finite values; non-finite
/// values (which no ranking path produces) degrade to `null` rather than
/// emitting the invalid tokens `NaN`/`inf`.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Serializes a search response as one deterministic JSON object.
///
/// Shape (stable, shared with `GET /search`):
///
/// ```json
/// {"query":["karen","mike"],"s":2,"sl_len":9,"total_hits":1,
///  "hits":[{"node":"0:1.2","path":["uni","course"],"kind":"lce",
///           "rank":3.0,"keywords":2,"matched":["karen","mike"]}],
///  "missing":[]}
/// ```
///
/// `hits` is already truncated to the request's `limit`; `total_hits` is the
/// length of the returned list (not the pre-truncation count, which the
/// engine does not retain). `missing` lists keywords with zero postings.
pub fn search_response_json(engine: &Engine, response: &Response) -> String {
    let mut labels = Vec::new();
    write_search_response(response, |_, hit, out| {
        push_row_path(out, engine.index().node_table(), hit.row, &mut labels);
    })
}

/// The sharded variant of [`search_response_json`]: byte-identical output
/// to the unsharded renderer on the equivalent monolithic engine. Each
/// hit's `path` is walked from its row in its owning shard, while the
/// `node` field keeps the merged response's global id.
pub fn search_response_json_sharded(shards: &[&Engine], sharded: &ShardedResponse) -> String {
    let mut labels = Vec::new();
    write_search_response(sharded.response(), |i, hit, out| match shards.get(sharded.origin(i)) {
        Some(engine) => push_row_path(out, engine.index().node_table(), hit.row, &mut labels),
        None => out.push_str("[]"),
    })
}

/// Appends the `path` array of the node at `row`: the labels from its
/// document root down to it, walked up the parent column into `labels`
/// (scratch reused across hits) and written root first.
fn push_row_path(out: &mut String, table: &NodeTable, row: u32, labels: &mut Vec<u32>) {
    labels.clear();
    let mut at = Some(row);
    while let Some(meta) = at.and_then(|row| table.meta(row)) {
        labels.push(meta.label);
        at = at.and_then(|row| table.parent(row));
    }
    push_json_str_array(out, labels.iter().rev().map(|&l| table.labels().name(l)));
}

/// The search body, written straight into one buffer: `push_path` appends
/// hit `i`'s `path` array.
fn write_search_response(
    response: &Response,
    mut push_path: impl FnMut(usize, &Hit, &mut String),
) -> String {
    let keywords = response.keywords();
    let mut out = String::with_capacity(256 + response.hits().len() * 128);
    out.push_str("{\"query\":");
    push_json_str_array(&mut out, keywords.iter().map(|k| k.raw()));
    out.push_str(",\"s\":");
    push_decimal(&mut out, response.s() as u64);
    out.push_str(",\"sl_len\":");
    push_decimal(&mut out, response.sl_len() as u64);
    out.push_str(",\"total_hits\":");
    push_decimal(&mut out, response.hits().len() as u64);
    out.push_str(",\"hits\":[");
    for (i, hit) in response.hits().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // A Dewey id prints as digits, `:` and `.`: nothing to escape.
        out.push_str("{\"node\":\"");
        push_decimal(&mut out, u64::from(hit.node.doc().0));
        out.push(':');
        for (j, &step) in hit.node.steps().iter().enumerate() {
            if j > 0 {
                out.push('.');
            }
            push_decimal(&mut out, u64::from(step));
        }
        out.push_str("\",\"path\":");
        push_path(i, hit, &mut out);
        out.push_str(match hit.kind {
            HitKind::Lce => ",\"kind\":\"lce\",\"rank\":",
            HitKind::Lcp => ",\"kind\":\"lcp\",\"rank\":",
        });
        push_json_f64(&mut out, hit.rank);
        out.push_str(",\"keywords\":");
        push_decimal(&mut out, u64::from(hit.keyword_count));
        out.push_str(",\"matched\":");
        push_json_str_array(&mut out, hit.matched(keywords));
        out.push('}');
    }
    out.push_str("],\"missing\":");
    let missing = response.missing_keyword_indices().iter().filter_map(|&i| keywords.get(i));
    push_json_str_array(&mut out, missing.map(|k| k.raw()));
    out.push('}');
    out
}

/// The explain variant of [`search_response_json`]: the same body with a
/// cost breakdown appended (see [`append_cost_explain`]).
pub fn search_response_json_explained(engine: &Engine, response: &Response) -> String {
    let mut out = search_response_json(engine, response);
    append_cost_explain(&mut out, response, &[]);
    out
}

/// Splices the `explain=1` cost breakdown into an already-rendered search
/// body: three fields appended before the closing brace —
///
/// ```json
/// ,"cost":{"postings_scanned":9,…,"per_keyword":[4,5]},
///  "cost_keywords":[{"keyword":"karen","postings":4},…],
///  "shard_costs":[{…},{…}]
/// ```
///
/// `cost_keywords` pairs each keyword spelling with its (masked) posting-list
/// length; `shard_costs` carries one ledger per shard in shard order (empty
/// for unsharded runs). Cost counters are work counts, not timings, so the
/// explain body stays deterministic — the gathered `"cost"` object on a
/// sharded run is byte-identical to the unsharded engine's (the shard-sum
/// property [`CostLedger::add`] documents), which the equivalence proptests
/// assert.
pub fn append_cost_explain(out: &mut String, response: &Response, shard_costs: &[CostLedger]) {
    let closing = out.pop();
    debug_assert_eq!(closing, Some('}'), "explain splices into a rendered JSON object");
    let cost = response.cost();
    out.push_str(",\"cost\":");
    cost.write_json(out);
    out.push_str(",\"cost_keywords\":[");
    for (i, keyword) in response.keywords().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"keyword\":");
        push_json_str(out, keyword.raw());
        let postings = cost.per_keyword.get(i).copied().unwrap_or(0);
        let _ = write!(out, ",\"postings\":{postings}}}");
    }
    out.push_str("],\"shard_costs\":[");
    for (i, shard) in shard_costs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        shard.write_json(out);
    }
    out.push_str("]}");
}

/// Serializes refinement suggestions plus their DI as one deterministic JSON
/// object (stable, shared with `GET /suggest`):
///
/// ```json
/// {"query":[...],"sub_queries":[[...]],"partition":[[...]],
///  "unmatched":[...],"morphs":[[...]],
///  "insights":[{"value":"Data Mining","path":["course","name"],
///               "weight":3.0,"support":1}]}
/// ```
pub fn suggest_response_json(
    response: &Response,
    refinement: &Refinement,
    insights: &[Insight],
) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"query\":");
    push_json_str_array(&mut out, response.keywords().iter().map(|k| k.raw()));
    let push_nested = |out: &mut String, name: &str, groups: &[Vec<String>]| {
        let _ = write!(out, ",\"{name}\":[");
        for (i, group) in groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str_array(out, group);
        }
        out.push(']');
    };
    push_nested(&mut out, "sub_queries", &refinement.sub_queries);
    push_nested(&mut out, "partition", &refinement.partition);
    out.push_str(",\"unmatched\":");
    push_json_str_array(&mut out, &refinement.unmatched);
    push_nested(&mut out, "morphs", &refinement.morphs);
    out.push_str(",\"insights\":[");
    for (i, insight) in insights.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"value\":");
        push_json_str(&mut out, &insight.value);
        out.push_str(",\"path\":");
        push_json_str_array(&mut out, &insight.path);
        out.push_str(",\"weight\":");
        push_json_f64(&mut out, insight.weight);
        out.push_str(",\"support\":");
        push_decimal(&mut out, insight.support as u64);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Serializes one catalog index's doctor report over every shard of the
/// index as one deterministic JSON object (stable, shared with
/// `GET /doctor`):
///
/// ```json
/// {"index":"dblp","healthy":true,"violations":[],"nodes":12,"terms":34,"postings":56}
/// ```
///
/// `healthy` is the conjunction over the shards and `extra`, and `nodes`/
/// `terms`/`postings` are per-shard sums. With more than one shard each
/// violation carries a `shard-<i>:` prefix naming the shard it was found
/// in; a set of one reports its violations bare. `extra` holds findings
/// about the set as a whole (the server passes its manifest audit's),
/// appended verbatim after the shards' own.
pub fn doctor_entry_json(name: &str, shards: &[&Engine], extra: &[String]) -> String {
    let mut violations = Vec::new();
    let (mut nodes, mut terms, mut postings) = (0u64, 0u64, 0u64);
    for (i, engine) in shards.iter().enumerate() {
        for violation in engine.index().doctor() {
            violations.push(if shards.len() > 1 {
                format!("shard-{i}: {violation}")
            } else {
                violation.to_string()
            });
        }
        let stats = engine.index().stats();
        nodes += stats.total_nodes;
        terms += stats.distinct_terms;
        postings += stats.total_postings;
    }
    violations.extend_from_slice(extra);
    let mut out = String::with_capacity(128 + name.len());
    out.push_str("{\"index\":");
    push_json_str(&mut out, name);
    let _ = write!(out, ",\"healthy\":{}", violations.is_empty());
    out.push_str(",\"violations\":");
    push_json_str_array(&mut out, &violations);
    let _ = write!(out, ",\"nodes\":{nodes},\"terms\":{terms},\"postings\":{postings}}}");
    out
}

/// Serializes a whole-catalog doctor report from per-index entries produced
/// by [`doctor_entry_json`]:
///
/// ```json
/// {"healthy":true,"indexes":[{"index":"a",…},{"index":"b",…}]}
/// ```
///
/// The top-level `healthy` is the conjunction over the entries, read back
/// from the deterministic serialized form (every entry carries exactly one
/// `"healthy":` field).
pub fn catalog_doctor_json(entries: &[String]) -> String {
    let healthy = entries.iter().all(|e| e.contains("\"healthy\":true"));
    let mut out = String::with_capacity(32 + entries.iter().map(String::len).sum::<usize>());
    let _ = write!(out, "{{\"healthy\":{healthy},\"indexes\":[");
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(entry);
    }
    out.push_str("]}");
    out
}

/// Serializes the `POST /admin/reload` response: which index was swapped and
/// the identity transition —
/// `{"index":"dblp","identity_before":7,"identity_after":9,"changed":true}`.
pub fn reload_response_json(name: &str, identity_before: u64, identity_after: u64) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"index\":");
    push_json_str(&mut out, name);
    let _ = write!(
        out,
        ",\"identity_before\":{identity_before},\"identity_after\":{identity_after},\
         \"changed\":{}}}",
        identity_before != identity_after
    );
    out
}

/// Serializes the `POST /admin/compact` response. `stats` is
/// `(epoch, base_shards, docs, removed_files)` when deltas were folded,
/// `None` when the index was already fully compacted —
/// `{"index":"dblp","compacted":true,"epoch":4,"base_shards":2,"docs":10,"removed_files":3}`
/// or `{"index":"dblp","compacted":false}`.
pub fn compact_response_json(name: &str, stats: Option<(u64, usize, usize, usize)>) -> String {
    let mut out = String::with_capacity(112);
    out.push_str("{\"index\":");
    push_json_str(&mut out, name);
    match stats {
        Some((epoch, base_shards, docs, removed_files)) => {
            let _ = write!(
                out,
                ",\"compacted\":true,\"epoch\":{epoch},\"base_shards\":{base_shards},\
                 \"docs\":{docs},\"removed_files\":{removed_files}}}"
            );
        }
        None => out.push_str(",\"compacted\":false}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::di::DiOptions;
    use crate::query::Query;
    use crate::search::SearchOptions;
    use gks_index::{Corpus, IndexOptions};

    #[test]
    fn decimals_match_fmt() {
        for n in [0, 7, 9, 10, 99, 100, 4_294_967_295, 10_000_000_000, u64::MAX] {
            let mut out = String::from("x");
            push_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    fn engine() -> Engine {
        let xml = "<courses>\
            <course><name>Mining</name><students>\
                <student>Karen</student><student>Mike</student></students></course>\
            <course><name>AI</name><students>\
                <student>Karen</student><student>John</student></students></course>\
        </courses>";
        let corpus = Corpus::from_named_strs([("uni", xml)]).unwrap();
        Engine::build(&corpus, IndexOptions::default()).unwrap()
    }

    #[test]
    fn string_escaping() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}e");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001e\"");
    }

    #[test]
    fn f64_formatting() {
        let mut out = String::new();
        push_json_f64(&mut out, 3.0);
        out.push(' ');
        push_json_f64(&mut out, 2.5);
        out.push(' ');
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "3 2.5 null");
    }

    #[test]
    fn search_json_shape_and_determinism() {
        let e = engine();
        let q = Query::parse("karen mike zzznothing").unwrap();
        let r1 = e.search(&q, SearchOptions::with_s(2)).unwrap();
        let r2 = e.search(&q, SearchOptions::with_s(2)).unwrap();
        let j1 = search_response_json(&e, &r1);
        let j2 = search_response_json(&e, &r2);
        assert_eq!(j1, j2, "same query must serialize to identical bytes");
        assert!(j1.starts_with("{\"query\":[\"karen\",\"mike\",\"zzznothing\"]"), "{j1}");
        assert!(j1.contains("\"kind\":\"lce\""), "{j1}");
        assert!(j1.contains("\"missing\":[\"zzznothing\"]"), "{j1}");
        assert!(j1.contains("\"path\":[\"courses\",\"course\"]"), "{j1}");
        // No timing field: determinism is the cache's correctness argument.
        assert!(!j1.contains("micros"), "{j1}");
    }

    #[test]
    fn explain_body_extends_the_plain_body() {
        let e = engine();
        let q = Query::parse("karen mike").unwrap();
        let r = e.search(&q, SearchOptions::with_s(2)).unwrap();
        let plain = search_response_json(&e, &r);
        let explained = search_response_json_explained(&e, &r);
        // The explain body is the plain body plus appended cost fields — a
        // strict superset, so non-explain consumers are unaffected.
        assert!(explained.starts_with(plain.trim_end_matches('}')), "{explained}");
        assert!(explained.contains("\"cost\":{\"postings_scanned\":"), "{explained}");
        assert!(explained.contains("\"cost_keywords\":[{\"keyword\":\"karen\",\"postings\":"));
        assert!(explained.ends_with("\"shard_costs\":[]}"), "{explained}");
        // Still no timing field: cost counters are work, not wall-clock.
        assert!(!explained.contains("micros"), "{explained}");
        let again = search_response_json_explained(&e, &r);
        assert_eq!(explained, again, "explain bodies are deterministic");
    }

    #[test]
    fn suggest_and_doctor_json_shape() {
        let e = engine();
        let q = Query::parse("karen zzznothing").unwrap();
        let r = e.search(&q, SearchOptions::with_s(1)).unwrap();
        let di = e.discover_di(&r, &DiOptions::default());
        let refinement = e.refine(&r, &di);
        let j = suggest_response_json(&r, &refinement, &di);
        assert!(j.contains("\"sub_queries\":[[\"karen\"]]"), "{j}");
        assert!(j.contains("\"unmatched\":[\"zzznothing\"]"), "{j}");
        assert!(j.contains("\"insights\":["), "{j}");

        let d = doctor_entry_json("x", &[&e], &[]);
        assert!(d.starts_with("{\"index\":\"x\",\"healthy\":true,\"violations\":[]"), "{d}");
        let sick = doctor_entry_json("x", &[&e], &["manifest: orphan".to_string()]);
        assert!(
            sick.contains("\"healthy\":false,\"violations\":[\"manifest: orphan\"]"),
            "{sick}"
        );
    }

    #[test]
    fn catalog_doctor_json_shapes() {
        let e = engine();
        let entry = doctor_entry_json("dblp", &[&e], &[]);
        assert!(entry.starts_with("{\"index\":\"dblp\",\"healthy\":true"), "{entry}");
        // Two shards: counts are per-shard sums, the shape is unchanged.
        let pair = doctor_entry_json("dblp", &[&e, &e], &[]);
        let nodes = e.index().stats().total_nodes;
        assert!(pair.contains(&format!("\"violations\":[],\"nodes\":{}", 2 * nodes)), "{pair}");

        let all = catalog_doctor_json(&[entry.clone(), doctor_entry_json("nasa", &[&e], &[])]);
        assert!(all.starts_with("{\"healthy\":true,\"indexes\":[{\"index\":\"dblp\""), "{all}");
        assert!(all.contains("{\"index\":\"nasa\""), "{all}");

        // One sick entry flips the conjunction.
        let sick = entry.replace("\"healthy\":true", "\"healthy\":false");
        let mixed = catalog_doctor_json(&[entry, sick]);
        assert!(mixed.starts_with("{\"healthy\":false"), "{mixed}");
    }

    #[test]
    fn reload_json_reports_identity_transition() {
        let j = reload_response_json("dblp", 7, 9);
        assert_eq!(
            j,
            "{\"index\":\"dblp\",\"identity_before\":7,\"identity_after\":9,\"changed\":true}"
        );
        let same = reload_response_json("dblp", 7, 7);
        assert!(same.ends_with("\"changed\":false}"), "{same}");
    }
}
