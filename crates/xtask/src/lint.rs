//! The GKS-specific lint rules and the driver loop.
//!
//! Rules (ids as they appear in diagnostics and `lint-allow.toml`):
//!
//! * `no-panic` — library crates (`xml`, `dewey`, `text`, `index`, `core`)
//!   must not call `.unwrap()` / `.expect(..)` / `panic!` / `unreachable!` /
//!   `todo!` / `unimplemented!` outside `#[cfg(test)]` modules. A single
//!   out-of-order Dewey id silently corrupts SLCA/ELCA answers, so library
//!   code must surface corruption as typed errors, not process aborts.
//! * `no-truncating-cast` — in the Dewey-bearing crates (`dewey`, `index`,
//!   `core`), `as u8` / `as u16` / `as i8` / `as i16` casts on lines that
//!   mention Dewey component identifiers (step/doc/label/ordinal/depth) are
//!   flagged unless the value is visibly masked on the same line; a
//!   truncated step reorders posting lists without any error.
//! * `pub-fn-docs` — every `pub fn` in `gks-core` and `gks-index` carries a
//!   doc comment. These two crates are the API surface later PRs refactor
//!   against.
//! * `no-process-exit` — `std::process::exit` is reserved for the `cli`
//!   crate; a library that exits the process cannot be embedded in a
//!   server.
//! * `no-raw-timing` — `cli`, `core`, and `server` must not call
//!   `Instant::now()` directly: timing routed through `gks-trace` spans lands in the
//!   aggregated histograms, the trace ring, and the logs, while a raw
//!   stopwatch is invisible to every sink. The few genuinely out-of-band
//!   sites (the accept-loop deadline anchor, the client-side loadgen
//!   harness) are allowlisted with reasons.
//! * `no-eager-decode-in-open` — the index open path (`persist.rs`,
//!   `postings.rs` in `gks-index`) must not slurp shard files with
//!   `fs::read` / `read_to_string` / `read_to_end`: index opens are
//!   O(dictionary) because the file is served off an mmap and posting
//!   blocks decode lazily, and one eager read would silently regress every
//!   shard open back to O(file).
//! * `no-dewey-keyed-hash` — `gks-index` must not key a hash table by a
//!   Dewey id (`FastMap`/`HashMap`/`FastSet`/`HashSet` whose key type names
//!   `DeweyId` anywhere, tuples included) outside `#[cfg(test)]` modules. A
//!   Dewey id is already the path from its document root, so the node table
//!   follows its steps through a child index instead; a hash over ids puts an
//!   insert per node back into every build and every open.
//!
//! Tests, benches, `datagen`, the offline dependency shims, and this driver
//! itself are exempt by construction (they are not in the scanned set).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::allow::Allowlist;
use crate::scan::{scan_file, Line};
use crate::Violation;

/// Crates whose `src/` must be panic-free. The server joins the list: a
/// panicking worker thread silently shrinks the pool, and the tracer (which
/// runs inside every instrumented call) must never take a request down.
const PANIC_FREE: &[&str] = &["xml", "dewey", "text", "index", "core", "server", "trace"];
/// Crates checked for truncating casts on Dewey component types. The server
/// is deliberately absent: its sources mention `doctor`, which the `doc`
/// marker would false-positive on, and it never manipulates raw Dewey steps.
const CAST_CHECKED: &[&str] = &["dewey", "index", "core"];
/// Crates whose public functions must be documented.
const DOC_REQUIRED: &[&str] = &["core", "index", "server", "trace"];
/// Crates scanned for `process::exit` (everything buildable except `cli`).
const EXIT_CHECKED: &[&str] = &[
    "xml",
    "dewey",
    "text",
    "index",
    "core",
    "baselines",
    "datagen",
    "bench",
    "server",
    "trace",
];
/// Crates where wall-clock reads must flow through `gks-trace`.
const TIMING_CHECKED: &[&str] = &["cli", "core", "server"];
/// Crates whose index open path must stay eager-read free.
const EAGER_DECODE_CHECKED: &[&str] = &["index"];
/// The open-path files within those crates: everything between a `.gksix`
/// path and a searchable index. Other `gks-index` files (the corpus
/// scanner, the delta planner) legitimately read source XML.
const OPEN_PATH_FILES: &[&str] = &["src/persist.rs", "src/postings.rs"];
/// Crates that must not hash Dewey ids.
const DEWEY_HASH_CHECKED: &[&str] = &["index"];

/// Prints which crates each rule covers (`cargo xtask lint --crates`), one
/// `rule: crate crate …` line per rule. CI greps this to assert new crates
/// actually joined the scanned set instead of trusting the docs.
pub fn print_coverage() {
    for (rule, crates) in [
        ("no-panic", PANIC_FREE),
        ("no-truncating-cast", CAST_CHECKED),
        ("pub-fn-docs", DOC_REQUIRED),
        ("no-process-exit", EXIT_CHECKED),
        ("no-raw-timing", TIMING_CHECKED),
        ("no-eager-decode-in-open", EAGER_DECODE_CHECKED),
        ("no-dewey-keyed-hash", DEWEY_HASH_CHECKED),
    ] {
        println!("{rule}: {}", crates.join(" "));
    }
}

/// Runs every rule; returns the process exit code.
pub fn run(root: &Path, verbose: bool) -> ExitCode {
    let allow_path = root.join("crates/xtask/lint-allow.toml");
    let allowlist = Allowlist::load(&allow_path);
    if !allowlist.errors.is_empty() {
        eprintln!("error: malformed {}:", allow_path.display());
        for e in &allowlist.errors {
            eprintln!("  {e}");
        }
        return ExitCode::FAILURE;
    }

    let mut violations = Vec::new();
    let mut allowed = vec![0usize; allowlist.entries.len()];
    let mut files_scanned = 0usize;

    for krate in crate_union() {
        let src = root.join("crates").join(krate).join("src");
        for file in rust_files(&src) {
            files_scanned += 1;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
            let Ok(text) = std::fs::read_to_string(&file) else {
                violations.push(Violation {
                    path: rel,
                    line: 0,
                    rule: "io",
                    message: "unreadable source file".into(),
                });
                continue;
            };
            let lines = scan_file(&text);
            let mut file_violations = Vec::new();
            if PANIC_FREE.contains(&krate) {
                check_no_panic(&rel, &lines, &mut file_violations);
            }
            if CAST_CHECKED.contains(&krate) {
                check_truncating_casts(&rel, &lines, &mut file_violations);
            }
            if DOC_REQUIRED.contains(&krate) {
                check_pub_fn_docs(&rel, &lines, &mut file_violations);
            }
            if EXIT_CHECKED.contains(&krate) {
                check_process_exit(&rel, &lines, &mut file_violations);
            }
            if TIMING_CHECKED.contains(&krate) {
                check_raw_timing(&rel, &lines, &mut file_violations);
            }
            if EAGER_DECODE_CHECKED.contains(&krate) {
                check_eager_decode(&rel, &lines, &mut file_violations);
            }
            if DEWEY_HASH_CHECKED.contains(&krate) {
                check_dewey_keyed_hash(&rel, &lines, &mut file_violations);
            }
            for v in file_violations {
                let (code, raw) = lines
                    .get(v.line.saturating_sub(1))
                    .map(|l| (l.code.as_str(), l.raw.as_str()))
                    .unwrap_or(("", ""));
                match allowlist.matches(v.rule, &v.path, code, raw) {
                    Some(i) => allowed[i] += 1,
                    None => violations.push(v),
                }
            }
        }
    }

    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    for v in &violations {
        println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
    }

    // Entries for the analyze rules are invisible to this pass; only
    // lint-rule entries can meaningfully be "unused" here (the analyze
    // driver and `--check-stale` keep the rest honest).
    let lint_rules = [
        "no-panic",
        "no-truncating-cast",
        "pub-fn-docs",
        "no-process-exit",
        "no-raw-timing",
        "no-eager-decode-in-open",
        "no-dewey-keyed-hash",
    ];
    let mut unused = 0usize;
    for (entry, hits) in allowlist.entries.iter().zip(&allowed) {
        if !lint_rules.contains(&entry.rule.as_str()) {
            continue;
        }
        if *hits == 0 {
            unused += 1;
            eprintln!(
                "warning: unused allowlist entry (line {}): rule={} path={} pattern={:?}",
                entry.defined_at, entry.rule, entry.path, entry.pattern
            );
        } else if verbose {
            eprintln!("allow: {} x{} {} ({})", entry.rule, hits, entry.path, entry.reason);
        }
    }

    let suppressed: usize = allowed.iter().sum();
    eprintln!(
        "xtask lint: {} file(s) scanned, {} violation(s), {} suppressed by allowlist ({} entries, {} unused)",
        files_scanned,
        violations.len(),
        suppressed,
        allowlist.entries.len(),
        unused,
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every crate any rule applies to.
fn crate_union() -> Vec<&'static str> {
    let mut all: Vec<&'static str> = PANIC_FREE
        .iter()
        .chain(CAST_CHECKED)
        .chain(DOC_REQUIRED)
        .chain(EXIT_CHECKED)
        .chain(TIMING_CHECKED)
        .copied()
        .collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Checks that every `lint-allow.toml` entry still matches a source line
/// (`cargo xtask lint --check-stale`): the named file must exist in the
/// scanned tree, and a non-empty `pattern` must still appear in it. Stale
/// entries fail the run so the allowlist cannot outlive the code it
/// excuses.
pub fn run_check_stale(root: &Path) -> ExitCode {
    let allow_path = root.join("crates/xtask/lint-allow.toml");
    let allowlist = Allowlist::load(&allow_path);
    if !allowlist.errors.is_empty() {
        eprintln!("error: malformed {}:", allow_path.display());
        for e in &allowlist.errors {
            eprintln!("  {e}");
        }
        return ExitCode::FAILURE;
    }

    // Every file any rule could scan (the lint crates cover the analyze
    // crates, so one union suffices).
    let mut sources: Vec<(String, String)> = Vec::new();
    for krate in crate_union() {
        let src = root.join("crates").join(krate).join("src");
        for file in rust_files(&src) {
            let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
            if let Ok(text) = std::fs::read_to_string(&file) {
                sources.push((rel, text));
            }
        }
    }

    let mut stale = 0usize;
    for entry in &allowlist.entries {
        let matching: Vec<&(String, String)> = sources
            .iter()
            .filter(|(rel, _)| rel == &entry.path || rel.ends_with(&entry.path))
            .collect();
        let ok = if matching.is_empty() {
            false
        } else if entry.pattern.is_empty() {
            true // whole-file entries only require the file to exist
        } else {
            matching
                .iter()
                .any(|(_, text)| text.lines().any(|l| l.contains(&entry.pattern)))
        };
        if !ok {
            stale += 1;
            eprintln!(
                "stale allowlist entry (line {}): rule={} path={} pattern={:?} — {}",
                entry.defined_at,
                entry.rule,
                entry.path,
                entry.pattern,
                if matching.is_empty() {
                    "no scanned file matches the path"
                } else {
                    "pattern no longer appears in the file"
                }
            );
        }
    }
    eprintln!(
        "xtask lint --check-stale: {} entr{} checked, {} stale",
        allowlist.entries.len(),
        if allowlist.entries.len() == 1 {
            "y"
        } else {
            "ies"
        },
        stale,
    );
    if stale == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

const PANIC_PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()` in library crate — return a typed error instead"),
    (".expect(", "`.expect(..)` in library crate — return a typed error instead"),
    ("panic!", "`panic!` in library crate — return a typed error instead"),
    (
        "unreachable!",
        "`unreachable!` in library crate — make the state unrepresentable or return an error",
    ),
    ("todo!", "`todo!` in library crate"),
    ("unimplemented!", "`unimplemented!` in library crate"),
];

fn check_no_panic(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        for (pattern, message) in PANIC_PATTERNS {
            for start in match_indices_outside_idents(&line.code, pattern) {
                // Bang macros must be actual invocations — `panic!(..)`,
                // `unreachable!{..}` — not prefixes of longer macro names.
                if pattern.ends_with('!') {
                    let rest = &line.code[start + pattern.len()..];
                    if !(rest.starts_with('(') || rest.starts_with('[') || rest.starts_with('{')) {
                        continue;
                    }
                }
                out.push(Violation {
                    path: path.to_string(),
                    line: i + 1,
                    rule: "no-panic",
                    message: (*message).to_string(),
                });
                break; // one diagnostic per pattern per line
            }
        }
    }
}

/// Identifiers that mark a line as handling Dewey components.
const DEWEY_MARKERS: &[&str] = &["step", "doc", "dewey", "label", "ordinal", "depth"];
const NARROW_CASTS: &[&str] = &["as u8", "as u16", "as i8", "as i16"];

fn check_truncating_casts(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        let lower = line.code.to_lowercase();
        if !DEWEY_MARKERS.iter().any(|m| lower.contains(m)) {
            continue;
        }
        for cast in NARROW_CASTS {
            if let Some(pos) = find_cast(&line.code, cast) {
                // A visible mask on the same line bounds the value; that is
                // the idiomatic LEB128 pattern and is not a truncation bug.
                let before = &line.code[..pos];
                if before.contains("& 0x") || before.contains("&0x") {
                    continue;
                }
                out.push(Violation {
                    path: path.to_string(),
                    line: i + 1,
                    rule: "no-truncating-cast",
                    message: format!(
                        "`{cast}` on a line handling Dewey components — a truncated \
                         step/doc id reorders posting lists silently; use `try_from` \
                         or widen the type"
                    ),
                });
            }
        }
    }
}

fn check_pub_fn_docs(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        let trimmed = line.code.trim_start();
        let is_pub_fn = ["pub fn ", "pub const fn ", "pub unsafe fn ", "pub async fn "]
            .iter()
            .any(|p| trimmed.starts_with(p));
        if !is_pub_fn {
            continue;
        }
        // Walk upward over attributes and blank lines to the nearest
        // substantive line; it must be a doc comment.
        let mut j = i;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let above = &lines[j];
            let t = above.raw.trim_start();
            if above.is_doc {
                documented = true;
                break;
            }
            if t.starts_with("#[") || t.starts_with("#!") || t.ends_with(']') && t.starts_with(')')
            {
                continue; // attribute (possibly the tail of a multi-line one)
            }
            if t.is_empty() {
                break; // blank line separates any docs from the item
            }
            break;
        }
        if !documented {
            let name = fn_name(trimmed);
            out.push(Violation {
                path: path.to_string(),
                line: i + 1,
                rule: "pub-fn-docs",
                message: format!(
                    "public function `{name}` has no doc comment — gks-core/gks-index \
                     are the API surface; document contract and errors"
                ),
            });
        }
    }
}

fn check_process_exit(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        if line.code.contains("process::exit") {
            out.push(Violation {
                path: path.to_string(),
                line: i + 1,
                rule: "no-process-exit",
                message: "`std::process::exit` outside the cli crate — return an error \
                          and let the caller decide"
                    .to_string(),
            });
        }
    }
}

fn check_raw_timing(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        if line.code.contains("Instant::now") {
            out.push(Violation {
                path: path.to_string(),
                line: i + 1,
                rule: "no-raw-timing",
                message: "`Instant::now()` outside gks-trace — open a `gks_trace::span` \
                          (or read `Span::elapsed_micros`) so the measurement reaches \
                          the histograms, the trace ring, and the logs"
                    .to_string(),
            });
        }
    }
}

/// Whole-file reads that would drag a shard open back to O(file).
const EAGER_READ_PATTERNS: &[&str] = &["fs::read(", "fs::read_to_string(", "read_to_end("];

fn check_eager_decode(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    if !OPEN_PATH_FILES.iter().any(|f| path.ends_with(f)) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        for pattern in EAGER_READ_PATTERNS {
            if line.code.contains(pattern) {
                out.push(Violation {
                    path: path.to_string(),
                    line: i + 1,
                    rule: "no-eager-decode-in-open",
                    message: format!(
                        "`{}` in the index open path — an open must stay \
                         O(dictionary): serve the file off the mmap and let posting \
                         blocks decode lazily",
                        pattern.trim_end_matches('(')
                    ),
                });
                break; // one diagnostic per line
            }
        }
    }
}

/// Hash containers whose key type the `no-dewey-keyed-hash` rule reads.
const HASH_CONTAINERS: &[&str] = &["FastMap<", "HashMap<", "FastSet<", "HashSet<"];

fn check_dewey_keyed_hash(path: &str, lines: &[Line], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        let code: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        let keyed_by_dewey = HASH_CONTAINERS.iter().any(|container| {
            code.match_indices(container).any(|(at, _)| {
                let key = first_generic_arg(&code[at + container.len()..]);
                key.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .any(|tok| tok == "DeweyId")
            })
        });
        if keyed_by_dewey {
            out.push(Violation {
                path: path.to_string(),
                line: i + 1,
                rule: "no-dewey-keyed-hash",
                message: "hash table keyed by a Dewey id — walk the id's steps through the \
                          node table's child index (`NodeTable::row`) instead"
                    .to_string(),
            });
        }
    }
}

/// The first generic argument at the start of `rest`: the text up to the `,`
/// or `>` that ends it, stepping over nested `<>`, `()` and `[]` so a tuple
/// or generic key is read whole.
fn first_generic_arg(rest: &str) -> &str {
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            ')' | ']' => depth = depth.saturating_sub(1),
            ',' | '>' if depth == 0 => return &rest[..i],
            '>' => depth -= 1,
            _ => {}
        }
    }
    rest
}

/// Extracts the function name from a `pub fn ...` line for diagnostics.
fn fn_name(decl: &str) -> &str {
    let after = decl
        .trim_start_matches("pub ")
        .trim_start_matches("const ")
        .trim_start_matches("unsafe ")
        .trim_start_matches("async ")
        .trim_start_matches("fn ");
    let end = after.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(after.len());
    &after[..end]
}

/// Occurrences of `needle` in `haystack` that are not part of a longer
/// identifier (so `panic!` does not match `is_panicking!`, and `.unwrap()`
/// does not match `.unwrap_or()` because the needle includes punctuation).
fn match_indices_outside_idents(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let first_is_ident = needle.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
    for (pos, _) in haystack.match_indices(needle) {
        if first_is_ident {
            let before = haystack[..pos].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue; // rejects `my_panic!`-style longer identifiers
            }
        }
        out.push(pos);
    }
    out
}

/// Finds a narrowing cast, requiring a word boundary after the type name so
/// `as u8` does not match `as u80` (not a real type, but be strict).
fn find_cast(code: &str, cast: &str) -> Option<usize> {
    for (pos, _) in code.match_indices(cast) {
        let after = code[pos + cast.len()..].chars().next();
        if after.is_none_or(|c| !(c.is_alphanumeric() || c == '_')) {
            return Some(pos);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_file;

    fn run_rule(
        src: &str,
        rule: fn(&str, &[Line], &mut Vec<Violation>),
    ) -> Vec<(usize, &'static str)> {
        let lines = scan_file(src);
        let mut out = Vec::new();
        rule("test.rs", &lines, &mut out);
        out.into_iter().map(|v| (v.line, v.rule)).collect()
    }

    #[test]
    fn no_panic_flags_real_sites_only() {
        let src = "\
fn a() { x.unwrap(); }
fn b() { x.unwrap_or(0); }
fn c() { x.expect(\"boom\"); }
// x.unwrap() in a comment
let s = \"panic!\";
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
";
        let hits = run_rule(src, check_no_panic);
        assert_eq!(hits, vec![(1, "no-panic"), (3, "no-panic")]);
    }

    #[test]
    fn truncating_cast_needs_dewey_marker_and_no_mask() {
        let src = "\
let a = step as u16;
let b = value as u16;
let c = (step & 0x7f) as u8;
let d = doc_id.0 as i16;
";
        let hits = run_rule(src, check_truncating_casts);
        assert_eq!(hits, vec![(1, "no-truncating-cast"), (4, "no-truncating-cast")]);
    }

    #[test]
    fn pub_fn_docs_checks_attributes_and_blanks() {
        let src = "\
/// Documented.
pub fn good() {}

/// Documented through an attribute.
#[inline]
pub fn good_attr() {}

pub fn bad() {}

fn private_ok() {}
";
        let hits = run_rule(src, check_pub_fn_docs);
        assert_eq!(hits, vec![(8, "pub-fn-docs")]);
    }

    #[test]
    fn process_exit_flagged() {
        let src = "fn f() { std::process::exit(2); }\n";
        let hits = run_rule(src, check_process_exit);
        assert_eq!(hits, vec![(1, "no-process-exit")]);
    }

    #[test]
    fn eager_decode_fires_in_open_path_files_only() {
        // The firing fixture: every forbidden whole-file read, in a file on
        // the open path.
        let src = "\
fn load(path: &Path) { let bytes = fs::read(path); }
fn load2(path: &Path) { let text = fs::read_to_string(path); }
fn load3(mut f: File) { f.read_to_end(&mut buf); }
fn ok(map: &Mmap) { let dict = &map.as_slice()[off..]; }
#[cfg(test)]
mod tests {
    fn t(path: &Path) { let bytes = fs::read(path); }
}
";
        let lines = scan_file(src);
        let mut out = Vec::new();
        check_eager_decode("crates/index/src/persist.rs", &lines, &mut out);
        let hits: Vec<(usize, &str)> = out.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(
            hits,
            vec![
                (1, "no-eager-decode-in-open"),
                (2, "no-eager-decode-in-open"),
                (3, "no-eager-decode-in-open"),
            ]
        );
        // The same source outside the open path is none of this rule's
        // business (the delta planner reads corpus XML with fs::read).
        let mut elsewhere = Vec::new();
        check_eager_decode("crates/index/src/delta.rs", &lines, &mut elsewhere);
        assert!(elsewhere.is_empty());
    }

    #[test]
    fn dewey_keyed_hash_flagged_outside_tests_only() {
        let src = "\
struct T { rows: FastMap<gks_dewey::DeweyId, NodeMeta> }
fn f() { let s: std::collections::HashSet< &DeweyId > = HashSet::new(); }
fn g() { let m: FastMap<String, DeweyId> = FastMap::default(); }
// FastMap<DeweyId, u32> in a comment
fn h(m: FastMap<(DeweyId, u32), Vec<u8>>) {}
fn i(s: FastSet<(DocId, DeweyId)>) {}
fn k(m: FastMap<(DocId, Vec<u32>), DeweyId>) {}
fn p(m: FastMap<Box<[gks_dewey::DeweyId]>, u32>) {}
#[cfg(test)]
mod tests {
    fn t() { let m: HashMap<DeweyId, u64> = HashMap::new(); }
}
";
        let hits = run_rule(src, check_dewey_keyed_hash);
        assert_eq!(
            hits,
            vec![
                (1, "no-dewey-keyed-hash"),
                (2, "no-dewey-keyed-hash"),
                (5, "no-dewey-keyed-hash"),
                (6, "no-dewey-keyed-hash"),
                (8, "no-dewey-keyed-hash"),
            ]
        );
    }

    #[test]
    fn raw_timing_flagged_outside_tests_only() {
        let src = "\
fn f() { let t = Instant::now(); }
fn g() { let span = gks_trace::span(SpanKind::Parse); }
// Instant::now() in a comment
#[cfg(test)]
mod tests {
    fn t() { let t = Instant::now(); }
}
";
        let hits = run_rule(src, check_raw_timing);
        assert_eq!(hits, vec![(1, "no-raw-timing")]);
    }
}
