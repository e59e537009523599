//! A lightweight per-function concurrency model built on the token scanner.
//!
//! The model is deliberately *textual*: it reuses [`crate::scan`]'s stripped
//! code view (comments and string contents blanked, `#[cfg(test)]` regions
//! excluded) and a small tokenizer — no `syn`, no type information. For each
//! crate it records:
//!
//! * **lock declarations** — struct fields, statics, and `let` bindings
//!   whose type (or initializer) is `Mutex<..>` / `RwLock<..>`, identified
//!   as `<crate>/<file-stem>.<name>` (e.g. `server/catalog.slots`);
//! * **functions** — name, span, parameters (flagging lock-typed ones),
//!   whether the return type hands a guard or a `&Mutex`/`&RwLock` back to
//!   the caller, and an ordered list of **events** inside the body:
//!   acquisitions (`.lock()` / `.read()` / `.write()` with *empty* argument
//!   lists, so `stream.read(&mut buf)` never matches), calls, blocking
//!   operations, and thread spawns, each with a guard live range.
//!
//! Guard liveness is block-scoped: a `let`-bound guard lives until its
//! enclosing block closes (or an `if let` / `while let` body closes, for
//! scrutinee bindings), an unbound acquisition lives to the end of its
//! statement, and `drop(guard)` ends a range early (handled by the rule
//! walk in [`crate::analyze`]). The model's limits are documented in
//! `docs/ANALYSIS.md`.

use std::path::Path;

use crate::scan::{scan_file, Line};

/// One token of the stripped code view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier, keyword, or number literal.
    Ident(String),
    /// A single punctuation character.
    Punct(char),
}

/// A token plus its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// Which method acquired a guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqMethod {
    /// `Mutex::lock`.
    Lock,
    /// `RwLock::read`.
    Read,
    /// `RwLock::write`.
    Write,
}

impl AcqMethod {
    /// The method name as it appears in source.
    pub fn name(self) -> &'static str {
        match self {
            AcqMethod::Lock => "lock",
            AcqMethod::Read => "read",
            AcqMethod::Write => "write",
        }
    }
}

/// A declared lock: a struct field, static, or local whose type is
/// `Mutex`/`RwLock`.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Stable identity: `<crate>/<file-stem>.<name>`.
    pub id: String,
    /// The field/static/local name.
    pub name: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based declaration line.
    pub line: usize,
    /// True for `RwLock`, false for `Mutex`.
    pub rw: bool,
}

/// A lock acquisition site inside a function body.
#[derive(Debug, Clone)]
pub struct AcqEvent {
    /// Last identifier of the receiver chain (`self.file.lock()` → `file`).
    pub receiver: String,
    /// Which method fired.
    pub method: AcqMethod,
    /// Token index of the method name (orders events within the body).
    pub idx: usize,
    /// 1-based source line.
    pub line: usize,
    /// `let` binding holding the guard, if any.
    pub binding: Option<String>,
    /// Token index at which the guard dies (block close or statement end).
    pub live_end: usize,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// The called identifier (`lock_shard(..)` / `.get(..)` → `get`).
    pub callee: String,
    /// True when written as a `path::segment` call — those resolve to
    /// std/foreign items in this codebase and are skipped by the
    /// crate-local call graph.
    pub qualified: bool,
    /// The path segment right before the callee, when qualified
    /// (`mpsc::channel` → `mpsc`).
    pub path_prefix: Option<String>,
    /// Identifiers appearing in each top-level argument, in order.
    pub arg_idents: Vec<Vec<String>>,
    /// Token index of the callee identifier.
    pub idx: usize,
    /// 1-based source line.
    pub line: usize,
    /// `let` binding receiving the call result, if any.
    pub binding: Option<String>,
    /// Token index where a guard returned by the callee would die.
    pub live_end: usize,
}

/// A blocking operation (I/O, accept, join, recv, sleep).
#[derive(Debug, Clone)]
pub struct BlockingEvent {
    /// Short description for diagnostics (e.g. `File/stream write_all`).
    pub what: String,
    /// Token index.
    pub idx: usize,
    /// 1-based source line.
    pub line: usize,
}

/// A thread spawn / scope creation site.
#[derive(Debug, Clone)]
pub struct SpawnEvent {
    /// Short description for diagnostics (e.g. `thread::spawn`).
    pub what: String,
    /// Token index.
    pub idx: usize,
    /// 1-based source line.
    pub line: usize,
}

/// Everything the rules need about one event, in body order.
#[derive(Debug, Clone)]
pub enum Event {
    /// A lock acquisition.
    Acq(AcqEvent),
    /// A function/method call.
    Call(CallEvent),
    /// A blocking operation.
    Blocking(BlockingEvent),
    /// A thread spawn.
    Spawn(SpawnEvent),
}

impl Event {
    /// Token index, for ordering.
    pub fn idx(&self) -> usize {
        match self {
            Event::Acq(e) => e.idx,
            Event::Call(e) => e.idx,
            Event::Blocking(e) => e.idx,
            Event::Spawn(e) => e.idx,
        }
    }
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter name (`_` and `self` receivers are skipped).
    pub name: String,
    /// True when the declared type mentions `Mutex<`/`RwLock<`.
    pub is_lock: bool,
}

/// The model of a single function body.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// Function name (methods are recorded by bare name).
    pub name: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// Return type hands a guard to the caller (`MutexGuard`,
    /// `RwLock*Guard`, or the `Tracked` wrapper).
    pub returns_guard: bool,
    /// Return type is a `&Mutex`/`&RwLock` (a lock *reference* accessor).
    pub returns_lock_ref: bool,
    /// Ordered events in the body.
    pub events: Vec<Event>,
}

/// Everything modeled about one source file.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Workspace-relative path.
    pub path: String,
    /// File stem (`catalog` for `catalog.rs`), used in lock identities.
    pub stem: String,
    /// Scanned lines (for allowlist matching in the driver).
    pub lines: Vec<Line>,
    /// Locks declared in this file.
    pub decls: Vec<LockDecl>,
    /// Functions defined in this file.
    pub fns: Vec<FnModel>,
}

/// The model of one crate's `src/` tree.
#[derive(Debug, Clone)]
pub struct CrateModel {
    /// Crate directory name under `crates/`.
    pub name: String,
    /// Per-file models, sorted by path.
    pub files: Vec<FileModel>,
}

impl CrateModel {
    /// All lock declarations in the crate.
    pub fn decls(&self) -> impl Iterator<Item = &LockDecl> {
        self.files.iter().flat_map(|f| f.decls.iter())
    }
}

/// Builds the model for `crates/<name>/src` under `root`. Missing crates
/// produce an empty model (the caller reports coverage separately).
pub fn build_crate(root: &Path, name: &str) -> CrateModel {
    let src = root.join("crates").join(name).join("src");
    let mut files = Vec::new();
    for file in crate::lint::rust_files(&src) {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        files.push(build_file(name, &rel, &text));
    }
    CrateModel { name: name.to_string(), files }
}

/// Builds a [`FileModel`] from source text (exposed for tests).
pub fn build_file(krate: &str, rel_path: &str, text: &str) -> FileModel {
    let lines = scan_file(text);
    let stem = Path::new(rel_path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let decls = find_lock_decls(krate, rel_path, &stem, &lines);
    let tokens = tokenize(&lines);
    let fns = find_fns(rel_path, &tokens);
    FileModel { path: rel_path.to_string(), stem, lines, decls, fns }
}

/// Tokenizes the stripped code view, skipping `#[cfg(test)]` regions.
pub fn tokenize(lines: &[Line]) -> Vec<Token> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        let chars: Vec<char> = line.code.chars().collect();
        let mut j = 0;
        while j < chars.len() {
            let c = chars[j];
            if c.is_alphanumeric() || c == '_' {
                let start = j;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let word: String = chars[start..j].iter().collect();
                out.push(Token { tok: Tok::Ident(word), line: i + 1 });
            } else if c.is_whitespace() {
                j += 1;
            } else {
                out.push(Token { tok: Tok::Punct(c), line: i + 1 });
                j += 1;
            }
        }
    }
    out
}

/// True if the token is the identifier `s`.
fn is_ident(t: Option<&Token>, s: &str) -> bool {
    matches!(t, Some(Token { tok: Tok::Ident(w), .. }) if w == s)
}

/// True if the token is the punctuation `c`.
fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t, Some(Token { tok: Tok::Punct(p), .. }) if *p == c)
}

/// Finds lock declarations: statics, struct fields, and `let` locals.
fn find_lock_decls(krate: &str, rel_path: &str, stem: &str, lines: &[Line]) -> Vec<LockDecl> {
    let mut decls = Vec::new();
    let mut depth: i64 = 0;
    // Depth just *inside* each currently-open struct body.
    let mut struct_body_depths: Vec<i64> = Vec::new();
    let mut pending_struct = false;
    for (i, line) in lines.iter().enumerate() {
        if line.in_test_mod {
            continue;
        }
        let code = line.code.as_str();
        let trimmed = code.trim_start();
        let mentions_lock = code.contains("Mutex<") || code.contains("RwLock<");
        let is_static = trimmed.starts_with("static ") || trimmed.starts_with("pub static ");
        let in_struct_body = struct_body_depths.last() == Some(&depth) && code.contains(':');
        // `let` locals initialized straight from a constructor.
        if trimmed.contains("let ")
            && (code.contains("Mutex::new(") || code.contains("RwLock::new("))
        {
            if let Some(name) = let_binding_name(code) {
                decls.push(LockDecl {
                    id: format!("{krate}/{stem}.{name}"),
                    name,
                    path: rel_path.to_string(),
                    line: i + 1,
                    rw: code.contains("RwLock::new("),
                });
            }
        } else if mentions_lock && (is_static || in_struct_body) && !trimmed.starts_with("fn ") {
            if let Some(name) = field_name(code) {
                decls.push(LockDecl {
                    id: format!("{krate}/{stem}.{name}"),
                    name,
                    path: rel_path.to_string(),
                    line: i + 1,
                    rw: code.contains("RwLock<"),
                });
            }
        }
        // Track struct bodies so field lines are only matched inside them.
        if (trimmed.starts_with("struct ")
            || trimmed.starts_with("pub struct ")
            || trimmed.starts_with("pub(crate) struct "))
            && code.contains('{')
        {
            pending_struct = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_struct {
                        struct_body_depths.push(depth);
                        pending_struct = false;
                    }
                }
                '}' => {
                    if struct_body_depths.last() == Some(&depth) {
                        struct_body_depths.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        if pending_struct && code.contains(';') {
            pending_struct = false; // tuple struct `struct X(..);`
        }
    }
    // Identical names in one file collapse to one identity; keep the first.
    decls.dedup_by(|a, b| a.name == b.name);
    decls
}

/// `name` from a field/static line `name: Mutex<..>` (first ident before
/// the first `:`).
fn field_name(code: &str) -> Option<String> {
    let before = code.split(':').next()?;
    before
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .rfind(|w| !matches!(*w, "pub" | "crate" | "static" | "mut" | "ref"))
        .map(str::to_string)
}

/// Binding name from a `let` line: first lowercase-ish ident after `let`
/// (skipping `mut` and constructor patterns like `Ok(` / `Some(`).
fn let_binding_name(code: &str) -> Option<String> {
    let pos = code.find("let ")?;
    let after = &code[pos + 4..];
    let stop = after.find('=').unwrap_or(after.len());
    after[..stop]
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .find(|w| {
            *w != "mut" && !w.chars().next().is_some_and(|c| c.is_uppercase() || c.is_numeric())
        })
        .map(str::to_string)
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "loop", "else", "let", "fn", "move",
    "impl", "where", "dyn", "ref", "mut", "box", "await", "unsafe",
];

/// Splits the token stream into functions and models each body.
fn find_fns(rel_path: &str, tokens: &[Token]) -> Vec<FnModel> {
    // Precompute the matching close index for every `{`.
    let mut close_of = vec![usize::MAX; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.tok {
            Tok::Punct('{') => stack.push(i),
            Tok::Punct('}') => {
                if let Some(open) = stack.pop() {
                    close_of[open] = i;
                }
            }
            _ => {}
        }
    }

    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_ident(tokens.get(i), "fn") {
            if let Some(Token { tok: Tok::Ident(name), line }) = tokens.get(i + 1) {
                // Find the body `{` (or a `;` for trait declarations),
                // tracking parens and angle brackets in the header.
                let mut j = i + 2;
                let mut paren: i64 = 0;
                let mut body_open = None;
                while let Some(t) = tokens.get(j) {
                    match t.tok {
                        Tok::Punct('(') => paren += 1,
                        Tok::Punct(')') => paren -= 1,
                        Tok::Punct('{') if paren == 0 => {
                            body_open = Some(j);
                            break;
                        }
                        Tok::Punct(';') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(open) = body_open {
                    let close = close_of[open];
                    if close != usize::MAX {
                        let (params, returns_guard, returns_lock_ref) =
                            parse_header(&tokens[i..open]);
                        let events = model_body(tokens, open, close, &close_of);
                        fns.push(FnModel {
                            name: name.clone(),
                            path: rel_path.to_string(),
                            line: *line,
                            params,
                            returns_guard,
                            returns_lock_ref,
                            events,
                        });
                        // Continue *inside* the body too: nested fns are
                        // rare, and their events would otherwise vanish.
                        i += 2;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    fns
}

/// Parses a header slice `[fn .. {` exclusive) into params and return
/// classification.
fn parse_header(header: &[Token]) -> (Vec<Param>, bool, bool) {
    // Locate the parameter list: first `(` at angle-depth 0 after the name.
    let mut angle: i64 = 0;
    let mut params_open = None;
    for (k, t) in header.iter().enumerate().skip(2) {
        match t.tok {
            Tok::Punct('<') => angle += 1,
            // `->` in a generic bound (`Fn() -> T`) is not a closer.
            Tok::Punct('>')
                if !matches!(
                    header.get(k.wrapping_sub(1)),
                    Some(Token { tok: Tok::Punct('-'), .. })
                ) =>
            {
                angle -= 1;
            }
            Tok::Punct('(') if angle == 0 => {
                params_open = Some(k);
                break;
            }
            _ => {}
        }
    }
    let Some(open) = params_open else {
        return (Vec::new(), false, false);
    };
    // Split the param list at top-level commas.
    let mut depth: i64 = 0;
    let mut end = header.len();
    let mut arg_start = open + 1;
    let mut params = Vec::new();
    let mut k = open;
    while k < header.len() {
        match header[k].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    push_param(&header[arg_start..k], &mut params);
                    end = k;
                    break;
                }
            }
            Tok::Punct(',') if depth == 1 => {
                push_param(&header[arg_start..k], &mut params);
                arg_start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    // Classify the return type (tokens after the param list).
    let ret = &header[end..];
    let guard_names = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard", "Tracked"];
    let returns_guard = ret
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(w) if guard_names.contains(&w.as_str())));
    let returns_lock_ref = !returns_guard
        && ret
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(w) if w == "Mutex" || w == "RwLock"));
    (params, returns_guard, returns_lock_ref)
}

/// Records one parameter from its token slice.
fn push_param(slice: &[Token], params: &mut Vec<Param>) {
    if slice.is_empty() || slice.iter().any(|t| matches!(&t.tok, Tok::Ident(w) if w == "self")) {
        return;
    }
    let name = slice.iter().find_map(|t| match &t.tok {
        Tok::Ident(w) if w != "mut" && w != "ref" => Some(w.clone()),
        _ => None,
    });
    let Some(name) = name else { return };
    let is_lock = slice
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(w) if w == "Mutex" || w == "RwLock"));
    params.push(Param { name, is_lock });
}

/// Blocking method patterns: `.name(` — `true` requires empty args.
const BLOCKING_METHODS: &[(&str, bool, &str)] = &[
    ("accept", true, "TcpListener::accept"),
    ("join", true, "JoinHandle::join"),
    ("recv", true, "channel recv"),
    ("recv_timeout", false, "channel recv_timeout"),
    ("write_all", false, "File/stream write_all"),
    ("read_exact", false, "stream read_exact"),
    ("read_to_end", false, "stream read_to_end"),
    ("read_to_string", false, "stream read_to_string"),
    ("flush", true, "File/stream flush"),
    ("sync_all", true, "File sync_all"),
    ("write_to", false, "response write to socket"),
];

/// Blocking path patterns: `a::b`.
const BLOCKING_PATHS: &[(&str, &str, &str)] = &[
    ("thread", "sleep", "thread::sleep"),
    ("fs", "read", "fs::read"),
    ("fs", "write", "fs::write"),
    ("fs", "read_to_string", "fs::read_to_string"),
    ("File", "open", "File::open"),
    ("File", "create", "File::create"),
    ("TcpStream", "connect", "TcpStream::connect"),
    ("TcpStream", "connect_timeout", "TcpStream::connect_timeout"),
    ("UdpSocket", "bind", "UdpSocket::bind"),
];

/// Crate-local helpers that read/write sockets; called unqualified.
const BLOCKING_LOCAL_FNS: &[(&str, &str)] = &[("read_request", "read_request (socket read)")];

/// Models one function body into an ordered event list.
fn model_body(tokens: &[Token], open: usize, close: usize, close_of: &[usize]) -> Vec<Event> {
    let mut events: Vec<Event> = Vec::new();
    // Pending `let` binding: (name, depth, saw a guard-relevant `=` yet).
    let mut binding: Option<String> = None;
    let mut binding_depth: i64 = 0;
    // Once an `if let`/`while let` body opens, the binding's live range is
    // that block; for plain `let` it is the enclosing block.
    let mut depth: i64 = 0;
    // Enclosing block close index at each depth (stack of `{` indexes).
    let mut block_close: Vec<usize> = vec![close];

    let mut i = open + 1;
    while i < close {
        let t = &tokens[i];
        match &t.tok {
            Tok::Punct('{') => {
                depth += 1;
                let c = close_of.get(i).copied().unwrap_or(close).min(close);
                block_close.push(c);
                // An `{` before the `;` closes an `if let`/`while let`
                // condition: the binding lives exactly for this block.
                if let Some(name) = binding.take() {
                    retarget_binding(&mut events, &name, c);
                }
            }
            Tok::Punct('}') => {
                depth -= 1;
                block_close.pop();
            }
            Tok::Punct(';') => {
                if binding.is_some() && depth == binding_depth {
                    binding = None;
                }
                // Unbound acquisitions die at their statement end.
                for e in &mut events {
                    if let Event::Acq(a) = e {
                        if a.binding.is_none() && a.live_end == usize::MAX && a.idx < i {
                            a.live_end = i;
                        }
                    }
                    if let Event::Call(c) = e {
                        if c.binding.is_none() && c.live_end == usize::MAX && c.idx < i {
                            c.live_end = i;
                        }
                    }
                }
            }
            Tok::Ident(w) if w == "let" => {
                binding = let_name_from_tokens(&tokens[i + 1..close.min(i + 12)]);
                binding_depth = depth;
            }
            Tok::Ident(w) if w == "fn" => {
                // Nested fn: skip its header so params don't read as calls;
                // its body is modeled separately by `find_fns`.
            }
            Tok::Ident(w) => {
                let next_is_open = is_punct(tokens.get(i + 1), '(');
                let prev_dot = is_punct(tokens.get(i.wrapping_sub(1)), '.');
                let prev_colon = is_punct(tokens.get(i.wrapping_sub(1)), ':');
                if next_is_open && prev_dot && matches!(w.as_str(), "lock" | "read" | "write") {
                    // Acquisition requires an *empty* argument list.
                    if is_punct(tokens.get(i + 2), ')') {
                        let method = match w.as_str() {
                            "lock" => AcqMethod::Lock,
                            "read" => AcqMethod::Read,
                            _ => AcqMethod::Write,
                        };
                        let receiver = receiver_ident(tokens, i - 1);
                        let live_end = match &binding {
                            Some(_) => *block_close.last().unwrap_or(&close),
                            None => usize::MAX, // patched at the next `;`
                        };
                        events.push(Event::Acq(AcqEvent {
                            receiver,
                            method,
                            idx: i,
                            line: t.line,
                            binding: binding.clone(),
                            live_end,
                        }));
                        i += 3;
                        continue;
                    }
                }
                // Blocking methods.
                if next_is_open && prev_dot {
                    for (name, needs_empty, what) in BLOCKING_METHODS {
                        if w == name && (!needs_empty || is_punct(tokens.get(i + 2), ')')) {
                            events.push(Event::Blocking(BlockingEvent {
                                what: (*what).to_string(),
                                idx: i,
                                line: t.line,
                            }));
                        }
                    }
                }
                // Blocking paths and spawns (`a :: b`).
                if next_is_open && prev_colon && is_punct(tokens.get(i.wrapping_sub(2)), ':') {
                    if let Some(Token { tok: Tok::Ident(prefix), .. }) =
                        tokens.get(i.wrapping_sub(3))
                    {
                        for (pre, name, what) in BLOCKING_PATHS {
                            if prefix == pre && w == name {
                                events.push(Event::Blocking(BlockingEvent {
                                    what: (*what).to_string(),
                                    idx: i,
                                    line: t.line,
                                }));
                            }
                        }
                        if (prefix == "thread" && (w == "spawn" || w == "scope"))
                            || (w == "spawn" && prefix == "Builder")
                        {
                            events.push(Event::Spawn(SpawnEvent {
                                what: format!("{prefix}::{w}"),
                                idx: i,
                                line: t.line,
                            }));
                        }
                    }
                }
                // `.spawn(` — scoped or builder spawns.
                if next_is_open && prev_dot && w == "spawn" {
                    events.push(Event::Spawn(SpawnEvent {
                        what: ".spawn".to_string(),
                        idx: i,
                        line: t.line,
                    }));
                }
                if next_is_open && !prev_dot {
                    for (name, what) in BLOCKING_LOCAL_FNS {
                        if w == name {
                            events.push(Event::Blocking(BlockingEvent {
                                what: (*what).to_string(),
                                idx: i,
                                line: t.line,
                            }));
                        }
                    }
                }
                // Generic call event (for the crate-local call graph).
                if next_is_open && !CALL_KEYWORDS.contains(&w.as_str()) {
                    let (arg_idents, after) = parse_args(tokens, i + 1, close);
                    let path_prefix = if prev_colon {
                        match tokens.get(i.wrapping_sub(3)) {
                            Some(Token { tok: Tok::Ident(p), .. }) => Some(p.clone()),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    let live_end = match &binding {
                        Some(_) => *block_close.last().unwrap_or(&close),
                        None => usize::MAX,
                    };
                    events.push(Event::Call(CallEvent {
                        callee: w.clone(),
                        qualified: prev_colon,
                        path_prefix,
                        arg_idents,
                        idx: i,
                        line: t.line,
                        binding: binding.clone(),
                        live_end,
                    }));
                    let _ = after;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Events still unpatched at the body close die there.
    for e in &mut events {
        match e {
            Event::Acq(a) if a.live_end == usize::MAX => a.live_end = close,
            Event::Call(c) if c.live_end == usize::MAX => c.live_end = close,
            _ => {}
        }
    }
    events.sort_by_key(Event::idx);
    events
}

/// Rewrites the live range of events bound to `name` (used when an
/// `if let`/`while let` body turns out to scope the binding).
fn retarget_binding(events: &mut [Event], name: &str, live_end: usize) {
    for e in events.iter_mut().rev() {
        match e {
            Event::Acq(a) if a.binding.as_deref() == Some(name) => a.live_end = live_end,
            Event::Call(c) if c.binding.as_deref() == Some(name) => c.live_end = live_end,
            _ => {}
        }
    }
}

/// Binding name from the tokens after `let`: first non-`mut`, non-pattern
/// identifier (skips `Ok` / `Some` constructors by case).
fn let_name_from_tokens(tokens: &[Token]) -> Option<String> {
    for t in tokens {
        match &t.tok {
            Tok::Punct('=') => return None,
            Tok::Ident(w) => {
                if w == "mut" || w == "ref" {
                    continue;
                }
                if w.chars().next().is_some_and(|c| c.is_uppercase() || c.is_numeric()) {
                    continue; // `Ok(..)` / `Some(..)` pattern constructor
                }
                return Some(w.clone());
            }
            _ => {}
        }
    }
    None
}

/// Walks backwards from the `.` before a lock method to the last receiver
/// field (`self.shards[i].loaded.read()` → `loaded`).
fn receiver_ident(tokens: &[Token], dot_idx: usize) -> String {
    let mut k = dot_idx; // tokens[k] is the `.`
    loop {
        if k == 0 {
            return String::new();
        }
        k -= 1;
        match &tokens[k].tok {
            Tok::Ident(w) if w != "self" => return w.clone(),
            Tok::Ident(_) => return String::new(), // bare `self.lock()`
            Tok::Punct(']') | Tok::Punct(')') => {
                // Skip the bracket group, then expect the field before it.
                let closer = if tokens[k].tok == Tok::Punct(']') {
                    (']', '[')
                } else {
                    (')', '(')
                };
                let mut depth = 1;
                while depth > 0 && k > 0 {
                    k -= 1;
                    match &tokens[k].tok {
                        Tok::Punct(c) if *c == closer.0 => depth += 1,
                        Tok::Punct(c) if *c == closer.1 => depth -= 1,
                        _ => {}
                    }
                }
            }
            Tok::Punct('.') => {}
            _ => return String::new(),
        }
    }
}

/// Splits a call's argument tokens at top-level commas, collecting the
/// identifiers in each argument. Returns the idents and the index just
/// past the closing `)`.
fn parse_args(tokens: &[Token], open: usize, limit: usize) -> (Vec<Vec<String>>, usize) {
    let mut args = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut depth: i64 = 0;
    let mut k = open;
    let mut any = false;
    while k < limit {
        match &tokens[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => {
                depth += 1;
            }
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    if any || !cur.is_empty() {
                        args.push(std::mem::take(&mut cur));
                    }
                    return (args, k + 1);
                }
            }
            Tok::Punct(',') if depth == 1 => {
                args.push(std::mem::take(&mut cur));
                any = true;
            }
            Tok::Ident(w) => {
                any = true;
                cur.push(w.clone());
            }
            _ => {}
        }
        k += 1;
    }
    (args, limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        build_file("t", "crates/t/src/lib.rs", src)
    }

    #[test]
    fn finds_field_static_and_local_decls() {
        let src = "\
static RING: Mutex<Vec<u32>> = Mutex::new(Vec::new());
pub struct S {
    state: Mutex<u32>,
    loaded: RwLock<u8>,
}
fn f() {
    let results = std::sync::Mutex::new(Vec::<u32>::new());
}
fn lock(m: &Mutex<u32>) -> MutexGuard<'_, u32> { m.lock().unwrap() }
";
        let m = model(src);
        let ids: Vec<&str> = m.decls.iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, vec!["t/lib.RING", "t/lib.state", "t/lib.loaded", "t/lib.results"]);
        assert!(m.decls[2].rw);
    }

    #[test]
    fn fn_params_and_guard_returns() {
        let src = "\
fn lock<T>(m: &Mutex<State<T>>) -> MutexGuard<'_, State<T>> { m.lock().unwrap() }
fn shard_for(&self, key: &str) -> &Mutex<Shard> { &self.shards[0] }
fn plain(x: u32) -> u32 { x }
";
        let m = model(src);
        assert_eq!(m.fns.len(), 3);
        assert!(m.fns[0].returns_guard);
        assert!(m.fns[0].params[0].is_lock);
        assert!(m.fns[1].returns_lock_ref);
        assert!(!m.fns[2].returns_guard && !m.fns[2].params[0].is_lock);
    }

    #[test]
    fn acquisition_receiver_and_liveness() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let g = self.a.lock().unwrap();
        let h = self.b.lock().unwrap();
        drop(g);
    }
    fn temp(&self) {
        self.a.lock().unwrap().checked_add(1);
        other();
    }
}
";
        let m = model(src);
        let f = m.fns.iter().find(|f| f.name == "f").unwrap();
        let acqs: Vec<&AcqEvent> = f
            .events
            .iter()
            .filter_map(|e| if let Event::Acq(a) = e { Some(a) } else { None })
            .collect();
        assert_eq!(acqs.len(), 2);
        assert_eq!(acqs[0].receiver, "a");
        assert_eq!(acqs[0].binding.as_deref(), Some("g"));
        assert_eq!(acqs[1].receiver, "b");
        // Both live to the block close (drop() is handled in the rule walk).
        assert_eq!(acqs[0].live_end, acqs[1].live_end);

        let temp = m.fns.iter().find(|f| f.name == "temp").unwrap();
        let ta: Vec<&AcqEvent> = temp
            .events
            .iter()
            .filter_map(|e| if let Event::Acq(a) = e { Some(a) } else { None })
            .collect();
        assert_eq!(ta.len(), 1);
        assert!(ta[0].binding.is_none());
        // Statement-scoped: dies before `other()` is called.
        let call = temp
            .events
            .iter()
            .find_map(|e| match e {
                Event::Call(c) if c.callee == "other" => Some(c.idx),
                _ => None,
            })
            .unwrap();
        assert!(ta[0].live_end < call);
    }

    #[test]
    fn if_let_guard_scopes_to_its_body() {
        let src = "\
struct S { m: Mutex<Vec<u32>> }
impl S {
    fn f(&self) {
        if let Ok(mut samples) = self.m.lock() {
            samples.push(1);
        }
        after();
    }
}
";
        let m = model(src);
        let f = &m.fns[0];
        let acq = f
            .events
            .iter()
            .find_map(|e| if let Event::Acq(a) = e { Some(a) } else { None })
            .unwrap();
        assert_eq!(acq.binding.as_deref(), Some("samples"));
        let after = f
            .events
            .iter()
            .find_map(|e| match e {
                Event::Call(c) if c.callee == "after" => Some(c.idx),
                _ => None,
            })
            .unwrap();
        assert!(acq.live_end < after, "if-let guard must die with its body");
    }

    #[test]
    fn multiline_chain_receiver() {
        let src = "\
struct S { loaded: RwLock<u32> }
impl S {
    fn f(&self, idx: usize) {
        let slot = self.shards[idx]
            .loaded
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        use_it(&slot);
    }
}
";
        let m = model(src);
        let acq = m.fns[0]
            .events
            .iter()
            .find_map(|e| if let Event::Acq(a) = e { Some(a) } else { None })
            .unwrap();
        assert_eq!(acq.receiver, "loaded");
        assert_eq!(acq.method, AcqMethod::Read);
        assert_eq!(acq.line, 6);
    }

    #[test]
    fn io_reads_with_args_are_not_acquisitions() {
        let src = "\
fn f(stream: &mut TcpStream, buf: &mut [u8]) {
    stream.read(buf).unwrap();
    stream.write(buf).unwrap();
}
";
        let m = model(src);
        assert!(m.fns[0].events.iter().all(|e| !matches!(e, Event::Acq(_))));
    }

    #[test]
    fn blocking_and_spawn_events() {
        let src = "\
fn f(stream: &mut TcpStream) {
    stream.write_all(b\"x\").unwrap();
    let h = std::thread::spawn(|| {});
    h.join().unwrap();
    std::thread::scope(|s| { s.spawn(|| {}); });
}
";
        let m = model(src);
        let whats: Vec<String> = m.fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Blocking(b) => Some(b.what.clone()),
                Event::Spawn(s) => Some(s.what.clone()),
                _ => None,
            })
            .collect();
        assert!(whats.iter().any(|w| w.contains("write_all")));
        assert!(whats.iter().any(|w| w.contains("join")));
        assert!(whats.iter().any(|w| w == "thread::spawn"));
        assert!(whats.iter().any(|w| w == "thread::scope"));
        assert!(whats.iter().any(|w| w == ".spawn"));
    }

    #[test]
    fn call_args_collect_idents() {
        let src = "\
fn f(&self) {
    lock(&self.state);
    lock_shard(self.shard_for(&key));
}
";
        let m = model(src);
        let calls: Vec<&CallEvent> = m.fns[0]
            .events
            .iter()
            .filter_map(|e| {
                if let Event::Call(c) = e {
                    Some(c)
                } else {
                    None
                }
            })
            .collect();
        let lock = calls.iter().find(|c| c.callee == "lock").unwrap();
        assert_eq!(lock.arg_idents, vec![vec!["self".to_string(), "state".to_string()]]);
        let shard = calls.iter().find(|c| c.callee == "lock_shard").unwrap();
        assert!(shard.arg_idents[0].contains(&"shard_for".to_string()));
    }

    #[test]
    fn test_mod_bodies_are_excluded() {
        let src = "\
struct S { m: Mutex<u32> }
#[cfg(test)]
mod tests {
    fn t(&self) { let g = self.m.lock().unwrap(); }
}
";
        let m = model(src);
        assert!(m.fns.is_empty());
    }
}
