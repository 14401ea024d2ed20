//! The static lint pass: token-wise concurrency-discipline checks.
//!
//! The analysis is deliberately syntactic — a hand-rolled tokenizer
//! (comments, strings, raw strings, char literals and lifetimes are
//! handled; everything else becomes identifier/symbol tokens with line
//! numbers) plus a brace/paren-depth walker that tracks which lock
//! guards are live at each point of a function body. Four lints:
//!
//! * **`lock-order`** (L1) — tracked locks must be acquired in the
//!   canonical order [`CANONICAL_LOCK_ORDER`]; a nested acquisition at
//!   an equal-or-lower rank is flagged as a potential deadlock.
//! * **`blocking-while-locked`** (L2) — no `Machine::run`/`try_run`,
//!   condvar wait, `Ticket::wait*`, thread join or channel `recv` while
//!   a tracked guard is live in scheduler/worker code. (A condvar wait
//!   consuming its *own* guard is the one legal form.)
//! * **`unwrap`** (L3) — no `.unwrap()` / `.expect()` in non-test
//!   scheduler/shard code: a panic there poisons a whole shard.
//! * **`relaxed`** (L4) — no `Ordering::Relaxed` in the scheduler
//!   stack, where atomics gate commit sequencing and consistency.
//!
//! Any finding can be waived with a `// ddrs-check: allow(<lint>)`
//! comment on the flagged line or the line directly above it — the
//! justification belongs in the same comment.
//!
//! Guard liveness is approximated conservatively: a `let`-bound guard
//! lives until its enclosing block closes or an explicit `drop(<var>)`;
//! an unbound (temporary) guard lives to the end of its statement or
//! argument position. `#[cfg(test)]` items are skipped entirely. The
//! pass sees nesting *within* one function body; nesting that spans
//! function calls is covered by the [`crate::lock`] runtime instead.
//!
//! `wal.append` is the per-shard write-ahead log's append mutex
//! (`ddrs-wal`): the router appends committed epochs while holding no
//! scheduler lock, so it ranks between the router-side fault set and
//! the cross-shard merge state, and — like everything else — above the
//! telemetry classes.
//!
//! `net.conn` covers every connection-scoped lock of the network
//! front-end (`ddrs-net`): the server's connection table and the remote
//! client's per-connection pending map and write half. They rank below
//! the serving locks (network threads never hold one while submitting
//! into a scheduler) and above the ticket classes, because a demux
//! thread may resolve tickets from under its connection state.
//! `ticket.watch` is the `Ticket::on_resolve` watch cell — held while
//! polling the parked ticket, so it sits directly above `ticket.state`.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The canonical acquisition order over the scheduler stack's named
/// lock classes, outermost first. `stats` is the front-end's
/// `shard.stats`; `shard.cross` is the per-`CrossOp` merge state;
/// `net.conn` is the network front-end's connection-scoped state
/// (server connection table, remote-client pending maps and write
/// halves); `ticket.watch` is the
/// `on_resolve` watch cell and `ticket.state` the ticket cell itself,
/// innermost of the scheduling locks because resolving a ticket is the
/// last thing a completion path does. The two telemetry classes sit
/// below everything: `metrics.registry` is the unified export registry,
/// and `trace.ring` guards the per-thread span ring-buffers — recording
/// an event must be legal from under any scheduler lock, so it ranks
/// last.
pub const CANONICAL_LOCK_ORDER: &[&str] = &[
    "sched.queue",
    "stats",
    "shard.faults",
    "wal.append",
    "shard.cross",
    "net.conn",
    "ticket.watch",
    "ticket.state",
    "metrics.registry",
    "trace.ring",
];

/// Condvar field names; `cv.wait(guard)` consuming its own guard is the
/// legal blocking-under-lock form.
const CONDVAR_FIELDS: &[&str] = &["arrived", "cv"];

/// Method names that block the calling thread (L2).
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "recv_deadline",
    "run",
    "try_run",
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_until",
    "join",
];

/// Map a lock field identifier to its `(rank, class name)`. The `state`
/// field is `ticket.state` in the client crate and the `CrossOp` merge
/// state in the shard router.
fn classify(field: &str, path: &str) -> Option<(usize, &'static str)> {
    match field {
        "queue" => Some((0, "sched.queue")),
        "stats" => Some((1, "stats")),
        "faults" => Some((2, "shard.faults")),
        "append" => Some((3, "wal.append")),
        "state" => {
            if path.contains("client") {
                Some((7, "ticket.state"))
            } else {
                Some((4, "shard.cross"))
            }
        }
        // The network front-end's connection-scoped locks (`ddrs-net`):
        // the server connection table and the client's per-connection
        // pending map / write half all share one class, and none of
        // them may nest inside another.
        "conns" | "pending" | "stream" if path.contains("net") => Some((5, "net.conn")),
        "watch" if path.contains("client") => Some((6, "ticket.watch")),
        "registry" => Some((8, "metrics.registry")),
        "ring" | "rings" => Some((9, "trace.ring")),
        _ => None,
    }
}

/// The four lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// L1: nested lock acquisition out of canonical order.
    LockOrder,
    /// L2: a blocking call while a tracked guard is live.
    BlockingWhileLocked,
    /// L3: `.unwrap()` / `.expect()` in non-test scheduler code.
    Unwrap,
    /// L4: `Ordering::Relaxed` in the scheduler stack.
    Relaxed,
}

impl Lint {
    /// The lint's name as used in `// ddrs-check: allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::LockOrder => "lock-order",
            Lint::BlockingWhileLocked => "blocking-while-locked",
            Lint::Unwrap => "unwrap",
            Lint::Relaxed => "relaxed",
        }
    }

    /// Parse an allow-annotation name.
    pub fn from_name(name: &str) -> Option<Lint> {
        match name {
            "lock-order" => Some(Lint::LockOrder),
            "blocking-while-locked" => Some(Lint::BlockingWhileLocked),
            "unwrap" => Some(Lint::Unwrap),
            "relaxed" => Some(Lint::Relaxed),
            _ => None,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, rendered as `path:line: [lint] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path of the offending file as given to the linter.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.lint, self.message)
    }
}

/// Which lints to run on a file.
#[derive(Debug, Clone, Copy)]
pub struct LintSet {
    /// Run L1 (lock-order).
    pub lock_order: bool,
    /// Run L2 (blocking-while-locked).
    pub blocking: bool,
    /// Run L3 (unwrap/expect).
    pub unwrap: bool,
    /// Run L4 (Ordering::Relaxed).
    pub relaxed: bool,
}

impl LintSet {
    /// Every lint on — used for explicit file arguments and fixtures.
    pub fn all() -> LintSet {
        LintSet { lock_order: true, blocking: true, unwrap: true, relaxed: true }
    }

    /// The workspace policy for a source path. The scheduler crates
    /// (`sched`, `shard`) get every lint; the client crate
    /// gets the lock-order and memory-ordering lints (its public API
    /// legitimately exposes blocking waits, and `unwrap` is allowed
    /// outside the serving hot path).
    pub fn for_workspace_path(path: &str) -> LintSet {
        let sched_stack = ["crates/sched", "crates/shard"].iter().any(|c| path.contains(c));
        LintSet { lock_order: true, blocking: sched_stack, unwrap: sched_stack, relaxed: true }
    }

    fn enabled(self, lint: Lint) -> bool {
        match lint {
            Lint::LockOrder => self.lock_order,
            Lint::BlockingWhileLocked => self.blocking,
            Lint::Unwrap => self.unwrap,
            Lint::Relaxed => self.relaxed,
        }
    }
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Sym(char),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
}

impl Token {
    fn is_sym(&self, c: char) -> bool {
        self.tok == Tok::Sym(c)
    }
    fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            Tok::Sym(_) => None,
        }
    }
}

struct Scanned {
    tokens: Vec<Token>,
    /// line → lints waived on that line. An allow annotation covers its
    /// own line and the next *code* line below it (intervening
    /// comment-only/blank lines are skipped, so multi-line
    /// justifications work).
    allows: HashMap<usize, Vec<Lint>>,
}

fn record_allow(comment: &str, line: usize, allows: &mut HashMap<usize, Vec<Lint>>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("ddrs-check: allow(") {
        rest = &rest[pos + "ddrs-check: allow(".len()..];
        let Some(end) = rest.find(')') else { return };
        if let Some(lint) = Lint::from_name(rest[..end].trim()) {
            allows.entry(line).or_default().push(lint);
        }
        rest = &rest[end..];
    }
}

fn scan(src: &str) -> Scanned {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut tokens = Vec::new();
    let mut allows: HashMap<usize, Vec<Lint>> = HashMap::new();
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i;
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            let comment: String = b[start..i].iter().collect();
            record_allow(&comment, line, &mut allows);
        } else if c == '/' && b.get(i + 1) == Some(&'*') {
            i += 2;
            let mut depth = 1;
            while i < b.len() && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i = skip_string(&b, i, &mut line);
        } else if (c == 'r' || c == 'b') && raw_string_hashes(&b, i).is_some() {
            // r"…", r#"…"#, br"…", … — skip to the matching close quote.
            let (start, hashes) = raw_string_hashes(&b, i).unwrap_or((i, 0));
            i = start + 1;
            loop {
                if i >= b.len() {
                    break;
                }
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '"' && closes_raw(&b, i, hashes) {
                    i += 1 + hashes;
                    break;
                } else {
                    i += 1;
                }
            }
        } else if c == 'b' && b.get(i + 1) == Some(&'"') {
            i = skip_string(&b, i + 1, &mut line);
        } else if c == '\'' {
            // Char literal vs lifetime.
            if b.get(i + 1) == Some(&'\\') {
                i += 2; // skip the escape lead-in
                while i < b.len() && b[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if b.get(i + 2) == Some(&'\'') {
                i += 3;
            } else {
                // Lifetime: skip the quote, the ident is tokenized (and
                // ignored) normally.
                i += 1;
            }
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            tokens.push(Token { tok: Tok::Ident(b[start..i].iter().collect()), line });
        } else {
            tokens.push(Token { tok: Tok::Sym(c), line });
            i += 1;
        }
    }
    Scanned { tokens, allows }
}

/// If position `i` starts a raw-string opener (`r`/`br` + hashes + `"`),
/// return (index of the opening quote, number of hashes).
fn raw_string_hashes(b: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b.get(j) == Some(&'b') {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    // A preceding ident char means this `r` is inside an identifier.
    if i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&'"') {
        Some((j, hashes))
    } else {
        None
    }
}

fn closes_raw(b: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| b.get(i + k) == Some(&'#'))
}

fn skip_string(b: &[char], open: usize, line: &mut usize) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct LiveGuard {
    rank: usize,
    name: &'static str,
    /// `Some` when `let`-bound; `None` for statement temporaries.
    var: Option<String>,
    brace: usize,
    paren: usize,
    temp: bool,
}

struct Analyzer<'a> {
    path: &'a str,
    tokens: &'a [Token],
    allows: &'a HashMap<usize, Vec<Lint>>,
    /// Lines carrying at least one token (i.e. code, not comments).
    code_lines: std::collections::HashSet<usize>,
    set: LintSet,
    diags: Vec<Diagnostic>,
    guards: Vec<LiveGuard>,
    brace: usize,
    paren: usize,
    /// Token index where the current statement began (used for `let`
    /// binding detection).
    stmt_start: usize,
}

/// Lint one source file. `path` is used for diagnostics and for the
/// path-sensitive parts of the lock table (`state` disambiguation,
/// workspace lint scoping when `set` came from
/// [`LintSet::for_workspace_path`]).
pub fn lint_source(path: &str, src: &str, set: LintSet) -> Vec<Diagnostic> {
    let scanned = scan(src);
    let code_lines = scanned.tokens.iter().map(|t| t.line).collect();
    let mut a = Analyzer {
        path,
        tokens: &scanned.tokens,
        allows: &scanned.allows,
        code_lines,
        set,
        diags: Vec::new(),
        guards: Vec::new(),
        brace: 0,
        paren: 0,
        stmt_start: 0,
    };
    a.run();
    a.diags
}

impl Analyzer<'_> {
    fn allowed(&self, line: usize, lint: Lint) -> bool {
        let hit = |l: usize| self.allows.get(&l).is_some_and(|v| v.contains(&lint));
        if hit(line) {
            return true;
        }
        // Walk upward through the comment block directly above the
        // flagged line; the first code line ends the search.
        let mut l = line;
        while l > 1 {
            l -= 1;
            if hit(l) {
                return true;
            }
            if self.code_lines.contains(&l) {
                return false;
            }
        }
        false
    }

    fn flag(&mut self, line: usize, lint: Lint, message: String) {
        if self.set.enabled(lint) && !self.allowed(line, lint) {
            self.diags.push(Diagnostic { path: self.path.to_string(), line, lint, message });
        }
    }

    fn run(&mut self) {
        let mut i = 0;
        while i < self.tokens.len() {
            // Skip `#[cfg(test)]` items wholesale.
            if self.at_cfg_test(i) {
                i = self.skip_cfg_test_item(i);
                continue;
            }
            let t = self.tokens[i].clone();
            match &t.tok {
                Tok::Sym('{') => {
                    self.brace += 1;
                    self.stmt_start = i + 1;
                }
                Tok::Sym('}') => {
                    self.brace = self.brace.saturating_sub(1);
                    let depth = self.brace;
                    self.guards.retain(|g| g.brace <= depth);
                    self.stmt_start = i + 1;
                }
                Tok::Sym('(') => self.paren += 1,
                Tok::Sym(')') => {
                    self.paren = self.paren.saturating_sub(1);
                    let depth = self.paren;
                    self.guards.retain(|g| !(g.temp && g.paren > depth));
                }
                Tok::Sym(',') => {
                    let depth = self.paren;
                    self.guards.retain(|g| !(g.temp && g.paren >= depth));
                }
                Tok::Sym(';') => {
                    self.guards.retain(|g| !g.temp);
                    self.stmt_start = i + 1;
                }
                Tok::Sym('.') => {
                    i = self.method_call(i);
                    continue;
                }
                Tok::Ident(id) if id == "drop" => {
                    if let Some(next) = self.explicit_drop(i) {
                        i = next;
                        continue;
                    }
                }
                Tok::Ident(id) if id == "lock" => {
                    // Free-function form `lock(&self.field)`.
                    let is_method = i > 0 && self.tokens[i - 1].is_sym('.');
                    if !is_method && self.tokens.get(i + 1).is_some_and(|t| t.is_sym('(')) {
                        if let Some((field, close)) = self.last_ident_in_parens(i + 1) {
                            let terminal =
                                self.tokens.get(close + 1).is_some_and(|t| t.is_sym(';'));
                            self.acquire(&field, t.line, i, terminal);
                        }
                    }
                }
                Tok::Ident(id) if id == "Relaxed" => {
                    let line = t.line;
                    self.flag(
                        line,
                        Lint::Relaxed,
                        "Ordering::Relaxed in the scheduler stack — commit-seq and \
                         consistency-gating atomics need acquire/release (or stronger); \
                         annotate telemetry-only uses"
                            .to_string(),
                    );
                }
                Tok::Ident(id) if id == "Machine" => {
                    // `Machine::run(...)` / `Machine::try_run(...)`.
                    if self.tokens.get(i + 1).is_some_and(|t| t.is_sym(':'))
                        && self.tokens.get(i + 2).is_some_and(|t| t.is_sym(':'))
                        && self
                            .tokens
                            .get(i + 3)
                            .and_then(Token::ident)
                            .is_some_and(|m| m == "run" || m == "try_run")
                        && !self.guards.is_empty()
                    {
                        let line = t.line;
                        let held = self.held_names();
                        self.flag(
                            line,
                            Lint::BlockingWhileLocked,
                            format!(
                                "Machine::run while holding [{held}] — a machine run can \
                                     block on sibling processors; release tracked guards first"
                            ),
                        );
                    }
                }
                Tok::Ident(_) => {}
                Tok::Sym(_) => {}
            }
            i += 1;
        }
    }

    fn held_names(&self) -> String {
        self.guards.iter().map(|g| g.name).collect::<Vec<_>>().join(", ")
    }

    /// Handle `recv/run/wait/unwrap/…` at `self.tokens[i] == '.'`;
    /// returns the next index to resume from.
    fn method_call(&mut self, i: usize) -> usize {
        let Some(m) = self.tokens.get(i + 1).and_then(Token::ident).map(str::to_string) else {
            return i + 1;
        };
        let has_call = self.tokens.get(i + 2).is_some_and(|t| t.is_sym('('));
        let line = self.tokens[i + 1].line;
        let receiver = if i > 0 { self.tokens[i - 1].ident().map(str::to_string) } else { None };
        if !has_call {
            return i + 1;
        }
        if m == "lock" && self.tokens.get(i + 3).is_some_and(|t| t.is_sym(')')) {
            if let Some(field) = receiver {
                let terminal = self.tokens.get(i + 4).is_some_and(|t| t.is_sym(';'));
                self.acquire(&field, line, i, terminal);
            }
            return i + 1;
        }
        if (m == "wait" || m == "wait_timeout")
            && receiver.as_deref().is_some_and(|r| CONDVAR_FIELDS.contains(&r))
        {
            // Condvar wait: consuming its own guard is legal; any OTHER
            // live guard means we block while holding it.
            let own = self.tokens.get(i + 3).and_then(Token::ident);
            let others: Vec<&str> =
                self.guards.iter().filter(|g| g.var.as_deref() != own).map(|g| g.name).collect();
            if !others.is_empty() {
                self.flag(
                    line,
                    Lint::BlockingWhileLocked,
                    format!(
                        "condvar wait while still holding [{}] — only the guard handed to \
                         the wait is released",
                        others.join(", ")
                    ),
                );
            }
            return i + 1;
        }
        if m == "unwrap" || m == "expect" {
            self.flag(
                line,
                Lint::Unwrap,
                format!(
                    ".{m}() in scheduler-stack code — a panic here poisons a whole shard; \
                     return a ServiceError / take the poisoning path, or annotate why this \
                     is infallible"
                ),
            );
            return i + 1;
        }
        if BLOCKING_METHODS.contains(&m.as_str()) && !self.guards.is_empty() {
            let held = self.held_names();
            self.flag(
                line,
                Lint::BlockingWhileLocked,
                format!(
                    ".{m}() while holding [{held}] — blocking with a tracked guard live \
                         can deadlock the scheduler; release the guard first"
                ),
            );
        }
        i + 1
    }

    /// Record an acquisition of the lock behind `field` (if tracked).
    /// `terminal` means the lock call ends its statement (`…lock();`) —
    /// only then can a `let` bind the guard itself; a continued method
    /// chain consumes the guard as a statement temporary.
    fn acquire(&mut self, field: &str, line: usize, acq: usize, terminal: bool) {
        let Some((rank, name)) = classify(field, self.path) else { return };
        let conflicts: Vec<(String, bool)> = self
            .guards
            .iter()
            .filter(|g| rank <= g.rank)
            .map(|g| (g.name.to_string(), g.rank == rank && g.name == name))
            .collect();
        for (held, recursive) in conflicts {
            let msg = if recursive {
                format!(
                    "recursive acquisition of '{name}' — std::sync::Mutex self-deadlocks; \
                     restructure so one guard covers the whole critical section"
                )
            } else {
                format!(
                    "acquiring '{name}' while holding '{held}' inverts the canonical lock \
                     order [{}]",
                    CANONICAL_LOCK_ORDER.join(" < ")
                )
            };
            self.flag(line, Lint::LockOrder, msg);
        }
        let var = if terminal { self.let_binding_var(acq) } else { None };
        let temp = var.is_none();
        self.guards.push(LiveGuard { rank, name, var, brace: self.brace, paren: self.paren, temp });
    }

    /// If the statement containing token `acq` is a `let` binding, the
    /// bound variable.
    fn let_binding_var(&self, acq: usize) -> Option<String> {
        let mut it = self.tokens[self.stmt_start..acq].iter();
        for t in it.by_ref() {
            match t.ident() {
                Some("let") => break,
                // A `=` before any `let` means this is a plain
                // assignment — not a fresh binding.
                _ if t.is_sym('=') => return None,
                _ => {}
            }
        }
        for t in it {
            match t.ident() {
                Some("mut") => continue,
                Some(v) => return Some(v.to_string()),
                None => continue,
            }
        }
        None
    }

    /// Handle `drop(a)` / `drop((a, b))`: release the named guards.
    /// Returns the index after the closing paren, or `None` when this
    /// `drop` ident is not a call.
    fn explicit_drop(&mut self, i: usize) -> Option<usize> {
        if !self.tokens.get(i + 1).is_some_and(|t| t.is_sym('(')) {
            return None;
        }
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut dropped: Vec<String> = Vec::new();
        while j < self.tokens.len() {
            match &self.tokens[j].tok {
                Tok::Sym('(') => depth += 1,
                Tok::Sym(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(id) => dropped.push(id.clone()),
                Tok::Sym(_) => {}
            }
            j += 1;
        }
        self.guards.retain(|g| g.var.as_ref().is_none_or(|v| !dropped.contains(v)));
        Some(j + 1)
    }

    /// The last identifier inside the paren group opening at `open`,
    /// plus the index of the closing paren (used for
    /// `lock(&self.field)`).
    fn last_ident_in_parens(&self, open: usize) -> Option<(String, usize)> {
        let mut depth = 0usize;
        let mut last = None;
        let mut j = open;
        while j < self.tokens.len() {
            match &self.tokens[j].tok {
                Tok::Sym('(') => depth += 1,
                Tok::Sym(')') => {
                    depth -= 1;
                    if depth == 0 {
                        return last.map(|f| (f, j));
                    }
                }
                Tok::Ident(id) => last = Some(id.clone()),
                Tok::Sym(_) => {}
            }
            j += 1;
        }
        None
    }

    /// Does `#[cfg(test)]` start at token `i`?
    fn at_cfg_test(&self, i: usize) -> bool {
        let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
        pat.iter().enumerate().all(|(k, want)| match self.tokens.get(i + k) {
            Some(t) => match &t.tok {
                Tok::Ident(s) => s == want,
                Tok::Sym(c) => want.len() == 1 && want.starts_with(*c),
            },
            None => false,
        })
    }

    /// Skip the item following a `#[cfg(test)]` attribute: everything
    /// up to the first `;`, or the matching `}` of the first `{`.
    fn skip_cfg_test_item(&self, i: usize) -> usize {
        let mut j = i + 7; // past `# [ cfg ( test ) ]`
        while j < self.tokens.len() {
            match &self.tokens[j].tok {
                Tok::Sym(';') => return j + 1,
                Tok::Sym('{') => {
                    let mut depth = 0usize;
                    while j < self.tokens.len() {
                        match &self.tokens[j].tok {
                            Tok::Sym('{') => depth += 1,
                            Tok::Sym('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    return j + 1;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    return j;
                }
                _ => j += 1,
            }
        }
        j
    }
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// The crates the workspace pass covers.
const WORKSPACE_CRATES: &[&str] = &[
    "crates/sched/src",
    "crates/shard/src",
    "crates/client/src",
    "crates/trace/src",
    "crates/wal/src",
    "crates/net/src",
];

/// Lint the scheduler-stack sources under `root` (the workspace root),
/// applying the per-crate policy of [`LintSet::for_workspace_path`].
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for dir in WORKSPACE_CRATES {
        collect_rs(&root.join(dir), &mut files)?;
    }
    files.sort();
    let mut diags = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
        diags.extend(lint_source(&rel, &src, LintSet::for_workspace_path(&rel)));
    }
    Ok(diags)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(src: &str) -> Vec<Lint> {
        lint_source("crates/shard/src/fixture.rs", src, LintSet::all())
            .into_iter()
            .map(|d| d.lint)
            .collect()
    }

    #[test]
    fn inverted_order_is_flagged() {
        let src = "fn f(&self) { let st = self.stats.lock(); let q = self.queue.lock(); }";
        assert_eq!(lints_of(src), vec![Lint::LockOrder]);
    }

    #[test]
    fn canonical_order_is_clean() {
        let src = "fn f(&self) { let q = self.queue.lock(); let st = self.stats.lock(); }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn guard_scope_ends_at_block_close() {
        let src = "fn f(&self) { { let st = self.stats.lock(); } let q = self.queue.lock(); }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn explicit_drop_releases() {
        let src =
            "fn f(&self) { let st = self.stats.lock(); drop(st); let q = self.queue.lock(); }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn recv_under_guard_is_flagged() {
        let src = "fn f(&self) { let st = self.stats.lock(); let x = rx.recv(); }";
        assert_eq!(lints_of(src), vec![Lint::BlockingWhileLocked]);
    }

    #[test]
    fn recv_after_temp_statement_is_clean() {
        let src = "fn f(&self) { self.stats.lock().completed += 1; let x = rx.recv(); }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn temp_guards_in_separate_args_do_not_overlap() {
        let src = "fn f(&self) { g(|| self.stats.lock().a += 1, || self.stats.lock().b += 1); }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn condvar_wait_with_own_guard_is_legal() {
        let src = "fn f(&self) { let mut q = self.queue.lock(); q = self.arrived.wait(q); }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn condvar_wait_with_extra_guard_is_flagged() {
        let src = "fn f(&self) { let st = self.stats.lock(); let mut q = self.queue.lock(); \
                   q = self.arrived.wait(q); }";
        assert!(lints_of(src).contains(&Lint::BlockingWhileLocked));
    }

    #[test]
    fn unwrap_and_expect_are_flagged_and_allowed() {
        assert_eq!(lints_of("fn f() { x.unwrap(); }"), vec![Lint::Unwrap]);
        assert_eq!(lints_of("fn f() { x.expect(\"m\"); }"), vec![Lint::Unwrap]);
        let allowed = "fn f() {\n // ddrs-check: allow(unwrap) — infallible\n x.unwrap(); }";
        assert!(lints_of(allowed).is_empty());
    }

    #[test]
    fn relaxed_is_flagged_and_allowed() {
        assert_eq!(lints_of("fn f() { a.swap(true, Ordering::Relaxed); }"), vec![Lint::Relaxed]);
        let allowed =
            "fn f() { a.swap(true, Ordering::Relaxed); // ddrs-check: allow(relaxed) — tally\n }";
        assert!(lints_of(allowed).is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }\nfn g() {}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_tokenize() {
        let src = "fn f() { let s = \".unwrap()\"; /* x.unwrap() */ // y.unwrap()\n }";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn helper_lock_form_is_tracked() {
        let src = "fn f(&self) { let st = lock(&self.stats); let q = lock(&self.queue); }";
        assert_eq!(lints_of(src), vec![Lint::LockOrder]);
    }

    #[test]
    fn machine_run_under_guard_is_flagged() {
        let src = "fn f(&self) { let st = self.stats.lock(); Machine::run(&m, f); }";
        assert!(lints_of(src).contains(&Lint::BlockingWhileLocked));
    }
}
