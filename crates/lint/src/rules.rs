//! The five determinism & concurrency rules, as token-stream passes.
//!
//! Each rule enforces one clause of the workspace's written
//! determinism contract (README "Determinism contract"):
//!
//! * **D1 — no map iteration on result paths.** Iterating a `HashMap`
//!   / `HashSet` (`iter`, `keys`, `values`, `into_iter`, `drain`,
//!   `retain`, `for … in map`) in non-test code is the exact bug class
//!   that bit Tapestry in PR 7: iteration order is randomized per
//!   process, so any fold over it that is not followed by a total sort
//!   leaks scheduling into `PaperMetrics`.
//! * **D2 — no ambient clocks.** `Instant::now` / `SystemTime` outside
//!   the allowlisted timing-only modules (engine busy-time, serve
//!   pacing, bench chrome) puts wall-clock on a result path.
//! * **D3 — globally unique RNG stream tags.** Every `*_TAG: u64`
//!   const fed to `sub_seed` / `item_seed` must be workspace-unique:
//!   two subsystems sharing a tag value draw *correlated* streams.
//! * **D4 — documented `unsafe`.** Every `unsafe` token is immediately
//!   preceded by a `// SAFETY:` comment.
//! * **D5 — lock-acquisition order.** The documented mutex→slot order
//!   for `HierarchicalWorld`'s `BlockCache` (`resident` accounting
//!   mutex before any `slots[…]` RwLock): any function that acquires
//!   them inverted is a deadlock candidate against the evictor.
//!
//! All passes are *lexical*: they see tokens, not types. The
//! identifier heuristics (which bindings are map-typed, which
//! receivers are locks) are tuned to this workspace's idiom and
//! documented per rule; false positives are suppressed at the site
//! with `// np-lint: allow(Dn) — reason` (reason mandatory, ≥ 10
//! chars — see [`parse_allow`]).

use crate::lexer::{TokKind, Token};
use std::collections::BTreeSet;

/// Rule identifiers. `A0` is the meta-rule: an `np-lint: allow`
/// comment that is malformed or carries no justification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    D1,
    D2,
    D3,
    D4,
    D5,
    A0,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::A0 => "A0",
        }
    }

    pub fn from_id(s: &str) -> Option<Rule> {
        match s {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            "A0" => Some(Rule::A0),
            _ => None,
        }
    }

    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1 => "HashMap/HashSet iteration on a non-test result path",
            Rule::D2 => "ambient wall-clock read outside the timing allowlist",
            Rule::D3 => "RNG stream tag value collides with another *_TAG const",
            Rule::D4 => "`unsafe` without an immediately preceding `// SAFETY:` comment",
            Rule::D5 => "lock acquisition inverts the declared mutex->slot order",
            Rule::A0 => "np-lint allow comment without a usable justification",
        }
    }
}

/// One finding, pre- or post-suppression.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub msg: String,
    pub hint: String,
}

/// A parsed `// np-lint: allow(Dn) — reason` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    pub line: usize,
    /// End line of the comment (same as `line` for `//` comments).
    pub end_line: usize,
    pub rule: Option<Rule>,
    pub reason_len: usize,
}

/// A `*_TAG: u64` const definition (the D3 registry's unit).
#[derive(Debug, Clone)]
pub struct TagDef {
    pub name: String,
    pub value: Option<u64>,
    pub value_text: String,
    pub file: String,
    pub line: usize,
    pub is_test: bool,
}

/// Everything one file contributes before workspace-level aggregation.
#[derive(Debug, Default)]
pub struct FileLint {
    pub findings: Vec<Finding>,
    pub allows: Vec<Allow>,
    pub tags: Vec<TagDef>,
}

/// Map-type names D1 tracks.
const MAP_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Iteration methods D1 flags on map-typed receivers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// The declared lock order D5 enforces, earliest first: a receiver
/// containing `resident` (the BlockCache accounting mutex) must be
/// acquired before one containing `slots` (a per-shard RwLock) within
/// one function. See `crates/metric/src/hierarchical.rs`.
const LOCK_ORDER: &[&str] = &["resident", "slots"];

/// Lock-acquiring method names D5 watches.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Minimum justification length (characters after the rule id) for an
/// allow comment to count as reasoned.
pub const MIN_ALLOW_REASON: usize = 10;

/// Parse an allow comment out of raw comment text, if present.
/// Syntax: `np-lint: allow(D1) — reason…` (the dash is decorative;
/// anything after the closing paren, stripped of separator
/// punctuation, is the reason).
pub fn parse_allow(text: &str, line: usize, end_line: usize) -> Option<Allow> {
    let idx = text.find("np-lint:")?;
    let rest = text[idx + "np-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = Rule::from_id(rest[..close].trim());
    let reason: String = rest[close + 1..]
        .trim_start_matches(|c: char| {
            c.is_whitespace() || c == '—' || c == '-' || c == ':' || c == ','
        })
        .trim()
        .to_string();
    Some(Allow {
        line,
        end_line,
        rule,
        reason_len: reason.chars().count(),
    })
}

/// Analyse one file's tokens. `rel` is the workspace-relative path
/// (diagnostics + D2 allowlisting key), `is_test_file` marks whole
/// files under `tests/` / `benches/` / `examples/`, and
/// `d2_allowlisted` marks the timing-only module set.
pub fn lint_tokens(
    rel: &str,
    toks: &[Token],
    is_test_file: bool,
    d2_allowlisted: bool,
) -> FileLint {
    let mut out = FileLint::default();

    // Comment-derived facts: allow comments, SAFETY lines, and which
    // lines are comment lines at all (D4 scans upward through them).
    let mut comment_lines: BTreeSet<usize> = BTreeSet::new();
    let mut safety_lines: BTreeSet<usize> = BTreeSet::new();
    for t in toks.iter().filter(|t| t.kind == TokKind::Comment) {
        let span = t.text.matches('\n').count();
        let end = t.line + span;
        for l in t.line..=end {
            comment_lines.insert(l);
        }
        if t.text.contains("SAFETY:") {
            for l in t.line..=end {
                safety_lines.insert(l);
            }
        }
        // Doc comments (`///`, `//!`, `/**`) are prose — an allow
        // example inside documentation must not register (or trip A0).
        let is_doc = t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        if let Some(a) = parse_allow(&t.text, t.line, end) {
            if a.rule.is_none() || a.reason_len < MIN_ALLOW_REASON {
                out.findings.push(Finding {
                    rule: Rule::A0,
                    file: rel.to_string(),
                    line: t.line,
                    msg: if a.rule.is_none() {
                        "allow comment names no known rule id".to_string()
                    } else {
                        "allow comment has no justification".to_string()
                    },
                    hint: format!(
                        "write `// np-lint: allow(D1) — why the order cannot reach results` \
                         (reason >= {MIN_ALLOW_REASON} chars)"
                    ),
                });
            }
            out.allows.push(a);
        }
    }

    // Code tokens (comments stripped) drive every other pass.
    let code: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();

    // `#[cfg(test)] mod … { … }` spans: D1/D2/D3/D5 are about result
    // paths, which test modules are not on.
    let test_spans = cfg_test_spans(&code);
    let in_test = |line: usize| {
        is_test_file || test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    };

    // ---- D1: map iteration ------------------------------------------------
    let map_names = collect_map_names(&code);
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Method-call form: `recv.iter()` etc.
        if ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && code[i - 1].is_punct('.')
            && i + 1 < code.len()
            && code[i + 1].is_punct('(')
        {
            let chain = receiver_chain(&code, i as isize - 2);
            let matched = chain
                .iter()
                .find(|(n, behind)| !behind && map_names.contains(n))
                .map(|(n, _)| n);
            if let (Some(recv), false) = (matched, in_test(t.line)) {
                out.findings.push(Finding {
                    rule: Rule::D1,
                    file: rel.to_string(),
                    line: t.line,
                    msg: format!(
                        "`.{}()` iterates map-typed `{}` — HashMap order is per-process random",
                        t.text, recv
                    ),
                    hint: "iterate a sorted snapshot (collect + sort by a total key) or keep a \
                           Vec side-ledger in insertion order"
                        .to_string(),
                });
            }
        }
        // `for pat in [&[mut]] map` form.
        if t.text == "for" {
            if let Some((line, name)) = for_over_map(&code, i, &map_names) {
                if !in_test(line) {
                    out.findings.push(Finding {
                        rule: Rule::D1,
                        file: rel.to_string(),
                        line,
                        msg: format!(
                            "`for … in {name}` iterates a map — HashMap order is per-process random"
                        ),
                        hint: "iterate a sorted snapshot (collect + sort by a total key) or keep \
                               a Vec side-ledger in insertion order"
                            .to_string(),
                    });
                }
            }
        }
    }

    // ---- D2: ambient clocks ----------------------------------------------
    if !d2_allowlisted {
        for i in 0..code.len() {
            let t = code[i];
            if t.kind != TokKind::Ident || in_test(t.line) {
                continue;
            }
            let hit = (t.text == "Instant"
                && i + 3 < code.len()
                && code[i + 1].is_punct(':')
                && code[i + 2].is_punct(':')
                && code[i + 3].is_ident("now"))
                || t.text == "SystemTime";
            if hit {
                out.findings.push(Finding {
                    rule: Rule::D2,
                    file: rel.to_string(),
                    line: t.line,
                    msg: format!("`{}` read outside the timing allowlist", t.text),
                    hint: "results must be pure in (spec, seed); keep clocks to wall-clock \
                           telemetry and annotate, or move the code into an allowlisted module"
                        .to_string(),
                });
            }
        }
    }

    // ---- D3: tag registry (collisions are judged workspace-wide) ---------
    for i in 0..code.len() {
        if !code[i].is_ident("const") {
            continue;
        }
        let (Some(name_t), Some(colon), Some(ty), Some(eq), Some(val)) = (
            code.get(i + 1),
            code.get(i + 2),
            code.get(i + 3),
            code.get(i + 4),
            code.get(i + 5),
        ) else {
            continue;
        };
        if name_t.kind == TokKind::Ident
            && name_t.text.ends_with("_TAG")
            && colon.is_punct(':')
            && ty.is_ident("u64")
            && eq.is_punct('=')
            && val.kind == TokKind::Number
        {
            out.tags.push(TagDef {
                name: name_t.text.clone(),
                value: parse_u64_literal(&val.text),
                value_text: val.text.clone(),
                file: rel.to_string(),
                line: name_t.line,
                is_test: in_test(name_t.line),
            });
        }
    }

    // ---- D4: documented unsafe -------------------------------------------
    for t in code.iter().filter(|t| t.is_ident("unsafe")) {
        // Accept SAFETY on the unsafe line itself (trailing) or on the
        // contiguous comment block immediately above.
        let mut ok = safety_lines.contains(&t.line);
        let mut l = t.line.saturating_sub(1);
        while !ok && l > 0 && comment_lines.contains(&l) {
            if safety_lines.contains(&l) {
                ok = true;
            }
            l -= 1;
        }
        if !ok {
            out.findings.push(Finding {
                rule: Rule::D4,
                file: rel.to_string(),
                line: t.line,
                msg: "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
                hint: "state the invariant that makes this sound in a `// SAFETY: …` comment \
                       directly above the unsafe code"
                    .to_string(),
            });
        }
    }

    // ---- D5: lock order ---------------------------------------------------
    for (body_start, body_end) in fn_bodies(&code) {
        let mut acquisitions: Vec<(usize, usize)> = Vec::new(); // (order class, line)
        for i in body_start..body_end {
            let t = code[i];
            if t.kind == TokKind::Ident
                && LOCK_METHODS.contains(&t.text.as_str())
                && i >= 2
                && code[i - 1].is_punct('.')
                && i + 1 < code.len()
                && code[i + 1].is_punct('(')
            {
                let chain = receiver_chain(&code, i as isize - 2);
                if let Some(class) = LOCK_ORDER
                    .iter()
                    .position(|n| chain.iter().any(|(c, _)| c == n))
                {
                    acquisitions.push((class, t.line));
                }
            }
        }
        for w in 0..acquisitions.len() {
            let (c_late, _) = acquisitions[w];
            if let Some(&(c_early, line)) = acquisitions[w + 1..]
                .iter()
                .find(|&&(c, _)| c < c_late)
            {
                if in_test(line) {
                    continue;
                }
                out.findings.push(Finding {
                    rule: Rule::D5,
                    file: rel.to_string(),
                    line,
                    msg: format!(
                        "`{}` lock acquired after `{}` — inverts the declared {} order",
                        LOCK_ORDER[c_early],
                        LOCK_ORDER[c_late],
                        LOCK_ORDER.join("->")
                    ),
                    hint: "acquire the accounting mutex before any slot lock (or drop the slot \
                           guard first and annotate why)"
                        .to_string(),
                });
                break; // one finding per function is enough to act on
            }
        }
    }

    out
}

/// Parse a Rust integer literal (hex or decimal, `_` separators,
/// optional type suffix) into a u64.
pub fn parse_u64_literal(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        // A type suffix like `u64` starts with a non-hex char ('u'),
        // so take_while cleanly strips it.
        u64::from_str_radix(&digits, 16).ok()
    } else {
        let digits: String = t.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    }
}

/// Bindings/fields/params whose declared or constructed type is a map.
///
/// Two anchored patterns, walked *backwards* from each `HashMap` /
/// `HashSet` token (after skipping a `std::collections::`-style path
/// prefix and `&`/`mut`):
///
/// * `name : [&[mut]] [path::]HashMap…` — let annotations, struct
///   fields, fn params;
/// * `name = [path::]HashMap::new()/with_capacity/from…` —
///   initializers without an annotation.
///
/// A map nested inside another generic (`Vec<HashMap<…>>`) walks back
/// to `<` or `,` and is deliberately not recorded: iterating the outer
/// collection is order-safe.
fn collect_map_names(code: &[&Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        if !(code[i].kind == TokKind::Ident && MAP_TYPES.contains(&code[i].text.as_str())) {
            continue;
        }
        let mut j = i as isize - 1;
        // Skip `path ::` prefixes (`std :: collections ::`).
        loop {
            if j >= 1 && code[j as usize].is_punct(':') && code[(j - 1) as usize].is_punct(':') {
                j -= 2;
                if j >= 0 && code[j as usize].kind == TokKind::Ident {
                    j -= 1;
                }
            } else {
                break;
            }
        }
        // Skip `&`, `mut`, lifetimes.
        while j >= 0
            && (code[j as usize].is_punct('&')
                || code[j as usize].is_ident("mut")
                || code[j as usize].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j < 1 {
            continue;
        }
        let (anchor, name) = (code[j as usize], code[(j - 1) as usize]);
        if (anchor.is_punct(':') || anchor.is_punct('=')) && name.kind == TokKind::Ident {
            names.insert(name.text.clone());
        }
    }
    names
}

/// Walk a `.method()` receiver chain backwards from `j` (the token
/// before the `.`), collecting identifier segments. Handles `self.x`,
/// `a.b.c`, and indexing `slots[v]`; stops at anything else (a call
/// result like `f().iter()` yields an empty chain — the lexical pass
/// cannot type it). The *last* element is the outermost receiver.
///
/// Each segment carries `behind_index: bool` — whether an `[…]` index
/// sits between it and the method. D1 must ignore those
/// (`samples[&k][i].iter()` iterates a *value* of the map, which is
/// order-safe if the value type is), while D5 must keep them
/// (`slots[v].write()` locks the slot, not the index).
fn receiver_chain(code: &[&Token], mut j: isize) -> Vec<(String, bool)> {
    let mut chain = Vec::new();
    let mut behind_index = false;
    while j >= 0 {
        let t = code[j as usize];
        match t.kind {
            TokKind::Ident => {
                chain.push((t.text.clone(), behind_index));
                j -= 1;
                if j >= 0 && code[j as usize].is_punct('.') {
                    j -= 1;
                    continue;
                }
                break;
            }
            TokKind::Punct if t.is_punct(']') => {
                // Skip the balanced index expression.
                let mut depth = 1;
                j -= 1;
                while j >= 0 && depth > 0 {
                    if code[j as usize].is_punct(']') {
                        depth += 1;
                    } else if code[j as usize].is_punct('[') {
                        depth -= 1;
                    }
                    j -= 1;
                }
                behind_index = true;
                continue;
            }
            _ => break,
        }
    }
    chain
}

/// Detect `for pat in [&[mut]] <simple map expr> {` starting at the
/// `for` token; returns (line, receiver name) on a hit. Bails on any
/// call in the iterated expression (can't be typed lexically) and on
/// `impl X for Y` (no top-level `in`).
fn for_over_map(code: &[&Token], for_idx: usize, map_names: &BTreeSet<String>) -> Option<(usize, String)> {
    // Find the top-level `in` before the loop body's `{`.
    let mut depth = 0isize;
    let mut in_idx = None;
    for (i, &t) in code.iter().enumerate().skip(for_idx + 1) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            break;
        } else if depth == 0 && t.is_ident("in") {
            in_idx = Some(i);
            break;
        }
    }
    let in_idx = in_idx?;
    // Expression tokens from `in` to the body `{` at depth 0. An
    // index group *after* the candidate (`for x in &map[&k]`) means
    // the loop iterates a map *value*, not the map — skip it.
    let mut last_ident: Option<&Token> = None;
    let mut indexed_after = false;
    let mut depth = 0isize;
    for &t in &code[in_idx + 1..] {
        if t.is_punct('(') {
            return None; // a call — not a bare map binding
        }
        if t.is_punct('[') {
            if depth == 0 && last_ident.is_some() {
                indexed_after = true;
            }
            depth += 1;
            continue;
        }
        if t.is_punct(']') {
            depth -= 1;
            continue;
        }
        if depth == 0 && t.is_punct('{') {
            break;
        }
        if depth == 0 && t.kind == TokKind::Ident && t.text != "mut" {
            last_ident = Some(t);
            indexed_after = false;
        }
    }
    if indexed_after {
        return None;
    }
    let t = last_ident?;
    if map_names.contains(&t.text) {
        Some((t.line, t.text.clone()))
    } else {
        None
    }
}

/// Line spans of `#[cfg(test)] mod … { … }` items.
fn cfg_test_spans(code: &[&Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#') && i + 1 < code.len() && code[i + 1].is_punct('[') {
            // Find the matching `]` and check for cfg + test inside.
            let mut depth = 1;
            let mut j = i + 2;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while j < code.len() && depth > 0 {
                let t = code[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                } else if t.is_ident("cfg") {
                    saw_cfg = true;
                } else if t.is_ident("test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                // Skip further attributes, then expect `mod name {`.
                let mut k = j;
                while k + 1 < code.len() && code[k].is_punct('#') && code[k + 1].is_punct('[') {
                    let mut d = 1;
                    k += 2;
                    while k < code.len() && d > 0 {
                        if code[k].is_punct('[') {
                            d += 1;
                        } else if code[k].is_punct(']') {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                // Skip a visibility modifier: `pub` or `pub(crate)` /
                // `pub(in …)` before `mod`.
                if k < code.len() && code[k].is_ident("pub") {
                    k += 1;
                    if k < code.len() && code[k].is_punct('(') {
                        let mut d = 1;
                        k += 1;
                        while k < code.len() && d > 0 {
                            if code[k].is_punct('(') {
                                d += 1;
                            } else if code[k].is_punct(')') {
                                d -= 1;
                            }
                            k += 1;
                        }
                    }
                }
                if k + 2 < code.len()
                    && code[k].is_ident("mod")
                    && code[k + 1].kind == TokKind::Ident
                    && code[k + 2].is_punct('{')
                {
                    if let Some(close) = match_brace(code, k + 2) {
                        spans.push((code[k + 2].line, code[close].line));
                        i = close + 1;
                        continue;
                    }
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(code: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0isize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Token ranges of function bodies (`fn name(…) … { … }`).
fn fn_bodies(code: &[&Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("fn") {
            // Find the parameter list, then the first `{` after it.
            let mut j = i + 1;
            while j < code.len() && !code[j].is_punct('(') {
                j += 1;
            }
            let mut depth = 0isize;
            while j < code.len() {
                if code[j].is_punct('(') {
                    depth += 1;
                } else if code[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let mut k = j;
            while k < code.len() && !code[k].is_punct('{') && !code[k].is_punct(';') {
                k += 1;
            }
            if k < code.len() && code[k].is_punct('{') {
                if let Some(close) = match_brace(code, k) {
                    out.push((k + 1, close));
                    i = k + 1; // nested fns get their own entry
                    continue;
                }
            }
            i = k + 1;
            continue;
        }
        i += 1;
    }
    out
}
