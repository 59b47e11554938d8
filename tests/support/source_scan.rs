//! What the source-scan tests (`crates/*/tests/one_*.rs`) share: list a
//! tree's `.rs` files, read a file's code without comments, its trailing
//! `#[cfg(test)]` module or its other `#[cfg(test)]` items, find names in
//! it, and tell each identifier's role. Each scan pulls this file in with `#[path]`, so not every scan
//! uses every helper.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

/// The repository root, from the manifest of a crate under `crates/`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.rs` files under `dir`, recursively.
pub fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("directory lists") {
        let path = entry.expect("directory entry reads").path();
        if path.is_dir() {
            found.extend(sources(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            found.push(path);
        }
    }
    found
}

/// `(line number, code)` of a source without its test-only code (unit
/// tests may build whatever they compare against) and with comments cut
/// off (comments may name what is gone). String literals are kept, so a
/// banned name pasted into a string constant is still found.
pub fn code_lines(path: &Path) -> Vec<(usize, String)> {
    scan(path, false)
}

/// [`code_lines`] with the contents of every string and char literal
/// blanked, so a name that only a message spells out is not code.
pub fn code_lines_without_strings(path: &Path) -> Vec<(usize, String)> {
    scan(path, true)
}

/// The whole of `path` with comments cut off, test code included: what a
/// dev-dependency may be named in.
pub fn code_with_tests(path: &Path) -> String {
    strip_comments(&std::fs::read_to_string(path).expect("source file reads")).0
}

/// [`code_with_tests`] with the contents of every string and char literal
/// blanked, so an assert's message is not read as its condition.
pub fn code_with_tests_without_strings(path: &Path) -> String {
    strip_comments(&std::fs::read_to_string(path).expect("source file reads")).1
}

/// Reads `path` as [`code_lines`] does. Test-only code is the `#[cfg(test)]`
/// module and everything after it, and any other item `#[cfg(test)]` marks
/// (a function, say), through the line that closes it.
fn scan(path: &Path, blank_strings: bool) -> Vec<(usize, String)> {
    let source = std::fs::read_to_string(path).expect("source file reads");
    let (kept, blanked) = strip_comments(&source);
    let kept: Vec<&str> = kept.lines().collect();
    let blanked: Vec<&str> = blanked.lines().collect();
    let mut lines = Vec::new();
    let mut i = 0;
    while i < kept.len() {
        if kept[i].trim() != "#[cfg(test)]" {
            let line = if blank_strings { blanked[i] } else { kept[i] };
            lines.push((i + 1, line.to_owned()));
            i += 1;
            continue;
        }
        let item = (i + 1..blanked.len()).find(|&j| {
            let code = blanked[j].trim();
            !code.is_empty() && !code.starts_with("#[")
        });
        let Some(item) = item else { break };
        if blanked[item].trim_start().starts_with("mod ") {
            break;
        }
        // Skip the marked item: through the line its braces close on, or
        // its `;` if it opens none.
        let (mut depth, mut opened, mut end) = (0i64, false, item);
        for (j, code) in blanked.iter().enumerate().skip(item) {
            end = j;
            opened |= code.contains('{');
            depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if depth == 0 && (opened || code.trim_end().ends_with(';')) {
                break;
            }
        }
        i = end + 1;
    }
    lines
}

/// `source` with its line comments removed, twice: once as written, once
/// with the inside of every string and char literal replaced by spaces.
/// Both keep every newline, so line numbers survive.
fn strip_comments(source: &str) -> (String, String) {
    let chars: Vec<char> = source.chars().collect();
    let at = |j: usize| chars.get(j).copied();
    let (mut kept, mut blanked) = (String::new(), String::new());
    // Copies `chars[from..to]`, blanking it if it is a literal's inside.
    let mut copy = |from: usize, to: usize, inside: bool| {
        for &c in &chars[from..to] {
            kept.push(c);
            blanked.push(if inside && c != '\n' { ' ' } else { c });
        }
    };
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '/' && at(i + 1) == Some('/') {
            while at(i).is_some_and(|c| c != '\n') {
                i += 1;
            }
            continue;
        }
        // A literal opens here: where its inside starts, the delimiter that
        // closes it, and whether `\` escapes the next char.
        let after_ident = i > 0 && (chars[i - 1] == '_' || chars[i - 1].is_alphanumeric());
        let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
        let literal = if c == 'r' && !after_ident && at(i + 1 + hashes) == Some('"') {
            Some((i + 2 + hashes, format!("\"{}", "#".repeat(hashes)), false))
        } else if c == '"' {
            Some((i + 1, "\"".to_owned(), true))
        } else if c == '\'' && (at(i + 1) == Some('\\') || at(i + 2) == Some('\'')) {
            // A char literal; a lifetime has no closing quote two along.
            Some((i + 1, "'".to_owned(), true))
        } else {
            None
        };
        let Some((open, close, escapes)) = literal else {
            copy(i, i + 1, false);
            i += 1;
            continue;
        };
        let close: Vec<char> = close.chars().collect();
        let mut end = open;
        while end < chars.len() && !chars[end..].starts_with(&close) {
            end += if escapes && chars[end] == '\\' { 2 } else { 1 };
        }
        let end = end.min(chars.len());
        let after = (end + close.len()).min(chars.len());
        copy(i, open, false);
        copy(open, end, true);
        copy(end, after, false);
        i = after;
    }
    (kept, blanked)
}

/// `path:line: `pattern`` for every pattern found in the code of `path`.
pub fn hits(path: &Path, patterns: &[&str]) -> Vec<String> {
    let mut found = Vec::new();
    for (i, line) in code_lines(path) {
        for pattern in patterns.iter().filter(|p| line.contains(*p)) {
            found.push(format!("{}:{i}: `{pattern}`", path.display()));
        }
    }
    found
}

/// [`hits`] of `names` in every source under `crates/`, `tests/` and
/// `examples/` except the scan `this_file` (pass `file!()`), which names
/// them. Fails if the walk saw too few files to be the whole tree.
pub fn workspace_hits(names: &[&str], this_file: &str) -> Vec<String> {
    let this_file = Path::new(this_file).file_name();
    let mut found = Vec::new();
    let mut scanned = 0;
    for dir in ["crates", "tests", "examples"] {
        for path in sources(&repo_root().join(dir)) {
            if path.file_name() != this_file {
                scanned += 1;
                found.extend(hits(&path, names));
            }
        }
    }
    assert!(scanned >= 100, "scanned only {scanned} files");
    found
}

/// What an identifier is where it stands in the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The name a `fn` item defines, with how many parameters it takes,
    /// `self` included; `None` for a `fn` in a macro's own syntax (neither
    /// a body nor a `;` follows its parameters), whose expansion may take
    /// others.
    Defines(Option<usize>),
    /// Called — `name(…)`, `Path::name(…)` or `.name(…)` — with this many
    /// arguments, a method call's receiver included; `None` where the scan
    /// cannot count them (a closure or a `<` among them).
    Call(Option<usize>),
    /// A path segment, next to `::`: a module, a type, or an item reached by
    /// path — a function passed by value among them.
    Path,
    /// A field: read as `.name` without a call, or declared or keyed as
    /// `name:`.
    Field,
    /// A local introduced by `let`, a `for` pattern, or a parameter of a
    /// `fn` or a closure.
    Binding,
    /// A bare use of a name the enclosing `fn` bound before it: the local,
    /// which shadows any function of that name.
    Local,
    /// Any other bare use: a value, which may be a function passed by value.
    Value,
}

/// One identifier of a source, with the line it is on and its [`Role`].
#[derive(Debug)]
pub struct Ident {
    pub line: usize,
    pub name: String,
    pub role: Role,
}

/// Every identifier in the code of `path` as [`code_lines_without_strings`]
/// reads it, in order, each with its role. Bindings are tracked only as far
/// as a name counts as a local rather than a value: `let` and `for`
/// patterns and `fn` and closure parameters bind (match-arm patterns are
/// left as values), and a binding covers the rest of its `fn`, closures
/// and inner blocks included.
pub fn identifiers(path: &Path) -> Vec<Ident> {
    /// A word (an index into `names`), a number, or one punctuation char.
    enum Tok {
        Word(usize),
        Number,
        Punct(char),
    }
    let (mut names, mut lines, mut toks) = (Vec::new(), Vec::new(), Vec::new());
    for (line, code) in code_lines_without_strings(path) {
        let chars: Vec<char> = code.chars().collect();
        let mut k = 0;
        while k < chars.len() {
            let len = chars[k..]
                .iter()
                .take_while(|&&c| c == '_' || c.is_alphanumeric())
                .count();
            if len == 0 {
                if !chars[k].is_whitespace() {
                    toks.push(Tok::Punct(chars[k]));
                }
                k += 1;
                continue;
            }
            // A number literal (`1u64`, `0e5`) is no identifier.
            if chars[k].is_ascii_digit() {
                toks.push(Tok::Number);
            } else {
                toks.push(Tok::Word(names.len()));
                names.push(chars[k..k + len].iter().collect::<String>());
                lines.push(line);
            }
            k += len;
        }
    }
    let punct = |k: usize| match toks.get(k) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    };
    let word = |k: usize| match toks.get(k) {
        Some(&Tok::Word(w)) => Some(names[w].as_str()),
        _ => None,
    };
    let path_sep = |k: usize| punct(k) == Some(':') && punct(k + 1) == Some(':');
    let opener = |k: usize| matches!(punct(k), Some('(' | '[' | '{'));
    let closer = |k: usize| matches!(punct(k), Some(')' | ']' | '}'));
    // The first token from `from` on, outside any bracket opened after it,
    // that `stop` accepts (a closing bracket there closes an earlier one).
    let find = |from: usize, stop: &dyn Fn(usize) -> bool| {
        let mut nest = 0;
        for k in from..toks.len() {
            if nest == 0 && stop(k) {
                return k;
            }
            nest += i32::from(opener(k)) - i32::from(closer(k));
        }
        toks.len()
    };
    // The `(` that opens the parameters of the `fn` named at `k`: the
    // first one outside its generics.
    let params = |k: usize| {
        let mut angles = 0;
        (k + 1..toks.len()).find(|&o| {
            match punct(o) {
                Some('<') => angles += 1,
                Some('>') if punct(o - 1) != Some('-') => angles -= 1,
                _ => {}
            }
            angles == 0 && punct(o) == Some('(')
        })
    };
    // How many items the list opened at `open` holds: `None` when a
    // closure's `|` or a `<` at its top level hides the count, except in a
    // signature (`types`), where `<…>` brackets generic arguments.
    let arguments = |open: usize, types: bool| {
        let close = find(open + 1, &closer);
        let (mut items, mut angles, mut k) = (usize::from(close > open + 1), 0, open + 1);
        while k < close {
            match punct(k) {
                Some(',') if angles == 0 && k + 1 < close => items += 1,
                Some('|') => return None,
                Some('<') if !types => return None,
                Some('<') => angles += 1,
                Some('>') if types && punct(k - 1) != Some('-') => angles -= 1,
                _ => {}
            }
            k = if opener(k) { find(k + 1, &closer) } else { k } + 1;
        }
        Some(items)
    };
    // The words a pattern in `from..to` binds: those ahead of a `:` of
    // theirs, which starts a type.
    let pattern = |from: usize, to: usize| {
        let (mut nest, mut typed, mut words) = (0, false, Vec::new());
        for (k, tok) in toks.iter().enumerate().take(to).skip(from) {
            nest += i32::from(opener(k)) - i32::from(closer(k));
            match *tok {
                Tok::Punct(',') if nest == 0 => typed = false,
                Tok::Punct(':') if !path_sep(k) && !path_sep(k - 1) => typed |= nest == 0,
                Tok::Word(w) if !typed => words.push(w),
                _ => {}
            }
        }
        words
    };

    // Where each word stands, from its neighbours alone.
    let mut roles = vec![Role::Value; names.len()];
    for (k, tok) in toks.iter().enumerate() {
        let &Tok::Word(w) = tok else { continue };
        let before = |n: usize| k.checked_sub(n).and_then(punct);
        roles[w] = if k > 0 && word(k - 1) == Some("fn") {
            let open = params(k).unwrap_or(toks.len());
            let after = find(find(open + 1, &closer) + 1, &|j| {
                matches!(punct(j), Some('{' | ';' | '='))
            });
            Role::Defines(arguments(open, true).filter(|_| punct(after) != Some('=')))
        } else if punct(k + 1) == Some('(') {
            let receiver = usize::from(before(1) == Some('.'));
            Role::Call(arguments(k + 1, false).map(|args| args + receiver))
        } else if path_sep(k + 1) || (k >= 2 && path_sep(k - 2)) {
            Role::Path
        } else if (before(1) == Some('.') && before(2) != Some('.')) || punct(k + 1) == Some(':') {
            Role::Field
        } else {
            Role::Value
        };
    }

    // Bindings, and the bare uses of a name after the enclosing `fn` bound
    // it: each `fn` with a body is a scope, `(where its body closes, the
    // words it has bound)`.
    let mut scopes: Vec<(usize, Vec<usize>)> = Vec::new();
    for (k, tok) in toks.iter().enumerate() {
        while scopes.last().is_some_and(|&(end, _)| end < k) {
            scopes.pop();
        }
        let bound = match *tok {
            Tok::Word(w) => match (roles[w], names[w].as_str()) {
                (Role::Defines(_), _) => {
                    let Some(open) = params(k) else { continue };
                    let close = find(open + 1, &closer);
                    let body = find(close + 1, &|j| matches!(punct(j), Some('{' | ';')));
                    if punct(body) != Some('{') {
                        continue; // declared without a body
                    }
                    scopes.push((find(body + 1, &closer), Vec::new()));
                    pattern(open + 1, close)
                }
                (_, "let") => pattern(k + 1, find(k + 1, &|j| matches!(punct(j), Some('=' | ';')))),
                (_, "for") if punct(k + 1) != Some('<') => {
                    let stop = find(k + 1, &|j| {
                        word(j) == Some("in") || matches!(punct(j), Some('{' | ';'))
                    });
                    if word(stop) != Some("in") {
                        continue; // `impl Trait for Type`
                    }
                    pattern(k + 1, stop)
                }
                (Role::Value, name) => {
                    let local = scopes
                        .last()
                        .is_some_and(|(_, bound)| bound.iter().any(|&b| names[b] == name));
                    if local {
                        roles[w] = Role::Local;
                    }
                    continue;
                }
                _ => continue,
            },
            // A closure's parameters, where an expression starts.
            Tok::Punct('|')
                if k.checked_sub(1).is_some_and(|b| {
                    matches!(punct(b), Some('(' | ',' | '=' | '{' | ';' | '['))
                        || matches!(word(b), Some("move" | "return"))
                }) =>
            {
                pattern(k + 1, find(k + 1, &|j| punct(j) == Some('|')))
            }
            _ => continue,
        };
        for w in bound {
            if matches!(roles[w], Role::Value | Role::Field) {
                roles[w] = Role::Binding;
                if let Some((_, scope)) = scopes.last_mut() {
                    scope.push(w);
                }
            }
        }
    }
    names
        .into_iter()
        .zip(lines)
        .zip(roles)
        .map(|((name, line), role)| Ident { line, name, role })
        .collect()
}
