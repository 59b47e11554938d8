//! What the source-scan tests (`crates/*/tests/one_*.rs`) share: list a
//! tree's `.rs` files, read a file's code without comments, its trailing
//! `#[cfg(test)]` module or its other `#[cfg(test)]` items, and find names
//! in it. Each scan pulls this file in with `#[path]`, so not every scan
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
