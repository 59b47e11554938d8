//! A test may bound a wall-clock reading from below — paced work must not
//! finish before its priced time — but not from above. An `assert!` that
//! `elapsed()` or `Instant::now()` is under some bound fails whenever the
//! machine is loaded enough to deschedule the test between its two clock
//! reads, which no change to the code caused. This test reads the test
//! code of every source and fails on such an assert: an assert whose
//! condition compares a clock read, or a `let` bound to an `elapsed()`, on
//! the smaller side. An `Instant::now()` bound earlier may sit on that side
//! (a later charge finishes after it however late it runs), and so may a
//! read on the larger side or one that divides (a rate over a window is
//! bounded from above by bounding the window from below).

#[path = "../../../tests/support/source_scan.rs"]
mod source_scan;

use source_scan::{code_with_tests_without_strings, repo_root, sources};

/// What reads the wall clock where the assert runs.
const CLOCK_READS: [&str; 2] = ["elapsed()", "Instant::now()"];

/// The comparisons a condition may make, with whether the smaller side is
/// the left one. rustfmt spaces a binary operator, not a generic's `<`.
const COMPARISONS: [(&str, bool); 4] = [
    (" <= ", true),
    (" < ", true),
    (" >= ", false),
    (" > ", false),
];

/// `Ok` where `pattern` first occurs in `code` outside any bracket, or
/// `Err` where the expression `code` starts with ends first: at a bracket
/// it did not open, or at the end of `code`.
fn top_level_find(code: &str, pattern: &str) -> Result<usize, usize> {
    let mut depth = 0i32;
    for (i, c) in code.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => return Err(i),
            ')' | ']' | '}' => depth -= 1,
            _ if depth == 0 && code[i..].starts_with(pattern) => return Ok(i),
            _ => {}
        }
    }
    Err(code.len())
}

/// `code` up to its first top-level ` / `: a clock read in a divisor
/// bounds the clock the other way.
fn dividend(code: &str) -> &str {
    &code[..top_level_find(code, " / ").unwrap_or_else(|end| end)]
}

/// `condition`'s clauses: its pieces between top-level `&&`s and `||`s.
fn clauses(condition: &str) -> Vec<&str> {
    let mut found = vec![condition];
    for joint in [" && ", " || "] {
        found = found
            .into_iter()
            .flat_map(|clause| {
                let mut parts = Vec::new();
                let mut rest = clause;
                while let Ok(at) = top_level_find(rest, joint) {
                    parts.push(&rest[..at]);
                    rest = &rest[at + joint.len()..];
                }
                parts.push(rest);
                parts
            })
            .collect();
    }
    found
}

/// Whether `code`'s dividend reads the clock, directly or through a
/// `measured` name.
fn reads_clock(code: &str, measured: &[String]) -> bool {
    let code = dividend(code);
    CLOCK_READS.iter().any(|read| code.contains(read))
        || code
            .split(|c: char| c != '_' && !c.is_alphanumeric())
            .any(|word| measured.iter().any(|m| m == word))
}

/// Whether `condition` (whitespace collapsed) bounds a clock read from
/// above: one of its clauses compares with the read on the smaller side.
fn bounds_clock_from_above(condition: &str, measured: &[String]) -> bool {
    clauses(condition).into_iter().any(|clause| {
        COMPARISONS
            .iter()
            .find_map(|&(op, left_is_smaller)| {
                let at = top_level_find(clause, op).ok()?;
                let (left, right) = (&clause[..at], &clause[at + op.len()..]);
                Some(if left_is_smaller { left } else { right })
            })
            .is_some_and(|smaller| reads_clock(smaller, measured))
    })
}

/// The names `code` binds with `let` to an expression whose dividend
/// reads `elapsed()`.
fn measured_names(code: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, _) in code.match_indices("let ") {
        let rest = code[at + 4..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let len = rest
            .find(|c: char| c != '_' && !c.is_alphanumeric())
            .unwrap_or(rest.len());
        let init = rest[len..].trim_start();
        let Some(init) = init.strip_prefix("= ") else {
            continue;
        };
        let end = top_level_find(init, ";").unwrap_or_else(|end| end);
        if len > 0 && dividend(&init[..end]).contains("elapsed()") {
            names.push(rest[..len].to_owned());
        }
    }
    names
}

/// `(line, condition)` of every `assert!`, `debug_assert!` and
/// `prop_assert!` in `code`, the condition's whitespace collapsed.
fn assert_conditions(code: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (at, call) in code.match_indices("assert!(") {
        let args = &code[at + call.len()..];
        // Up to the message, or to the call's `)` where there is none.
        let end = top_level_find(args, ",").unwrap_or_else(|end| end);
        let line = code[..at].matches('\n').count() + 1;
        found.push((
            line,
            args[..end].split_whitespace().collect::<Vec<_>>().join(" "),
        ));
    }
    found
}

#[test]
fn no_test_bounds_the_wall_clock_from_above() {
    let root = repo_root();
    let mut offenders = Vec::new();
    let mut scanned = 0;
    for dir in ["crates", "tests", "examples"] {
        for path in sources(&root.join(dir)) {
            scanned += 1;
            let code = code_with_tests_without_strings(&path);
            let measured = measured_names(&code);
            for (line, condition) in assert_conditions(&code) {
                if bounds_clock_from_above(&condition, &measured) {
                    let file = path.strip_prefix(&root).unwrap_or(&path).display();
                    offenders.push(format!("{file}:{line}: {condition}"));
                }
            }
        }
    }
    assert!(scanned >= 100, "scanned only {scanned} files");
    assert!(
        offenders.is_empty(),
        "asserts that bound a wall-clock reading from above, which load \
         breaks (bound it from below, or check what the clock read \
         decides, as the pacer's tests check `lead_at`):\n  {}",
        offenders.join("\n  ")
    );
}

#[test]
fn the_scan_reads_which_side_a_clock_read_is_on() {
    let measured = measured_names(
        "let blocked = t0.elapsed();\nlet t0 = Instant::now();\n\
         let busy = cpu / t0.elapsed().as_secs_f64();",
    );
    assert_eq!(measured, ["blocked"]);
    let code = "assert!(\n    t0.elapsed() < 50 * GRANULE,\n    \"                 \"\n);";
    assert_eq!(
        assert_conditions(code),
        [(1, "t0.elapsed() < 50 * GRANULE".to_owned())]
    );
    for (condition, above) in [
        ("t0.elapsed() < 50 * GRANULE", true),
        ("deadline > Instant::now()", true),
        ("Instant::now() <= deadline", true),
        ("ok && f(t.elapsed(), 1) <= limit", true),
        ("blocked < Duration::from_millis(10)", true),
        ("t0.elapsed() >= priced", false),
        ("Instant::now() >= deadline", false),
        ("next <= Instant::now() + GRANULE", false),
        ("blocked + GRANULE >= Duration::from_millis(10)", false),
        ("finish >= t0 + priced", false),
        ("sleeps <= most", false),
        ("v.len() < Vec::<u8>::new().capacity()", false),
        ("busy < 0.10", false),
        ("cpu / t0.elapsed().as_secs_f64() < 0.10", false),
        ("t0.elapsed().as_secs_f64() / n < 0.10", true),
    ] {
        assert_eq!(
            bounds_clock_from_above(condition, &measured),
            above,
            "{condition}"
        );
    }
}
