//! `bat-tensor` is portable Rust that `tiered!` compiles once per SIMD tier,
//! with one exception: the AVX-512 clone's fold networks, which portable code
//! could not express (EXPERIMENTS.md, PR 25), are intrinsics in `fold.rs`.
//! This test reads the sources and fails on an intrinsic anywhere else — or
//! on a function in `fold.rs` that could be compiled for a CPU, or called
//! from a tier, it does not belong to.

use std::path::Path;

/// What marks an intrinsic: the `std::arch` paths and the intrinsics' names.
const INTRINSICS: [&str; 3] = ["std::arch::", "core::arch::", "_mm"];

/// The file that holds the intrinsics.
const NETWORKS: &str = "fold.rs";

/// The file that detects the tiers: `std::arch::is_*_feature_detected!`.
const DETECTION: &str = "simd.rs";

/// The attributes every function in [`NETWORKS`] carries.
const GATES: [&str; 2] = ["#[cfg(target_arch = \"x86_64\")]", "#[target_feature("];

/// A line with its comment cut off.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

#[test]
fn intrinsics_stay_in_the_fold_networks() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut offenders = Vec::new();
    let mut scanned = 0;
    for entry in std::fs::read_dir(&src).expect("source directory lists") {
        let path = entry.expect("directory entry reads").path();
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        scanned += 1;
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("source file reads");
        for (i, line) in source.lines().enumerate() {
            let line = code(line);
            let allowed = match name.as_str() {
                NETWORKS => true,
                DETECTION => line.contains("_feature_detected!") && !line.contains("_mm"),
                _ => false,
            };
            if !allowed && INTRINSICS.iter().any(|marker| line.contains(marker)) {
                offenders.push(format!("{name}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(scanned >= 8, "scanned only {scanned} files");
    assert!(
        offenders.is_empty(),
        "SIMD intrinsics outside {NETWORKS}: the kernels are portable bodies that \
         `tiered!` compiles per tier; an intrinsic belongs in {NETWORKS}, behind \
         `#[cfg(target_arch = \"x86_64\")]` and `#[target_feature(...)]`, reached only \
         from a `WIDE` body (run-time detection lives in {DETECTION}):\n  {}",
        offenders.join("\n  ")
    );
}

#[test]
fn every_network_function_is_gated_to_its_cpu() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("src")
        .join(NETWORKS);
    let source = std::fs::read_to_string(&path).expect("the networks' source reads");
    let mut functions = 0;
    let mut ungated = Vec::new();
    // The attributes seen since the last item.
    let mut attributes: Vec<&str> = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let line = code(line).trim();
        if line.starts_with("#[") {
            attributes.push(line);
        } else if line.starts_with("fn ") || line.starts_with("pub(crate) fn ") {
            functions += 1;
            let missing: Vec<&str> = GATES
                .iter()
                .copied()
                .filter(|gate| !attributes.iter().any(|attr| attr.starts_with(gate)))
                .collect();
            if !missing.is_empty() {
                ungated.push(format!("{NETWORKS}:{}: {line} lacks {missing:?}", i + 1));
            }
            attributes.clear();
        } else if !line.is_empty() {
            attributes.clear();
        }
    }
    assert!(
        functions >= 4,
        "found only {functions} functions in {NETWORKS}"
    );
    assert!(
        ungated.is_empty(),
        "every function in {NETWORKS} is x86-64 AVX-512 code: gate it with \
         `#[cfg(target_arch = \"x86_64\")]` and `#[target_feature(enable = \
         \"avx512f,avx2,fma\")]`:\n  {}",
        ungated.join("\n  ")
    );
}
