//! Fixture: `hot-path-alloc` rule, whole-file hot path.
//! Violations at lines 6, 8, 9, 10, 11, 23 and 24.

/// The whole file is declared hot, so every allocation below is flagged.
pub fn tick(xs: &[f64]) -> f64 {
    let mut scratch = Vec::new();
    scratch.push(xs.len());
    let copy = xs.to_vec();
    let label = format!("{} rows", xs.len());
    let doubled: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
    let boxed = Box::new(xs.len());
    let _ = (copy, label, doubled, boxed);
    xs.iter().sum()
}

/// Arithmetic stays clean: nothing here allocates.
pub fn fused(a: f64, b: f64, c: f64) -> f64 {
    a * b + c
}

/// Owned paths allocate too.
pub fn sibling(path: &std::path::Path) -> std::path::PathBuf {
    let name = path.to_path_buf();
    std::path::PathBuf::from(name)
}
