//! The machine-written host block every record carries.

use serde::Value;
use std::path::Path;

pub struct Host {
    pub commit: String,
    pub nproc: usize,
    pub cpu: String,
    pub simd: String,
    pub gemm_threads: usize,
    pub snapshot_dir: String,
    pub snapshot_fs: String,
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The checkout's commit, read from `.git` in the working directory only
/// (the benchmark reads nothing outside its checkout); `unknown` in an
/// exported tree.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&format!(".git/{reference}"))
            .or_else(|| {
                let packed = read(".git/packed-refs")?;
                let line = packed.lines().find(|l| l.ends_with(reference))?;
                Some(line.split_whitespace().next()?.to_string())
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Filesystem type of the longest mount point that prefixes `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut fields = l.split_whitespace();
                    let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
                    dir.starts_with(point)
                        .then(|| (point.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}

impl Host {
    pub fn detect(out_dir: &Path) -> Self {
        Host {
            commit: commit(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: first_line_value("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            simd: format!("{:?}", capes_tensor::simd::detected_level()),
            gemm_threads: capes_tensor::pool::configured_threads(),
            snapshot_dir: out_dir.display().to_string(),
            snapshot_fs: filesystem_of(out_dir),
        }
    }

    /// The host block; `fleet_workers` is what the run's fleet resolved.
    pub fn to_value(&self, fleet_workers: usize) -> Value {
        let s = |v: &str| Value::Str(v.to_string());
        Value::Map(vec![
            ("commit".into(), s(&self.commit)),
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("cpu".into(), s(&self.cpu)),
            ("simd".into(), s(&self.simd)),
            ("fleet_workers".into(), Value::U64(fleet_workers as u64)),
            ("gemm_threads".into(), Value::U64(self.gemm_threads as u64)),
            ("snapshot_dir".into(), s(&self.snapshot_dir)),
            ("snapshot_fs".into(), s(&self.snapshot_fs)),
        ])
    }

    pub fn line(&self, fleet_workers: usize) -> String {
        format!(
            "host: commit {} · nproc {} · {} · simd {} · fleet workers {} · gemm threads {} · snapshots on {} ({})",
            self.commit,
            self.nproc,
            self.cpu,
            self.simd,
            fleet_workers,
            self.gemm_threads,
            self.snapshot_dir,
            self.snapshot_fs
        )
    }
}
