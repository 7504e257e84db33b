//! Workload generators modelling the Filebench personalities used in the
//! paper's evaluation (§4.3).
//!
//! Three families are provided:
//!
//! * **Random read/write mixes** at the paper's ratios (9:1, 4:1, 1:1, 1:4,
//!   1:9), five threads per client;
//! * **Fileserver** — the Filebench file-server personality (create / append /
//!   whole-file read / delete / stat loop), 32 instances per client, which
//!   mixes data and metadata operations and is the noisiest workload; and
//! * **Sequential write** — five 1 MB-I/O write streams per client,
//!   simulating HPC checkpointing and video-surveillance ingest.

use rand::Rng;

/// Per-client, per-tick I/O demand presented to the storage cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Demand {
    /// Read bytes the client wants to move this second, in MB.
    pub read_mb: f64,
    /// Write bytes the client wants to move this second, in MB.
    pub write_mb: f64,
    /// Fraction of the read bytes that are sequential.
    pub read_seq_fraction: f64,
    /// Fraction of the write bytes that are sequential.
    pub write_seq_fraction: f64,
    /// Metadata operations (create/delete/stat) issued this second.
    pub metadata_ops: f64,
    /// Number of I/O-issuing threads the client is running.
    pub active_threads: f64,
}

/// I/O threads per client of the random read/write mixes (paper: 5).
const THREADS_PER_CLIENT: usize = 5;
/// Fileserver workload instances per client (paper: 32).
const INSTANCES_PER_CLIENT: usize = 32;
/// Sequential-write streams per client (paper: 5, 1 MB writes).
const STREAMS_PER_CLIENT: usize = 5;

/// The workload families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Random read/write mix; `read_fraction` is the share of bytes that are
    /// reads (0.9 for the 9:1 workload, 0.1 for 1:9, …).
    RandomReadWrite {
        /// Fraction of demanded bytes that are reads.
        read_fraction: f64,
    },
    /// The Filebench fileserver personality.
    FileServer,
    /// Concurrent sequential-write streams.
    SequentialWrite,
}

impl WorkloadKind {
    /// Short human-readable label, used by the figure harness.
    pub fn label(&self) -> String {
        match self {
            WorkloadKind::RandomReadWrite { read_fraction } => {
                let r = (read_fraction * 10.0).round() as u32;
                format!("random {}:{}", r, 10 - r)
            }
            WorkloadKind::FileServer => "fileserver".to_string(),
            WorkloadKind::SequentialWrite => "sequential write".to_string(),
        }
    }

    /// The family's per-client count: I/O threads, fileserver instances or
    /// write streams.
    fn per_client(&self) -> usize {
        match self {
            WorkloadKind::RandomReadWrite { .. } => THREADS_PER_CLIENT,
            WorkloadKind::FileServer => INSTANCES_PER_CLIENT,
            WorkloadKind::SequentialWrite => STREAMS_PER_CLIENT,
        }
    }
}

/// A stateful workload generator for one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    kind: WorkloadKind,
}

impl Workload {
    /// Random read/write workload with the given read:write byte ratio
    /// expressed as a read fraction (e.g. `0.1` for the paper's 1:9 mix).
    pub fn random_rw(read_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&read_fraction));
        Workload::from_kind(WorkloadKind::RandomReadWrite { read_fraction })
    }

    /// The Filebench fileserver workload (32 instances per client).
    pub fn fileserver() -> Self {
        Workload::from_kind(WorkloadKind::FileServer)
    }

    /// The five-stream sequential-write workload.
    pub fn sequential_write() -> Self {
        Workload::from_kind(WorkloadKind::SequentialWrite)
    }

    /// Builds a workload directly from a [`WorkloadKind`].
    pub fn from_kind(kind: WorkloadKind) -> Self {
        Workload { kind }
    }

    /// The workload family.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Relative demand fluctuation from second to second.
    fn burstiness(&self) -> f64 {
        match self.kind {
            WorkloadKind::RandomReadWrite { .. } => 0.06,
            WorkloadKind::FileServer => 0.18,
            WorkloadKind::SequentialWrite => 0.04,
        }
    }

    /// Demand presented by one client during one tick. `rng` supplies the
    /// per-second fluctuation; the same seed gives the same demand trace.
    pub(crate) fn demand<R: Rng + ?Sized>(&self, rng: &mut R) -> Demand {
        let burstiness = self.burstiness();
        let noise = |rng: &mut R| 1.0 + rng.gen_range(-burstiness..burstiness);
        match self.kind {
            WorkloadKind::RandomReadWrite { read_fraction } => {
                // Each thread keeps roughly 30 MB/s of 1 MB random I/O demand
                // outstanding — five threads per client are comfortably enough
                // to saturate the four-disk backend across five clients.
                let per_thread_mb = 30.0;
                let total = per_thread_mb * THREADS_PER_CLIENT as f64 * noise(rng);
                Demand {
                    read_mb: total * read_fraction,
                    write_mb: total * (1.0 - read_fraction),
                    read_seq_fraction: 0.0,
                    write_seq_fraction: 0.0,
                    metadata_ops: 2.0,
                    active_threads: THREADS_PER_CLIENT as f64,
                }
            }
            WorkloadKind::FileServer => {
                // Each fileserver instance loops create(100 MB write), append
                // (~100 MB write), whole-file read (100 MB), delete, stat.
                // With 32 instances per client the offered load far exceeds
                // the backend capacity, so the cluster runs saturated, and the
                // mix is ~1/3 read, ~2/3 write plus heavy metadata traffic.
                let inst = INSTANCES_PER_CLIENT as f64;
                let per_instance_mb = 6.0;
                let total = per_instance_mb * inst * noise(rng);
                Demand {
                    read_mb: total * (1.0 / 3.0) * noise(rng),
                    write_mb: total * (2.0 / 3.0) * noise(rng),
                    read_seq_fraction: 0.6,
                    write_seq_fraction: 0.35,
                    metadata_ops: 3.0 * inst * noise(rng),
                    active_threads: inst,
                }
            }
            WorkloadKind::SequentialWrite => {
                // Each stream writes 1 MB requests back to back; a single
                // stream can push ~35 MB/s through the client-side stack.
                let per_stream_mb = 35.0;
                let total = per_stream_mb * STREAMS_PER_CLIENT as f64 * noise(rng);
                Demand {
                    read_mb: 0.0,
                    write_mb: total,
                    read_seq_fraction: 0.0,
                    write_seq_fraction: 1.0,
                    metadata_ops: 0.5,
                    active_threads: STREAMS_PER_CLIENT as f64,
                }
            }
        }
    }
}

impl capes_persist::Persist for WorkloadKind {
    const MIN_SIZE: usize = 9; // tag + smallest payload

    fn encode(&self, w: &mut capes_persist::Writer) {
        match self {
            WorkloadKind::RandomReadWrite { read_fraction } => {
                w.put_u8(0);
                w.put_f64(*read_fraction);
            }
            WorkloadKind::FileServer => w.put_u8(1),
            WorkloadKind::SequentialWrite => w.put_u8(2),
        }
        // v1 slot of the former per-client count field.
        w.put_usize(self.per_client());
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let kind = match r.get_u8()? {
            0 => {
                let read_fraction = r.get_f64()?;
                if !(0.0..=1.0).contains(&read_fraction) {
                    return Err(capes_persist::PersistError::BadValue {
                        what: "workload read fraction outside [0, 1]",
                    });
                }
                WorkloadKind::RandomReadWrite { read_fraction }
            }
            1 => WorkloadKind::FileServer,
            2 => WorkloadKind::SequentialWrite,
            _ => {
                return Err(capes_persist::PersistError::BadValue {
                    what: "unknown workload tag",
                })
            }
        };
        if r.get_usize()? != kind.per_client() {
            return Err(capes_persist::PersistError::BadValue {
                what: "workload per-client count is not the family's constant",
            });
        }
        Ok(kind)
    }
}

impl capes_persist::Persist for Workload {
    const MIN_SIZE: usize = WorkloadKind::MIN_SIZE;

    fn encode(&self, w: &mut capes_persist::Writer) {
        // Burstiness and the per-client count are functions of the kind, so
        // the kind alone reconstructs the generator exactly.
        self.kind.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        Ok(Workload::from_kind(WorkloadKind::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_demand(w: &Workload, seed: u64) -> Demand {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = Demand {
            read_mb: 0.0,
            write_mb: 0.0,
            read_seq_fraction: 0.0,
            write_seq_fraction: 0.0,
            metadata_ops: 0.0,
            active_threads: 0.0,
        };
        let n = 200;
        for _ in 0..n {
            let d = w.demand(&mut rng);
            acc.read_mb += d.read_mb;
            acc.write_mb += d.write_mb;
            acc.metadata_ops += d.metadata_ops;
            acc.active_threads = d.active_threads;
        }
        acc.read_mb /= n as f64;
        acc.write_mb /= n as f64;
        acc.metadata_ops /= n as f64;
        acc
    }

    #[test]
    fn random_rw_ratio_is_respected() {
        for read_fraction in [0.9, 0.8, 0.5, 0.2, 0.1] {
            let w = Workload::random_rw(read_fraction);
            let d = mean_demand(&w, 1);
            let total = d.read_mb + d.write_mb;
            let measured = d.read_mb / total;
            assert!(
                (measured - read_fraction).abs() < 0.05,
                "ratio {read_fraction}: measured {measured}"
            );
            assert_eq!(d.active_threads, 5.0);
        }
    }

    #[test]
    fn random_rw_saturates_the_backend() {
        // Five clients × demand must exceed the ~420 MB/s random-write backend.
        let w = Workload::random_rw(0.1);
        let d = mean_demand(&w, 2);
        let aggregate = (d.read_mb + d.write_mb) * 5.0;
        assert!(aggregate > 400.0, "aggregate demand {aggregate} MB/s");
    }

    #[test]
    fn fileserver_mixes_data_and_metadata() {
        let w = Workload::fileserver();
        let d = mean_demand(&w, 3);
        assert!(d.write_mb > d.read_mb, "fileserver is write-dominated");
        assert!(d.metadata_ops > 10.0, "metadata traffic must be present");
        assert_eq!(d.active_threads, 32.0);
        assert_eq!(w.kind().label(), "fileserver");
    }

    #[test]
    fn sequential_write_is_pure_sequential_write() {
        let w = Workload::sequential_write();
        let mut rng = StdRng::seed_from_u64(4);
        let d = w.demand(&mut rng);
        assert_eq!(d.read_mb, 0.0);
        assert!(d.write_mb > 100.0);
        assert_eq!(d.write_seq_fraction, 1.0);
        assert_eq!(w.kind().label(), "sequential write");
    }

    #[test]
    fn demand_is_noisy_but_bounded() {
        let w = Workload::fileserver();
        let mut rng = StdRng::seed_from_u64(5);
        let demands: Vec<f64> = (0..500).map(|_| w.demand(&mut rng).write_mb).collect();
        let min = demands.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = demands.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > min, "demand must fluctuate");
        assert!(max / min < 2.5, "fluctuation must stay bounded");
    }

    #[test]
    fn labels_follow_paper_naming() {
        assert_eq!(Workload::random_rw(0.9).kind().label(), "random 9:1");
        assert_eq!(Workload::random_rw(0.1).kind().label(), "random 1:9");
        assert_eq!(Workload::random_rw(0.5).kind().label(), "random 5:5");
    }

    #[test]
    fn persist_round_trips_and_rejects_a_count_other_than_the_family_constant() {
        use capes_persist::{Persist, PersistError, Reader, Writer};
        for kind in [
            Workload::random_rw(0.3).kind(),
            Workload::fileserver().kind(),
            Workload::sequential_write().kind(),
        ] {
            let mut w = Writer::new();
            kind.encode(&mut w);
            let mut bytes = w.into_vec();
            assert_eq!(
                WorkloadKind::decode(&mut Reader::new(&bytes)).ok(),
                Some(kind)
            );
            // The count is the last eight bytes.
            let at = bytes.len() - 8;
            let count = kind.per_client() as u64;
            bytes[at..].copy_from_slice(&(count + 1).to_le_bytes());
            assert!(
                matches!(
                    WorkloadKind::decode(&mut Reader::new(&bytes)),
                    Err(PersistError::BadValue { .. })
                ),
                "{} with {} per client must not decode",
                kind.label(),
                count + 1
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let w = Workload::fileserver();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(w.demand(&mut a), w.demand(&mut b));
        }
    }
}
