//! Offline reader for recorded wire traffic.
//!
//! [`crate::FleetDaemon::record_to`] taps the socket ingest path and appends
//! every decoded monitoring frame to an append-only record log (see
//! `capes_persist::RecordLogWriter` for the on-disk format). [`Replayer`]
//! walks such a log and yields the captured messages in arrival order, so
//! the traffic of a live socket fleet can be fed back through
//! [`capes::CapesSystem::ingest_message`] — deterministically, and without a
//! socket in the loop — either by hand or through
//! [`crate::FleetDaemon::replay_traffic`].

use capes_agents::wire::decode_message;
use capes_agents::Message;
use capes_persist::{PersistError, RecordLogReader};
use std::path::Path;

/// Streams `(tick, cluster, message)` triples out of a traffic record log.
pub struct Replayer {
    reader: RecordLogReader,
}

impl Replayer {
    /// Opens and validates the record log at `path`.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        Ok(Replayer {
            reader: RecordLogReader::open(path)?,
        })
    }

    /// Returns the next captured message, `Ok(None)` at a clean end of log,
    /// or a typed error on a torn tail, flipped bit, or a frame that no
    /// longer decodes as a wire message.
    pub fn next_message(&mut self) -> Result<Option<(u64, u32, Message)>, PersistError> {
        let Some(entry) = self.reader.next_record()? else {
            return Ok(None);
        };
        let message = decode_message(&entry.frame)?;
        Ok(Some((entry.tick, entry.cluster, message)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capes_agents::PiReport;
    use capes_persist::RecordLogWriter;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("capes-fleet-test-traffic");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn report(tick: u64) -> Message {
        Message::Report(PiReport {
            tick,
            node: 0,
            total_pis: 2,
            changed: vec![(0, 0.25), (1, -1.5)],
        })
    }

    #[test]
    fn replayer_yields_recorded_messages_in_order() {
        let path = temp_path("ordered.log");
        let mut w = RecordLogWriter::create(&path).unwrap();
        for tick in 1..=3u64 {
            let frame = capes_agents::wire::encode_message(&report(tick));
            w.append(tick, (tick % 2) as u32, &frame).unwrap();
        }
        w.finish().unwrap();
        let mut replayer = Replayer::open(&path).unwrap();
        let mut seen = Vec::new();
        while let Some((tick, cluster, message)) = replayer.next_message().unwrap() {
            assert!(matches!(message, Message::Report(ref r) if r.tick == tick));
            seen.push((tick, cluster));
        }
        assert_eq!(seen, vec![(1, 1), (2, 0), (3, 1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn undecodable_frames_are_typed_errors() {
        let path = temp_path("garbage.log");
        let mut w = RecordLogWriter::create(&path).unwrap();
        w.append(7, 0, b"not a wire frame").unwrap();
        w.finish().unwrap();
        let mut replayer = Replayer::open(&path).unwrap();
        assert!(matches!(
            replayer.next_message(),
            Err(PersistError::BadValue { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_frames_keep_their_decode_error() {
        let path = temp_path("truncated.log");
        let frame = capes_agents::wire::encode_message(&report(1));
        let mut w = RecordLogWriter::create(&path).unwrap();
        // Cut inside the header, before the entry count.
        w.append(1, 0, &frame[..3]).unwrap();
        w.finish().unwrap();
        let mut replayer = Replayer::open(&path).unwrap();
        assert!(matches!(
            replayer.next_message(),
            Err(PersistError::UnexpectedEof { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
